"""vpshell benchmark: time to a verified result, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload focus --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  The line before it records the
environment.  Run files and span dumps go to ``.bench_out/``.
"""

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-pipeline", "focus", "large-infall", "oracle")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import vpshell from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import vpshell
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import vpshell from {SRC}: {exc}")
    if not Path(vpshell.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: vpshell imported from {vpshell.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        raise SystemExit("bench: --seed must be nonnegative")
    _import_package()
    import harness

    out_dir = ROOT / ".bench_out"
    env = harness.environment(args.workload, args.seed)
    result = harness.run_workload(
        harness.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=out_dir,
        spans_path=out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
        env=env,
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
