"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/report.py --seed 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Runs ``bench/run.py`` for each workload twice, untraced and traced, each
in its own process so that peak RSS stays per workload, and prints one
line per metric with its value and unit.  Exits 1 if any run fails to
produce a result or reports a failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, entry in result["metrics"].items():
                print(f"  {name:32s} {entry['value']:<14.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
