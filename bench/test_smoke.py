"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py

Runs every workload at toy size through the same measurement code the
benchmark uses, and checks that each declared metric is emitted with its
declared unit, that a corrupted run file shows up as failed operations,
and that the benchmark refuses to run without the package source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import vpshell.cli  # noqa: E402

TOY = {
    "desk-pipeline": harness.DeskPipeline(grid=(8, 8, 6)),
    "focus": harness.EnsembleRun("focus", eps=0.05, grid=(8, 8, 6), horizons=3.0,
                                 dt_divisor=150.0),
    "large-infall": harness.EnsembleRun("large-infall", eps=0.2, grid=(10, 10, 8),
                                        horizons=1.0, dt_divisor=50.0),
    "oracle": harness.OracleSuite(n_cases=4),
}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_toy_workloads_cover_the_declared_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(TOY) == sorted(harness.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_seed_zero_is_the_canonical_grid_and_others_stay_close():
    assert harness.jitter_grid((40, 44, 28), 0) == (40, 44, 28)
    for seed in range(1, 20):
        grid = harness.jitter_grid((40, 44, 28), seed)
        assert grid == harness.jitter_grid((40, 44, 28), seed)
        assert grid != (40, 44, 28)
        assert abs(math.prod(grid) / (40 * 44 * 28) - 1.0) <= 0.01


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = harness.run_workload(
        TOY[name], seed=3, seconds=0.0, trace=trace, out_dir=tmp_path,
        spans_path=spans,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    json.loads(json.dumps(result, allow_nan=False))
    if trace:
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert records[0]["workload"] == TOY[name].name
        assert {"name", "start", "end", "parent", "workload"} <= set(records[1])
        assert result["metrics"]["ops_failed_frac"]["value"] == 0.0
        if name == "desk-pipeline":
            assert result["metrics"]["reporting.bytes_written"]["value"] > 0.0
            assert result["metrics"]["reporting.bytes_read"]["value"] > 0.0
    else:
        assert all(entry["value"] > 0.0 for entry in result["metrics"].values())


def test_corrupted_run_file_raises_failed_fraction(tmp_path, monkeypatch):
    load_run_data = vpshell.cli.load_run_data

    def corrupt_then_load(run_dir):
        # move one shell far outside the certified confinement radius at T
        snapshot = Path(run_dir) / "snapshot_001.csv"
        lines = snapshot.read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = "1000000000.0"
        lines[1] = ",".join(fields)
        snapshot.write_text("\n".join(lines) + "\n")
        return load_run_data(run_dir)

    monkeypatch.setattr(vpshell.cli, "load_run_data", corrupt_then_load)
    result = harness.run_workload(
        TOY["desk-pipeline"], seed=0, seconds=0.0, trace=True, out_dir=tmp_path
    )
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ops_failed_frac"]["value"] > 0.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "focus", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
