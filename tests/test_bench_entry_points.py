"""The benchmark tracer wraps entry points by name; a renamed or deleted
one would go untraced and read 0 in its layer metric."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the tracer looks each attribute up in its owner's own namespace
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing.ENTRY_POINTS
        if vars(owner).get(attr) is None
    ]
    assert missing == []
