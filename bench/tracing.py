"""Span tracing of vpshell from outside the package.

The tracer replaces public entry points with timing wrappers at the
name each caller looks up (a module global such as
``vpshell.dynamics.sup_norms``, or a class attribute such as
``SortedMassIndex.from_ensemble``), records one span per call, and puts
every original back on exit.  Nothing inside the package changes: with
the tracer uninstalled the program runs exactly as it does untraced.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index
of the enclosing span or -1, and ``extra`` holds counts read off the
call's return value (the step count of a run, the case count of a
suite).  Spans stay in memory until ``write`` dumps them at exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import vpshell.cli
import vpshell.design
import vpshell.dynamics
import vpshell.field
import vpshell.initial_data
import vpshell.oracle_suite
import vpshell.reporting
from vpshell.field import SortedMassIndex
from vpshell.initial_data import InitialData
from vpshell.phase_space import Ensemble

# The package modules; each span belongs to the layer its name starts with.
LAYERS = (
    "cli",
    "initial_data",
    "phase_space",
    "field",
    "dynamics",
    "bounds",
    "design",
    "oracle_suite",
    "reporting",
)


def _steps(result):
    return {"steps": result.steps}


def _shells(ensemble):
    return {"n_shells": len(ensemble)}


def _cases(result):
    return {"cases": result.n_cases}


# (owner looked up by the caller, attribute, span name, counts from the
# return value).  A function imported into several modules is listed once
# per module that calls it.
ENTRY_POINTS = (
    (vpshell.cli, "design_small_data", "design.design_small_data", None),
    (vpshell.design, "design_small_data", "design.design_small_data", None),
    (vpshell.cli, "verify_focusing_run", "design.verify_focusing_run", None),
    (vpshell.design, "confinement_lower_bounds", "bounds.confinement_lower_bounds", None),
    (vpshell.design, "derived_bounds", "initial_data.derived_bounds", None),
    (InitialData, "from_spec", "initial_data.InitialData.from_spec", None),
    (vpshell.cli, "sample_ensemble", "initial_data.sample_ensemble", _shells),
    (vpshell.initial_data, "sample_ensemble", "initial_data.sample_ensemble", _shells),
    (vpshell.cli, "check_membership", "initial_data.check_membership", None),
    (vpshell.cli, "integrate", "dynamics.integrate", _steps),
    (vpshell.dynamics, "integrate", "dynamics.integrate", _steps),
    (vpshell.dynamics, "accel", "dynamics.accel", None),
    (vpshell.dynamics, "sup_norms", "field.sup_norms", None),
    (vpshell.field, "density_estimate", "field.density_estimate", None),
    (SortedMassIndex, "from_ensemble", "field.SortedMassIndex.from_ensemble", None),
    (SortedMassIndex, "interior_mass", "field.SortedMassIndex.interior_mass", None),
    (SortedMassIndex, "e_sup_exact", "field.SortedMassIndex.e_sup_exact", None),
    (Ensemble, "advanced", "phase_space.Ensemble.advanced", None),
    (Ensemble, "mass_error", "phase_space.Ensemble.mass_error", None),
    (vpshell.oracle_suite, "run_oracle_suite", "oracle_suite.run_oracle_suite", _cases),
    (vpshell.oracle_suite, "draw_cases", "oracle_suite.draw_cases", None),
    (vpshell.oracle_suite, "check_case", "oracle_suite.check_case", None),
    (vpshell.oracle_suite, "integrate_oracle", "dynamics.integrate_oracle", None),
    (vpshell.oracle_suite, "turning_point_bound", "bounds.turning_point_bound", None),
    (vpshell.oracle_suite, "infall_envelope", "bounds.infall_envelope", None),
    (vpshell.cli, "save_certificate", "reporting.save_certificate", None),
    (vpshell.reporting, "save_certificate", "reporting.save_certificate", None),
    (vpshell.cli, "load_certificate", "reporting.load_certificate", None),
    (vpshell.cli, "load_run_config", "reporting.load_run_config", None),
    (vpshell.cli, "save_snapshot", "reporting.save_snapshot", None),
    (vpshell.reporting, "save_snapshot", "reporting.save_snapshot", None),
    (vpshell.cli, "save_membership_report", "reporting.save_membership_report", None),
    (vpshell.cli, "save_run", "reporting.save_run", None),
    (vpshell.cli, "load_run_data", "reporting.load_run_data", None),
    (vpshell.cli, "require_manifest_matches", "reporting.require_manifest_matches", None),
    (vpshell.cli, "save_verification_report", "reporting.save_verification_report", None),
)


class Tracer:
    """In-memory span recorder that patches ENTRY_POINTS while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the span's index."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
            if counts is not None:
                self.spans[idx][4] = counts(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        for owner, attr, name, counts in ENTRY_POINTS:
            raw = owner.__dict__.get(attr)
            if raw is None:
                print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, counts))
            else:
                patched = self._wrap(raw, name, counts)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)

    def write(self, path, env: dict):
        """Dump every span, one JSON object per line after an env header."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"workload": self.workload, "env": env}) + "\n")
            for name, start, end, parent, extra in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                }
                if extra:
                    record["counts"] = extra
                handle.write(json.dumps(record) + "\n")


def rep_totals(spans, root: int):
    """Per-name totals over the spans under one root span.

    Returns (inclusive seconds, self seconds, call counts, summed counts)
    keyed by span name.  A span's self time is its duration minus the
    durations of its direct children; calls are single-threaded, so
    children never overlap.
    """
    n = len(spans)
    under = [False] * n
    child_time = [0.0] * n
    for i in range(root, n):
        name, start, end, parent, _ = spans[i]
        if i == root or (parent >= 0 and under[parent]):
            under[i] = True
            if parent >= 0 and i != root:
                child_time[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for i in range(root, n):
        if not under[i]:
            continue
        name, start, end, _, extra = spans[i]
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[key] += value
    return inclusive, self_time, calls, counts
