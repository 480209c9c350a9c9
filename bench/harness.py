"""Workloads, measurement loop and output checks of the vpshell benchmark.

Every workload is driven through the package's public API in this one
process.  A run times the workload's set-up several times, runs one
warm-up pass that also serves as the reference output, then repeats the
timed pass until the time budget is spent, checking every pass.  A
failed check or an exception counts as a failed operation; it never
stops the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import vpshell
from vpshell import cli, design, dynamics, initial_data, oracle_suite, reporting
from vpshell.field import SortedMassIndex

from tracing import LAYERS, Tracer, rep_totals

BENCH_DIR = Path(__file__).resolve().parent

# Set-up takes milliseconds, so it is timed several times before every
# pass: its median then samples the machine over the whole run.
SETUP_REPS = 3
# A seed other than 0 moves the grid by up to JITTER_REACH cells per axis,
# keeping its cell count within JITTER_TOL of the canonical one.
JITTER_REACH = 2
JITTER_TOL = 0.01
MIN_REPS = 3      # timed passes per run, even when the budget is shorter
MIN_PAIRS = 2     # untraced/traced pass pairs per traced run

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "energy_rel_drift": "ratio",
}

PER_LAYER = {
    "field.index_build_s": "s",
    "field.index_builds_per_step": "1/step",
    "field.interior_mass_s": "s",
    "field.sup_norms_s": "s",
    "field.density_s": "s",
    "field.e_sup_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.self_s": "s",
    "dynamics.accel_s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us": "us",
    "dynamics.oracle_s": "s",
    "dynamics.oracle_calls": "count",
    "oracle_suite.useful_ratio": "ratio",
    "oracle_suite.draw_s": "s",
    "bounds.eval_s": "s",
    "reporting.save_run_s": "s",
    "reporting.save_snapshot_s": "s",
    "reporting.load_run_data_s": "s",
    "reporting.bytes_written": "B",
    "reporting.bytes_read": "B",
    "initial_data.sample_s": "s",
    "initial_data.membership_s": "s",
    "initial_data.n_shells": "count",
    "design.verify_s": "s",
    "cli.design_s": "s",
    "cli.init_s": "s",
    "cli.run_s": "s",
    "cli.verify_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace_overhead_frac": "ratio",
    "ops_failed_frac": "ratio",
}


class Checks:
    """Counts checks attempted and failed; reports each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        print(f"check failed: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def jitter_grid(base, seed: int):
    """Sampling grid for a seed: the canonical grid at seed 0, otherwise a
    nearby one with about the same cell count, so the work stays comparable."""
    base = tuple(base)
    if seed == 0:
        return base
    target = math.prod(base)
    axes = (range(b - JITTER_REACH, b + JITTER_REACH + 1) for b in base)
    near = [
        grid
        for grid in itertools.product(*axes)
        if grid != base and abs(math.prod(grid) / target - 1.0) <= JITTER_TOL
    ]
    return near[int(np.random.default_rng(seed).integers(len(near)))]


def shell_energy(ens) -> float:
    """H = sum m (w^2 + ell/r^2)/2 + sum m m_int / r, with m_int the
    public interior_mass(): the pair energy the shell system conserves."""
    m_int = SortedMassIndex.from_ensemble(ens).interior_mass()
    kinetic = 0.5 * np.sum(ens.weight * (ens.w**2 + ens.ell / ens.r**2))
    return float(kinetic + np.sum(ens.weight * m_int / ens.r))


def proc_io():
    """(rchar, wchar, size of this reading) from /proc/self/io: the bytes
    this process has read and written through system calls so far."""
    with open("/proc/self/io") as handle:
        text = handle.read()
    fields = dict(line.split(":", 1) for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(text)


def io_between(before, after):
    """(bytes read, bytes written) between two proc_io() readings, less the
    bytes of the first reading itself."""
    return after[0] - before[0] - before[2], after[1] - before[1]


def sha256_files(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------- workloads


class EnsembleRun:
    """Library `integrate` on a small-data certificate, no I/O."""

    def __init__(self, name, eps, grid, horizons, dt_divisor):
        self.name = name
        self.eps = eps
        self.grid = grid
        self.horizons = horizons      # t_end in units of the certificate horizon T
        self.dt_divisor = dt_divisor  # dt_max = t_end / dt_divisor

    def setup(self, seed, out_dir):
        cert = design.design_small_data(c1=32.0, c2=1e-7, eps=self.eps)
        data = initial_data.InitialData.from_spec(cert.spec)
        ens = initial_data.sample_ensemble(data, *jitter_grid(self.grid, seed))
        t_end = self.horizons * cert.t_horizon
        config = dynamics.IntegratorConfig(t_end=t_end, dt_max=t_end / self.dt_divisor)
        return {"cert": cert, "ensemble": ens, "config": config}

    def install(self, seed, out_dir):
        pass

    def prepare(self, inputs):
        pass

    def unit(self, inputs, span):
        return dynamics.integrate(
            inputs["ensemble"], inputs["config"], mark_times=(inputs["cert"].t_horizon,)
        )

    def check(self, inputs, result, reference, checks: Checks):
        ens = inputs["ensemble"]
        final = result.final
        checks.expect(final.mass_error() == 0.0, f"{self.name}: final mass_error is 0.0")
        checks.expect(
            all(row.mass_error == 0.0 for row in result.rows),
            f"{self.name}: every row's mass_error is 0.0",
        )
        checks.expect(np.array_equal(final.ids, ens.ids), f"{self.name}: shell ids preserved")
        checks.expect(final.time == inputs["config"].t_end, f"{self.name}: run reached t_end")
        report = design.verify_focusing_run(result, inputs["cert"])
        checks.expect(report.passed, f"{self.name}: verify_focusing_run passes\n{report}")
        fingerprint = (result.steps, final.r.tobytes(), final.w.tobytes())
        if reference is not None:
            checks.expect(fingerprint == reference, f"{self.name}: rerun is bitwise identical")
        return fingerprint

    def energy_rel_drift(self, inputs, result) -> float:
        return abs(shell_energy(result.final) / shell_energy(inputs["ensemble"]) - 1.0)


class DeskPipeline:
    """In-process `vpshell.cli.main` for design -> init -> run -> verify."""

    name = "desk-pipeline"
    design_argv = ["--c1", "32", "--c2", "1e-7", "--eps", "0.2"]

    def __init__(self, grid, digest_file=None):
        self.grid = grid
        self.digest_file = digest_file

    def install(self, seed, out_dir):
        """Write the work directory's run.ini once, before any timing."""
        work = Path(out_dir) / self.name
        work.mkdir(parents=True, exist_ok=True)
        n_r, n_w, n_ell = jitter_grid(self.grid, seed)
        setup = reporting.RunSetup(certificate_path="certificate.ini", n_r=n_r, n_w=n_w, n_ell=n_ell)
        reporting.save_run_config(setup, work / "run.ini")

    def setup(self, seed, out_dir):
        # The CLI designs and samples again inside the pass; set-up times the
        # same library calls as the other ensemble workloads so it compares.
        cert = design.design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        data = initial_data.InitialData.from_spec(cert.spec)
        initial_data.sample_ensemble(data, *jitter_grid(self.grid, seed))
        return {"work": Path(out_dir) / self.name, "seed": seed}

    @functools.cached_property
    def recorded_digests(self):
        """SHA-256 of each run-directory file of the canonical grid (seed 0)."""
        if self.digest_file is None:
            return None
        return json.loads(Path(self.digest_file).read_text())

    def prepare(self, inputs):
        work = inputs["work"]
        for sub in ("init", "run"):
            shutil.rmtree(work / sub, ignore_errors=True)
        (work / "certificate.ini").unlink(missing_ok=True)

    def unit(self, inputs, span):
        work = inputs["work"]
        cert, config = str(work / "certificate.ini"), str(work / "run.ini")
        commands = (
            ["design", *self.design_argv, "--out", cert],
            ["init", "--config", config, "--out", str(work / "init")],
            ["run", "--config", config, "--out", str(work / "run")],
            ["verify", str(work / "run"), cert],
        )
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                with span(f"cli.{argv[0]}"):
                    codes.append(cli.main(argv))
        return codes

    def check(self, inputs, codes, reference, checks: Checks):
        for name, code in zip(("design", "init", "run", "verify"), codes):
            checks.expect(code == 0, f"{self.name}: `vpshell {name}` exit code {code} is 0")
        run_dir = inputs["work"] / "run"
        report = reporting.load_verification_report(run_dir / "verification.ini")
        checks.expect(len(report.stages) == 5, f"{self.name}: five verification stages")
        for stage in report.stages:
            checks.expect(stage.status == "pass", f"{self.name}: stage {stage.name} passes")
        digests = sha256_files(run_dir)
        recorded = self.recorded_digests if inputs["seed"] == 0 else None
        for expected, what in ((reference, "rerun"), (recorded, "recorded digest")):
            if expected is None:
                continue
            checks.expect(sorted(digests) == sorted(expected), f"{self.name}: {what} file list")
            for name, digest in expected.items():
                checks.expect(digests.get(name) == digest, f"{self.name}: {what} SHA-256 of {name}")
        return digests

    def energy_rel_drift(self, inputs, codes) -> float:
        summary = reporting.load_run_data(inputs["work"] / "run")
        start, end = summary.snapshots[0][1], summary.snapshots[-1][1]
        return abs(shell_energy(end) / shell_energy(start) - 1.0)


DRIFT_SEED = 1234  # the oracle CLI's default draw seed


class OracleSuite:
    """`run_oracle_suite` over a fixed number of seeded draws."""

    name = "oracle"

    def __init__(self, n_cases):
        self.n_cases = n_cases

    def install(self, seed, out_dir):
        pass

    def setup(self, seed, out_dir):
        return {"seed": seed, "cases": oracle_suite.draw_cases(self.n_cases, seed)}

    def prepare(self, inputs):
        pass

    def unit(self, inputs, span):
        return oracle_suite.run_oracle_suite(n_cases=self.n_cases, seed=inputs["seed"])

    def check(self, inputs, result, reference, checks: Checks):
        checks.expect(len(result.outcomes) == self.n_cases, f"oracle: {self.n_cases} outcomes")
        for outcome in result.outcomes:
            checks.expect(outcome.passed, f"oracle: {outcome.label} {outcome.detail}")
        if reference is not None:
            checks.expect(result.outcomes == reference, "oracle: rerun outcomes identical")
        return result.outcomes

    def energy_rel_drift(self, inputs, result) -> float:
        """Median over draws of the worst relative drift, within one
        constant-force segment, of the energy w^2/2 + L/(2y^2) + p P/y along
        `integrate_oracle` at the suite's tolerance over the first horizon.

        The draws are the suite's canonical ones (seed 1234), not the run's:
        over 200 random draws this median still moves by 10-15% from seed to
        seed, which would hide any change to the integrator's accuracy."""
        drifts = []
        for case in oracle_suite.draw_cases(self.n_cases, DRIFT_SEED):
            t_end = 3.0 * case.y0 / abs(case.y1)
            traj = dynamics.integrate_oracle(
                r0=case.y0, w0=case.y1, ell=case.L, P=case.P, profile=case.profile,
                t_end=t_end, t_eval=np.linspace(0.0, t_end, 129),
            )
            if isinstance(case.profile, dynamics.PiecewiseConstantProfile):
                segment = np.searchsorted(case.profile.edges, traj.times, side="right")
                force = case.profile(traj.times)
            else:
                segment = np.zeros(traj.times.size, dtype=int)
                force = case.profile
            energy = 0.5 * traj.ydot**2 + case.L / (2.0 * traj.y**2) + force * case.P / traj.y
            drifts.append(max(
                float(np.max(np.abs(energy[segment == k] / energy[segment == k][0] - 1.0)))
                for k in np.unique(segment)
            ))
        return statistics.median(drifts)


WORKLOADS = {
    "desk-pipeline": DeskPipeline(grid=(40, 44, 28), digest_file=BENCH_DIR / "desk_digests.json"),
    "focus": EnsembleRun("focus", eps=0.05, grid=(48, 48, 32), horizons=3.0,
                         dt_divisor=150.0),
    "large-infall": EnsembleRun("large-infall", eps=0.2, grid=(80, 88, 56), horizons=1.0,
                                dt_divisor=50.0),
    "oracle": OracleSuite(n_cases=200),
}


# ------------------------------------------------------------ measurement


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vpshell": vpshell.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_unit(workload, inputs, span, checks):
    """Prepare and time one pass; returns (seconds, output or None)."""
    workload.prepare(inputs)
    output = None
    start = time.perf_counter()
    try:
        with span("bench.unit"):
            output = workload.unit(inputs, span)
    except Exception as exc:  # a crash is a failed operation, never the end of the run
        checks.crashed(f"{workload.name} pass", exc)
    return time.perf_counter() - start, output


def _check(workload, inputs, output, reference, checks):
    """Check one pass's output; returns its fingerprint for rerun checks."""
    if output is None:
        return None
    try:
        return workload.check(inputs, output, reference, checks)
    except Exception as exc:
        checks.crashed(f"{workload.name} output check", exc)
        return None


def _no_span(name):
    return contextlib.nullcontext()


def _layer_metrics(spans, root, io_bytes) -> dict:
    """Layer metrics of one traced repetition (set-up plus pass) under
    `root`; `io_bytes` is its (bytes read, bytes written)."""
    inc, own, calls, counts = rep_totals(spans, root)
    # The oracle set-up draws the cases that run_oracle_suite draws again in
    # the pass; draw_s counts the pass's draws only.
    unit = next(i for i in range(root, len(spans))
                if spans[i][0] == "bench.unit" and spans[i][3] == root)
    pass_inc = rep_totals(spans, unit)[0]
    steps = counts["steps"]
    oracle_calls = calls["dynamics.integrate_oracle"]
    samples = calls["initial_data.sample_ensemble"]
    metrics = {
        "field.index_build_s": inc["field.SortedMassIndex.from_ensemble"],
        "field.index_builds_per_step":
            calls["field.SortedMassIndex.from_ensemble"] / steps if steps else 0.0,
        "field.interior_mass_s": inc["field.SortedMassIndex.interior_mass"],
        "field.sup_norms_s": inc["field.sup_norms"],
        "field.density_s": inc["field.density_estimate"],
        "field.e_sup_s": inc["field.SortedMassIndex.e_sup_exact"],
        "dynamics.integrate_s": inc["dynamics.integrate"],
        "dynamics.self_s": own["dynamics.integrate"],
        "dynamics.accel_s": inc["dynamics.accel"],
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * inc["dynamics.integrate"] / steps if steps else 0.0,
        "dynamics.oracle_s": inc["dynamics.integrate_oracle"],
        "dynamics.oracle_calls": oracle_calls,
        "oracle_suite.useful_ratio": counts["cases"] / oracle_calls if oracle_calls else 0.0,
        "oracle_suite.draw_s": pass_inc["oracle_suite.draw_cases"],
        "bounds.eval_s": sum(t for name, t in inc.items() if name.startswith("bounds.")),
        "reporting.save_run_s": inc["reporting.save_run"],
        "reporting.save_snapshot_s": inc["reporting.save_snapshot"],
        "reporting.load_run_data_s": inc["reporting.load_run_data"],
        "reporting.bytes_written": io_bytes[1],
        "reporting.bytes_read": io_bytes[0],
        "initial_data.sample_s": inc["initial_data.sample_ensemble"],
        "initial_data.membership_s": inc["initial_data.check_membership"],
        "initial_data.n_shells": counts["n_shells"] / samples if samples else 0.0,
        "design.verify_s": inc["design.verify_focusing_run"],
        "cli.design_s": inc["cli.design"],
        "cli.init_s": inc["cli.init"],
        "cli.run_s": inc["cli.run"],
        "cli.verify_s": inc["cli.verify"],
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(
            t for name, t in own.items() if name.split(".", 1)[0] == layer
        )
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir,
                 spans_path=None, env=None) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    workload.install(seed, out_dir)

    setup_times = []

    def timed_setups():
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            inputs = workload.setup(seed, out_dir)
            setup_times.append(time.perf_counter() - start)
        return inputs

    inputs = timed_setups()
    _, output = _run_unit(workload, inputs, _no_span, checks)
    reference = _check(workload, inputs, output, None, checks)
    # deterministic, so taken once from the reference pass
    drift = 1.0
    if output is not None and not trace:
        try:
            drift = workload.energy_rel_drift(inputs, output)
        except Exception as exc:
            checks.crashed(f"{workload.name} energy accounting", exc)
    del output

    if not trace:
        walls = []
        start = time.perf_counter()
        while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
            inputs = timed_setups()
            elapsed, output = _run_unit(workload, inputs, _no_span, checks)
            _check(workload, inputs, output, reference, checks)
            del output  # one pass's output alive at a time keeps peak RSS per pass
            walls.append(elapsed)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "energy_rel_drift": drift,
        }
        units = END_TO_END
    else:
        tracer = Tracer(workload.name)

        def timed_rep(span):
            start = time.perf_counter()
            rep_inputs = workload.setup(seed, out_dir)
            setup_s = time.perf_counter() - start
            elapsed, output = _run_unit(workload, rep_inputs, span, checks)
            return setup_s + elapsed, rep_inputs, output

        untraced, traced, roots, io_bytes = [], [], [], []
        start = time.perf_counter()
        for k in itertools.count():
            if k >= MIN_PAIRS and time.perf_counter() - start >= seconds:
                break
            # alternate which side of the pair runs first
            for traced_side in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_side:
                    with tracer.installed(), tracer.span("bench.rep") as root:
                        before = proc_io()
                        elapsed, rep_inputs, output = timed_rep(tracer.span)
                        io_bytes.append(io_between(before, proc_io()))
                    traced.append(elapsed)
                    roots.append(root)
                else:
                    elapsed, rep_inputs, output = timed_rep(_no_span)
                    untraced.append(elapsed)
                _check(workload, rep_inputs, output, reference, checks)
                del output
        per_rep = [_layer_metrics(tracer.spans, root, io) for root, io in zip(roots, io_bytes)]
        metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics["ops_failed_frac"] = checks.failed_frac
        units = PER_LAYER
        if spans_path is not None:
            tracer.write(spans_path, env or {})

    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
