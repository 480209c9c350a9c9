"""Time integration of the reduced characteristic system.

Each shell obeys r' = w, w' = ell/r^3 + m(t, r)/r^2 with ell constant,
where m is the enclosed mass of the ensemble itself.  The ensemble is
advanced by integrate, the one step routine: kick-drift-kick steps
whose enclosed masses are frozen per step, an adaptive step size that
resolves pericenter passages, and a step-halving guard that keeps every
radius positive.  Each state is sorted once; that index yields both the
state's diagnostics row and the next step's enclosed masses.  The
centrifugal term makes r = 0 unreachable for ell > 0, so halving
succeeds eventually; a purely radial shell (ell = 0) can still fall
toward the center, and a StiffnessError stops the run once the adaptive
step or a halved step falls below IntegratorConfig.dt_min.

integrate_oracle solves the single-trajectory equation
y'' = ell/y^3 + profile(t) * P / y^2 exactly: under a piecewise-constant
profile each segment is free motion or a repulsive Kepler orbit, whose
time equation a Newton solve of at most ORACLE_NEWTON_MAX_ITER steps
inverts, and the turning point is that orbit's pericenter.  It serves
as the reference the bound formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .field import SortedMassIndex, sup_norms
from .phase_space import Ensemble

# Newton steps allowed per sample when solving the Kepler time equation.
ORACLE_NEWTON_MAX_ITER = 50
# Relative distance within which a requested time matches a snapshot's.
SNAPSHOT_TIME_REL_TOL = 1e-12


class StiffnessError(RuntimeError):
    """The step size fell below IntegratorConfig.dt_min."""

    def __init__(self, shell_id: int, time: float, dt: float):
        self.shell_id = shell_id
        self.time = time
        self.dt = dt
        super().__init__(
            f"step size fell below the minimum at t={time!r} "
            f"(dt={dt!r}); deepest shell id {shell_id}"
        )


class OracleError(RuntimeError):
    """The closed-form reference did not converge or overflowed."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Parameters of the ensemble integrator.

    dt = cfl * min_i r_i / (|w_i| + sqrt(a_i r_i)) capped at dt_max; the
    sqrt term shortens steps during pericenter passage where the
    acceleration a_i blows up.  A run stops with StiffnessError when this
    dt, or a step halved to keep radii positive, falls below dt_min.
    """

    t_end: float
    dt_max: float
    cfl: float = 0.2
    output_stride: int = 1

    def __post_init__(self):
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not 0.0 < self.dt_max < np.inf:
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")

    @property
    def dt_min(self) -> float:
        return 1e-12 * self.dt_max


def accel(r, ell, m_enc):
    """Radial acceleration ell/r^3 + m_enc/r^2 (always outward)."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("acceleration undefined for r <= 0 or NaN")
    out = ell / r**3 + m_enc / r**2
    return float(out) if out.ndim == 0 else out


def _kdk_attempt(r, w, ell, m_frozen, a_start, dt):
    """One kick-drift-kick trial with frozen enclosed masses.

    Returns None when any shell would drift to r <= 0 (or to NaN),
    signalling the caller to halve dt.
    """
    w_half = w + 0.5 * dt * a_start
    r_new = r + dt * w_half
    if not np.all(r_new > 0.0):
        return None
    a_end = accel(r_new, ell, m_frozen)
    w_new = w_half + 0.5 * dt * a_end
    return r_new, w_new


def _stiffness(ensemble: Ensemble, dt: float) -> StiffnessError:
    deepest = int(ensemble.ids[np.argmin(ensemble.r)])
    return StiffnessError(deepest, ensemble.time, dt)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One time-series record of a run."""

    t: float
    rho_sup_binned: float
    rho_sup_certified: float
    e_sup_exact: float
    r_min: float
    r_max: float
    mass_error: float
    dt_current: float


class SnapshotLookup:
    """snapshot_at for any run record holding (time, Ensemble) snapshots."""

    snapshots: list

    def snapshot_at(self, t: float) -> Ensemble:
        for time, ens in self.snapshots:
            if time == t or abs(time - t) <= SNAPSHOT_TIME_REL_TOL * max(abs(t), 1.0):
                return ens
        raise KeyError(f"no snapshot recorded at t={t!r}")


@dataclass
class RunResult(SnapshotLookup):
    """Everything a completed run exposes to verification and reporting."""

    rows: list  # of DiagnosticsRow
    snapshots: list  # of (time, Ensemble), ascending; first is the initial state
    final: Ensemble
    turning_time: np.ndarray  # per shell, +inf if the radius never turned
    r_min_shell: np.ndarray  # per shell min radius over the run
    t_at_r_min: np.ndarray  # per shell time of that minimum
    steps: int
    traces: dict = field(default_factory=dict)  # shell id -> (t, r, w) arrays


def _adaptive_dt(r, w, a, cfl, dt_max):
    scale = np.abs(w) + np.sqrt(a * r)
    with np.errstate(divide="ignore"):
        per_shell = np.where(scale > 0.0, r / scale, np.inf)
    dt = cfl * float(np.min(per_shell))
    return min(dt, dt_max)


def integrate(
    ensemble: Ensemble,
    config: IntegratorConfig,
    mark_times: Sequence[float] = (),
    n_bins: int = 256,
    trace_shells: Sequence[int] = (),
    max_steps: int = 10_000_000,
) -> RunResult:
    """Advance an ensemble to t_end, landing exactly on each mark time.

    Emits a diagnostics row every output_stride steps and at every mark
    and at the final time; stores ensemble snapshots at the initial
    time, the marks, and the end.  Per shell, tracks the running radius
    minimum and the turning time, the latter interpolated from the step
    that saw w change sign (trajectories are convex, so the first sign
    change is the only one).  Each row's binned density uses n_bins
    geometric bins spanning that state's radii (see sup_norms).
    """
    if len(ensemble) == 0:
        raise ValueError("cannot integrate an empty ensemble")
    marks = sorted(set(float(m) for m in mark_times))
    for m in marks:
        if m <= ensemble.time or m > config.t_end:
            raise ValueError(f"mark time {m!r} outside (start, t_end]")
    stops = marks + ([config.t_end] if config.t_end not in marks else [])

    ens = ensemble
    n = len(ens)
    turned = np.zeros(n, dtype=bool)
    turning_time = np.full(n, np.inf)
    r_min_shell = ens.r.copy()
    t_at_r_min = np.full(n, ens.time)

    trace_ids = tuple(int(i) for i in trace_shells)
    trace_pos = {}
    for tid in trace_ids:
        hits = np.flatnonzero(ens.ids == tid)
        if hits.size != 1:
            raise ValueError(f"trace shell id {tid} not found exactly once")
        trace_pos[tid] = int(hits[0])
    traces = {tid: [] for tid in trace_ids}

    def record_trace(state: Ensemble):
        for tid, pos in trace_pos.items():
            traces[tid].append((state.time, float(state.r[pos]), float(state.w[pos])))

    def make_row(state: Ensemble, index: SortedMassIndex, dt_current: float) -> DiagnosticsRow:
        norms = sup_norms(state, index, n_bins)
        return DiagnosticsRow(
            t=state.time,
            rho_sup_binned=norms.rho_sup_binned,
            rho_sup_certified=norms.rho_sup_certified,
            e_sup_exact=norms.e_sup_exact,
            r_min=norms.r_min,
            r_max=norms.r_max,
            mass_error=state.mass_error(),
            dt_current=dt_current,
        )

    index = SortedMassIndex.from_ensemble(ens)
    rows = [make_row(ens, index, 0.0)]
    snapshots = [(ens.time, ens)]
    record_trace(ens)

    steps = 0
    stop_idx = 0
    while stop_idx < len(stops):
        target = stops[stop_idx]
        if ens.time >= target:
            stop_idx += 1
            continue
        if steps >= max_steps:
            raise RuntimeError(f"exceeded {max_steps} steps before t_end")

        m_frozen = index.interior_mass()
        a_start = accel(ens.r, ens.ell, m_frozen)
        dt = _adaptive_dt(ens.r, ens.w, a_start, config.cfl, config.dt_max)
        # checked before landing clips dt, so a short gap to a mark is no stop
        if dt < config.dt_min:
            raise _stiffness(ens, dt)
        landing = ens.time + dt >= target
        if landing:
            dt = target - ens.time

        dt_try = dt
        while True:
            result = _kdk_attempt(ens.r, ens.w, ens.ell, m_frozen, a_start, dt_try)
            if result is not None:
                break
            dt_try *= 0.5
            landing = False
            if dt_try < config.dt_min or dt_try == 0.0:
                raise _stiffness(ens, dt_try)
        r_new, w_new = result
        t_new = target if landing else ens.time + dt_try

        # turning point: w crossed from negative to nonnegative this step.
        crossing = (~turned) & (ens.w < 0.0) & (w_new >= 0.0)
        if np.any(crossing):
            w_old = ens.w[crossing]
            dw = w_new[crossing] - w_old
            tau = np.where(dw > 0.0, -w_old / dw * dt_try, dt_try)
            t_star = ens.time + tau
            # radius along the step parabola at the interpolated instant
            r_star = ens.r[crossing] + w_old * tau + 0.5 * (dw / dt_try) * tau**2
            turning_time[crossing] = t_star
            turned |= crossing
            lower = r_star < r_min_shell[crossing]
            idx = np.flatnonzero(crossing)[lower]
            r_min_shell[idx] = r_star[lower]
            t_at_r_min[idx] = t_star[lower]

        ens = ens.advanced(r_new, w_new, t_new)
        index = SortedMassIndex.from_ensemble(ens)
        steps += 1

        lower = ens.r < r_min_shell
        r_min_shell[lower] = ens.r[lower]
        t_at_r_min[lower] = ens.time
        record_trace(ens)

        landed = ens.time >= target
        if landed or steps % config.output_stride == 0:
            if rows[-1].t != ens.time:
                rows.append(make_row(ens, index, dt_try))
        if landed:
            snapshots.append((ens.time, ens))
            stop_idx += 1

    return RunResult(
        rows=rows,
        snapshots=snapshots,
        final=ens,
        turning_time=turning_time,
        r_min_shell=r_min_shell,
        t_at_r_min=t_at_r_min,
        steps=steps,
        traces={tid: np.array(v) for tid, v in traces.items()},
    )


def free_motion_radius_squared(r0: float, w0: float, ell: float, t):
    """Closed-form y(t)^2 = (r0 + w0 t)^2 + ell t^2 / r0^2 for zero mass.

    This is planar free motion expressed in the radius; the oracle and
    the envelope bound both reduce to it when P = 0.
    """
    t = np.asarray(t, dtype=float)
    out = (r0 + w0 * t) ** 2 + ell * t**2 / r0**2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PiecewiseConstantProfile:
    """Force modulation profile: values[k] on [edges[k], edges[k+1]),
    with edges[0] = 0 implied and the last value extended to infinity."""

    edges: np.ndarray  # interior breakpoints, strictly ascending, > 0
    values: np.ndarray  # len(edges) + 1 values in [0, 1]

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        if edges.size and (np.any(np.diff(edges) <= 0) or edges[0] <= 0):
            raise ValueError("breakpoints must be positive and ascending")
        if values.size != edges.size + 1:
            raise ValueError("need exactly one value per segment")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("profile values must lie in [0, 1]")

    def __call__(self, t):
        idx = np.searchsorted(self.edges, t, side="right")
        return self.values[idx]


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    y: np.ndarray
    ydot: np.ndarray
    turning_time: Optional[float]
    y_turn: Optional[float]


def integrate_oracle(
    r0: float,
    w0: float,
    ell: float,
    P: float = 0.0,
    profile: Union[float, PiecewiseConstantProfile] = 1.0,
    t_end: float = 1.0,
    t_eval: Optional[np.ndarray] = None,
) -> OracleTrajectory:
    """Exact solution of y'' = ell/y^3 + profile(t) * P / y^2.

    A float profile is the constant profile of that value.  The profile
    splits [0, t_end] at its breakpoints; on each segment the charge
    k = profile * P is constant and the trajectory is advanced in closed
    form (_free_segment, _kepler_segment), its end state starting the
    next segment.  A sample time on a breakpoint belongs to the earlier
    segment.  The first turning point (ydot = 0 crossing upward) is the
    pericenter of the first segment that starts inbound and reaches it.
    """
    if not (r0 > 0 and ell > 0):
        raise ValueError("oracle requires r0 > 0 and ell > 0")
    if P < 0:
        raise ValueError("P must be nonnegative")
    if not t_end > 0:
        raise ValueError("t_end must be positive")

    if not isinstance(profile, PiecewiseConstantProfile):
        profile = PiecewiseConstantProfile(edges=(), values=(float(profile),))

    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < 0) or np.any(t_eval > t_end):
        raise ValueError("t_eval must lie inside [0, t_end]")
    t_eval = np.sort(t_eval)

    edges = profile.edges
    cuts = np.concatenate(([0.0], edges[(edges > 0) & (edges < t_end)], [t_end]))
    segment = np.maximum(np.searchsorted(cuts, t_eval, side="left") - 1, 0)

    ys = np.empty_like(t_eval)
    yds = np.empty_like(t_eval)
    y, yd = float(r0), float(w0)
    turning_time = None
    y_turn = None

    for j, (ta, tb) in enumerate(zip(cuts[:-1], cuts[1:])):
        # evaluate forcing strictly inside the segment so breakpoints
        # never alias to the wrong side
        k = float(profile(0.5 * (ta + tb))) * P
        mask = segment == j
        # the segment's own end time rides along as the last entry
        dt = np.append(t_eval[mask] - ta, tb - ta)
        if k == 0.0:
            y_at, yd_at, turn = _free_segment(y, yd, ell, dt)
        else:
            y_at, yd_at, turn = _kepler_segment(y, yd, ell, k, dt)
        if not (np.all(np.isfinite(y_at)) and np.all(np.isfinite(yd_at))):
            raise OracleError(f"closed form is not finite on [{ta}, {tb}]")
        ys[mask] = y_at[:-1]
        yds[mask] = yd_at[:-1]
        if turning_time is None and turn is not None and turn[0] <= tb - ta:
            turning_time = float(ta + turn[0])
            y_turn = float(turn[1])
        y, yd = float(y_at[-1]), float(yd_at[-1])

    return OracleTrajectory(
        times=t_eval, y=ys, ydot=yds, turning_time=turning_time, y_turn=y_turn
    )


def _free_segment(y0: float, w0: float, ell: float, t: np.ndarray):
    """Force-free motion from (y0, w0) at the times t after the segment start.

    Returns (y, ydot, turn), where turn is (time, radius) of the
    pericenter when it lies ahead (w0 < 0), else None.
    """
    y = np.sqrt(free_motion_radius_squared(y0, w0, ell, t))
    ydot = ((y0 + w0 * t) * w0 + ell * t / y0**2) / y
    turn = None
    if w0 < 0.0:
        t_turn = -y0 * w0 / (w0**2 + ell / y0**2)
        turn = (t_turn, np.sqrt(free_motion_radius_squared(y0, w0, ell, t_turn)))
    return y, ydot, turn


def _kepler_segment(y0: float, w0: float, ell: float, k: float, t: np.ndarray):
    """Repulsive Kepler motion under the constant charge k > 0.

    With E = w0^2/2 + ell/(2 y0^2) + k/y0, a = k/(2E),
    e = sqrt(1 + 2 E ell/k^2) and n = sqrt(a^3/k), the orbit is
    y = a(e cosh F + 1) at the time tau(F) = n(e sinh F + F) from
    pericenter.  It is evaluated through b = a e = sqrt(a^2 + ell/(2E))
    and c = n/a = 1/sqrt(2E), which stay finite as k -> 0 where e does
    not: y = b cosh F + a, tau = c(b sinh F + a F).

    tau(F) = tau(F0) + t is solved for every t at once by Newton from
    asinh(target/(b c)), which lies on the outer side of the root of a
    function that is convex for F > 0 and concave for F < 0, so every
    iterate moves monotonically toward the root.  A sample counts as
    converged once its Newton step stops pointing that way or no longer
    changes it; OracleError is raised if any sample still moves after
    ORACLE_NEWTON_MAX_ITER steps.  Returns (y, ydot, turn) as
    _free_segment does.
    """
    energy = 0.5 * w0**2 + ell / (2.0 * y0**2) + k / y0
    a = k / (2.0 * energy)
    b = np.sqrt(a**2 + ell / (2.0 * energy))
    c = 1.0 / np.sqrt(2.0 * energy)
    f0 = np.arcsinh(c * w0 * y0 / b)
    tau0 = c * (b * np.sinh(f0) + a * f0)

    target = tau0 + t
    inward = np.sign(target)
    f = np.arcsinh(target / (b * c))
    moving = np.ones(f.shape, dtype=bool)
    for _ in range(ORACLE_NEWTON_MAX_ITER):
        step = (c * (b * np.sinh(f) + a * f) - target) / (c * (b * np.cosh(f) + a))
        f_next = f - step
        moving &= (step * inward > 0.0) & (f_next != f)
        if not np.any(moving):
            break
        f = np.where(moving, f_next, f)
    else:
        raise OracleError(
            f"Newton solve of the Kepler time equation did not converge in "
            f"{ORACLE_NEWTON_MAX_ITER} steps at {int(np.sum(moving))} samples"
        )

    y = b * np.cosh(f) + a
    ydot = b * np.sinh(f) / (c * y)
    turn = (-tau0, a + b) if f0 < 0.0 else None
    return y, ydot, turn
