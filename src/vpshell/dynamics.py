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
y'' = ell/y^3 + profile(t) * P / y^2 with a high-order adaptive method
and locates the turning point by event detection; it serves as the
reference implementation the bound formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp

from .field import SortedMassIndex, sup_norms
from .phase_space import Ensemble


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
    """The reference integrator failed to meet its tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs of the ensemble integrator.

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
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
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

    def snapshot_at(self, t: float, rel_tol: float = 1e-12) -> Ensemble:
        for time, ens in self.snapshots:
            if time == t or abs(time - t) <= rel_tol * max(abs(t), 1.0):
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

    if config.t_end <= ens.time:
        return RunResult(
            rows=rows,
            snapshots=snapshots,
            final=ens,
            turning_time=turning_time,
            r_min_shell=r_min_shell,
            t_at_r_min=t_at_r_min,
            steps=0,
            traces={tid: np.array(v) for tid, v in traces.items()},
        )

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
    profile: Union[None, float, PiecewiseConstantProfile, Callable] = None,
    t_end: float = 1.0,
    t_eval: Optional[np.ndarray] = None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> OracleTrajectory:
    """Reference solution of y'' = ell/y^3 + profile(t) * P / y^2.

    Integrates with DOP853 at tight tolerance, splitting at profile
    breakpoints so discontinuous forcing never degrades the order, and
    locates the first turning point (ydot = 0 crossing upward) by event
    detection on the dense output.
    """
    if not (r0 > 0 and ell > 0):
        raise ValueError("oracle requires r0 > 0 and ell > 0")
    if P < 0:
        raise ValueError("P must be nonnegative")
    if not t_end > 0:
        raise ValueError("t_end must be positive")

    if profile is None:
        profile = 1.0
    if isinstance(profile, (int, float)):
        const = float(profile)
        if not 0.0 <= const <= 1.0:
            raise ValueError("profile values must lie in [0, 1]")
        profile_fn: Callable = lambda t: const  # noqa: E731
        breakpoints: np.ndarray = np.array([])
    elif isinstance(profile, PiecewiseConstantProfile):
        profile_fn = profile
        breakpoints = profile.edges
    else:
        profile_fn = profile
        breakpoints = np.array([])

    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < 0) or np.any(t_eval > t_end):
        raise ValueError("t_eval must lie inside [0, t_end]")
    t_eval = np.sort(t_eval)

    cuts = np.concatenate(([0.0], breakpoints[(breakpoints > 0) & (breakpoints < t_end)], [t_end]))

    def turn_event(t, state):
        return state[1]

    turn_event.direction = 1.0
    turn_event.terminal = False

    ys = np.empty_like(t_eval)
    yds = np.empty_like(t_eval)
    filled = np.zeros(t_eval.shape, dtype=bool)
    state = np.array([r0, w0], dtype=float)
    turning_time = None
    y_turn = None

    for ta, tb in zip(cuts[:-1], cuts[1:]):
        # evaluate forcing strictly inside the segment so breakpoints
        # never alias to the wrong side
        p_mid = float(profile_fn(0.5 * (ta + tb)))

        def rhs(t, s, p=p_mid, smooth=not isinstance(profile, PiecewiseConstantProfile)):
            y, yd = s
            val = float(profile_fn(t)) if smooth and callable(profile_fn) else p
            return (yd, ell / y**3 + val * P / y**2)

        sol = solve_ivp(
            rhs,
            (ta, tb),
            state,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=True,
            events=turn_event,
        )
        if not sol.success:
            raise OracleError(f"reference integration failed on [{ta}, {tb}]: {sol.message}")
        mask = (~filled) & (t_eval >= ta) & (t_eval <= tb)
        if np.any(mask):
            vals = sol.sol(t_eval[mask])
            ys[mask] = vals[0]
            yds[mask] = vals[1]
            filled[mask] = True
        if turning_time is None and sol.t_events[0].size:
            for te in sol.t_events[0]:
                if te > 1e-300:
                    turning_time = float(te)
                    y_turn = float(sol.sol(te)[0])
                    break
        state = sol.y[:, -1]

    if not np.all(filled):
        raise OracleError("internal error: sample times not covered by segments")
    return OracleTrajectory(
        times=t_eval, y=ys, ydot=yds, turning_time=turning_time, y_turn=y_turn
    )
