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
step or a halved step falls below IntegratorConfig.dt_min.  A run takes
at most MAX_STEPS steps: IntegratorConfig refuses a t_end farther away,
in steps of dt_max, and a StepBudgetError stops a run that uses them up.

A run allocates its work arrays once (the enclosed masses, the force,
the force's radius terms ell/r^3 and r^2, and two masks), and every
elementwise pass writes into them.  Each index build reuses the previous
index's arrays and allocates one array of one value per shell: the
positions its packed keys carry, or lexsort's order.  Only colliding
keys and tied radii add arrays, sized by their members.  The radius
terms computed for a step's closing kick are those of the next state,
so the next step's opening force recomputes only m/r^2.  Positions and
velocities rotate through two pairs of arrays: a state gives its r and
w to the state after next, unless it is a snapshot or the final state,
whose arrays, like the caller's ensemble, are never written again; a
fresh pair replaces one kept that way.

integrate takes exactly what a run manifest's [run] records, and its
RunResult holds exactly what the run directory holds, so a run replays
from its record.

integrate_oracle_batch solves the single-trajectory equation
y'' = ell/y^3 + profile(t) * P / y^2 exactly, for many cases at once:
under a piecewise-constant profile each segment is free motion or a
repulsive Kepler orbit, whose time equation a Newton solve of at most
ORACLE_NEWTON_MAX_ITER steps inverts, and the turning point is that
orbit's pericenter.  It takes the profiles as padded rows, one per
case: the breakpoints padded with inf and the values padded with
zeros, which profile_rows builds from profile objects and the oracle
suite draws directly.  Round j advances segment j of every case in
elementwise passes over arrays: one over the cases for the orbit's
constants and pericenter (_free_orbit, _kepler_orbit), and one over the
samples, which take those constants gathered per sample (_free_samples,
_kepler_samples).  A converged Newton sample keeps its iterate, so a
case comes out bit for bit the same in any batch.  integrate_oracle is
its one-case call.  The oracle is the reference the bound formulas are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .field import SortedMassIndex, sup_norms
from .phase_space import Ensemble

# Newton steps allowed per sample when solving the Kepler time equation.
ORACLE_NEWTON_MAX_ITER = 50
# Relative distance within which a requested time matches a snapshot's.
SNAPSHOT_TIME_REL_TOL = 1e-12
# Steps one run may take.
MAX_STEPS = 10_000_000


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


class StepBudgetError(RuntimeError):
    """A run used up MAX_STEPS steps before t_end."""


class OracleError(RuntimeError):
    """The closed-form reference did not converge or overflowed; `case`
    is the index, within its batch, of the case it failed on, if known."""

    def __init__(self, message: str, case: Optional[int] = None):
        self.case = case
        super().__init__(message)


@dataclass(frozen=True)
class IntegratorConfig:
    """Parameters of the ensemble integrator.

    dt = cfl * min_i r_i / (|w_i| + sqrt(a_i r_i)) capped at dt_max; the
    sqrt term shortens steps during pericenter passage where the
    acceleration a_i blows up.  A run stops with StiffnessError when this
    dt, or a step halved to keep radii positive, falls below dt_min.  A
    t_end more than MAX_STEPS steps of dt_max away is refused.  These are
    the manifest's [run] t_end, dt_max and cfl.
    """

    t_end: float
    dt_max: float
    cfl: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not 0.0 < self.dt_max < np.inf:
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_end / self.dt_max > MAX_STEPS:
            raise ValueError(
                f"t_end / dt_max = {self.t_end / self.dt_max:.6g} steps exceeds the "
                f"budget of {MAX_STEPS}"
            )

    @property
    def dt_min(self) -> float:
        return 1e-12 * self.dt_max


def _radius_terms(r, ell, ell_r3, r2):
    """The force's terms that depend on the radius alone: ell / r**3 into
    ell_r3 and r**2 into r2, for _force to combine with any enclosed mass."""
    np.power(r, 3, out=ell_r3)
    np.divide(ell, ell_r3, out=ell_r3)
    np.square(r, out=r2)


def _force(ell_r3, m_enc, r2, out):
    """The radial force ell/r^3 + m_enc/r^2 from _radius_terms, into out."""
    np.divide(m_enc, r2, out=out)
    return np.add(ell_r3, out, out=out)


def accel(r, ell, m_enc):
    """Radial acceleration ell/r^3 + m_enc/r^2 (always outward)."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("acceleration undefined for r <= 0 or NaN")
    shape = np.broadcast_shapes(r.shape, np.shape(ell), np.shape(m_enc))
    ell_r3, r2 = np.empty(shape), np.empty(shape)
    _radius_terms(r, ell, ell_r3, r2)
    out = _force(ell_r3, m_enc, r2, out=r2)
    return float(out) if out.ndim == 0 else out


def _kdk_attempt(r, w, ell, m_frozen, a, dt, r_new, w_new, ell_r3, r2) -> bool:
    """One kick-drift-kick trial with frozen enclosed masses.

    a holds the force at (r, w).  The trial writes r_new and w_new; it
    returns False, leaving a, ell_r3 and r2 as they were, when any shell
    would drift to r <= 0 (or to NaN), signalling the caller to halve dt.
    On success ell_r3 and r2 hold r_new's radius terms and a is spent.
    """
    np.multiply(0.5 * dt, a, out=w_new)
    w_half = np.add(w, w_new, out=w_new)
    np.multiply(dt, w_half, out=r_new)
    np.add(r, r_new, out=r_new)
    if not r_new.min() > 0.0:  # a NaN minimum fails too
        return False
    _radius_terms(r_new, ell, ell_r3, r2)
    a_end = _force(ell_r3, m_frozen, r2, out=a)
    np.multiply(0.5 * dt, a_end, out=a_end)
    np.add(w_half, a_end, out=w_new)
    return True


def _refuse_bad_shells(ensemble: Ensemble):
    """ValueError naming the first shell, in ensemble order, whose radius
    is not positive and finite, whose w or weight is not finite, or whose
    ell is negative or not finite."""
    r, ell = ensemble.r, ensemble.ell
    valid = {
        "r": (r > 0.0) & (r < np.inf),
        "w": np.isfinite(ensemble.w),
        "ell": (ell >= 0.0) & (ell < np.inf),
        "weight": np.isfinite(ensemble.weight),
    }
    bad = [(int(np.argmin(ok)), q) for q, ok in valid.items() if not ok.all()]
    if bad:
        k, name = min(bad, key=lambda b: b[0])
        raise ValueError(
            f"cannot integrate shell id {int(ensemble.ids[k])}: "
            f"{name}={float(getattr(ensemble, name)[k])!r}"
        )


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


@dataclass
class RunResult:
    """A completed run, field for field what its run directory holds:
    reporting.load_run_data reads back the RunResult integrate returned."""

    rows: list  # of DiagnosticsRow
    snapshots: list  # of (time, Ensemble), ascending; first is the initial state
    turning_time: np.ndarray  # per shell, +inf if the radius never turned
    r_min_shell: np.ndarray  # per shell min radius over the run
    t_at_r_min: np.ndarray  # per shell time of that minimum
    steps: int

    @property
    def final(self) -> Ensemble:
        """The state at the end of the run, its last snapshot."""
        return self.snapshots[-1][1]

    def snapshot_at(self, t: float) -> Ensemble:
        for time, ens in self.snapshots:
            if time == t or abs(time - t) <= SNAPSHOT_TIME_REL_TOL * max(abs(t), 1.0):
                return ens
        raise KeyError(f"no snapshot recorded at t={t!r}")


def _adaptive_dt(r, w, a, cfl, dt_max, scale, per_shell):
    """cfl * min_i r_i / (|w_i| + sqrt(a_i r_i)), where a zero or NaN
    denominator sets no limit, capped at dt_max; scale and per_shell are
    scratch arrays."""
    np.multiply(a, r, out=scale)
    np.sqrt(scale, out=scale)
    np.abs(w, out=per_shell)
    np.add(per_shell, scale, out=scale)
    with np.errstate(divide="ignore"):
        np.divide(r, scale, out=per_shell)
    lowest = float(np.min(per_shell))
    if np.isnan(lowest):
        # a NaN scale sets no limit, but r / NaN is NaN
        per_shell[~(scale > 0.0)] = np.inf
        lowest = float(np.min(per_shell))
    dt = cfl * lowest
    return min(dt, dt_max)


def integrate(
    ensemble: Ensemble, config: IntegratorConfig, mark_times: Sequence[float] = ()
) -> RunResult:
    """Advance an ensemble to t_end, landing exactly on each mark time.

    Emits a diagnostics row for every state and stores ensemble snapshots
    at the initial time, the marks, and the end.  Per shell, tracks the
    running radius minimum and the turning time, the latter interpolated
    from the step that saw w change sign (trajectories are convex, so the
    first sign change is the only one).  Each state is sorted once: its
    SortedMassIndex gives the state's row (sup norms and a density binned
    on field.N_BINS geometric bins spanning its radii, see sup_norms) and the
    next step's enclosed masses.  The step writes into work arrays the
    run allocates once (see the module docstring); the caller's ensemble
    and every snapshot keep arrays that are never written.  An empty
    ensemble, and a shell that _refuse_bad_shells names, is refused with
    a ValueError before the first step.
    """
    if len(ensemble) == 0:
        raise ValueError("cannot integrate an empty ensemble")
    _refuse_bad_shells(ensemble)
    marks = sorted(set(float(m) for m in mark_times))
    for m in marks:
        if m <= ensemble.time or m > config.t_end:
            raise ValueError(f"mark time {m!r} outside (start, t_end]")
    stops = marks + ([config.t_end] if config.t_end not in marks else [])

    ens = ensemble
    n = len(ens)
    turning_time = np.full(n, np.inf)  # +inf until the shell turns
    r_min_shell = ens.r.copy()
    t_at_r_min = np.full(n, ens.time)

    def make_row(state: Ensemble, index: SortedMassIndex, dt_current: float) -> DiagnosticsRow:
        norms = sup_norms(index)
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

    m_frozen, a = np.empty(n), np.empty(n)
    ell_r3, r2 = np.empty(n), np.empty(n)  # radius terms of ens
    _radius_terms(ens.r, ens.ell, ell_r3, r2)
    crossing, mask = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    spare = None  # r and w of the state before ens, when free to overwrite
    kept = True  # ens's arrays are the caller's or a snapshot's

    steps = 0
    stop_idx = 0
    while stop_idx < len(stops):
        target = stops[stop_idx]
        if ens.time >= target:
            stop_idx += 1
            continue
        if steps >= MAX_STEPS:
            raise StepBudgetError(f"{steps} steps reached at t={ens.time!r} before t_end")

        index.interior_mass(out=m_frozen)
        a_start = _force(ell_r3, m_frozen, r2, out=a)
        r_new, w_new = spare if spare is not None else (np.empty(n), np.empty(n))
        dt = _adaptive_dt(ens.r, ens.w, a_start, config.cfl, config.dt_max, r_new, w_new)
        # checked before landing clips dt, so a short gap to a mark is no stop
        if dt < config.dt_min:
            raise _stiffness(ens, dt)
        landing = ens.time + dt >= target
        if landing:
            dt = target - ens.time

        dt_try = dt
        while not _kdk_attempt(
            ens.r, ens.w, ens.ell, m_frozen, a_start, dt_try, r_new, w_new, ell_r3, r2
        ):
            dt_try *= 0.5
            landing = False
            if dt_try < config.dt_min or dt_try == 0.0:
                raise _stiffness(ens, dt_try)
        t_new = target if landing else ens.time + dt_try

        # turning point: w crossed from negative to nonnegative this step.
        np.equal(turning_time, np.inf, out=crossing)
        np.logical_and(crossing, np.less(ens.w, 0.0, out=mask), out=crossing)
        np.logical_and(crossing, np.greater_equal(w_new, 0.0, out=mask), out=crossing)
        if np.any(crossing):
            w_old = ens.w[crossing]
            dw = w_new[crossing] - w_old
            # w_old < 0 <= w_new, so dw >= -w_old > 0
            tau = -w_old / dw * dt_try
            t_star = ens.time + tau
            # radius along the step parabola at the interpolated instant
            r_star = ens.r[crossing] + w_old * tau + 0.5 * (dw / dt_try) * tau**2
            turning_time[crossing] = t_star
            lower = r_star < r_min_shell[crossing]
            idx = np.flatnonzero(crossing)[lower]
            r_min_shell[idx] = r_star[lower]
            t_at_r_min[idx] = t_star[lower]

        # the state after next reuses ens's arrays unless something keeps them
        spare = None if kept else (ens.r, ens.w)
        ens = ens.advanced(r_new, w_new, t_new)
        index = SortedMassIndex.from_ensemble(ens, out=index)
        steps += 1

        lower = np.less(ens.r, r_min_shell, out=mask)
        np.copyto(r_min_shell, ens.r, where=lower)
        np.copyto(t_at_r_min, ens.time, where=lower)

        if rows[-1].t != ens.time:
            rows.append(make_row(ens, index, dt_try))
        kept = ens.time >= target
        if kept:
            snapshots.append((ens.time, ens))
            stop_idx += 1

    return RunResult(
        rows=rows,
        snapshots=snapshots,
        turning_time=turning_time,
        r_min_shell=r_min_shell,
        t_at_r_min=t_at_r_min,
        steps=steps,
    )


def free_motion_radius_squared(r0: float, w0: float, ell: float, t):
    """Closed-form y(t)^2 = (r0 + w0 t)^2 + ell t^2 / r0^2 for zero mass.

    This is planar free motion expressed in the radius; the oracle and
    the envelope bound both reduce to it when P = 0.  r0^2 is libm's pow,
    as a float's r0**2 is, so an array r0 gives each entry its scalar
    value.
    """
    t = np.asarray(t, dtype=float)
    out = (r0 + w0 * t) ** 2 + ell * t**2 / np.float_power(r0, 2.0)
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
        # a handful of entries: Python comparisons beat array passes; each
        # is written so that NaN fails it
        e = edges.tolist()
        if e and not (e[0] > 0 and all(hi > lo for lo, hi in zip(e, e[1:]))):
            raise ValueError("breakpoints must be positive and ascending")
        if values.size != edges.size + 1:
            raise ValueError("need exactly one value per segment")
        if not all(0 <= v <= 1 for v in values.tolist()):
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


@dataclass(frozen=True)
class OracleBatch:
    """Trajectories of several cases, stored flat.

    Sample s belongs to case `case[s]`; a case's samples are contiguous
    and ascend in time.  turning_time and y_turn hold one value per case,
    NaN for a case that does not turn before its t_end.
    """

    times: np.ndarray
    y: np.ndarray
    ydot: np.ndarray
    case: np.ndarray
    turning_time: np.ndarray
    y_turn: np.ndarray


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

    A float profile is the constant profile of that value.  This is
    integrate_oracle_batch for one case, sampled at the sorted t_eval
    (201 even times on [0, t_end] by default).
    """
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.sort(np.asarray(t_eval, dtype=float))
    batch = integrate_oracle_batch(
        [r0], [w0], [ell], [P], *profile_rows([profile]), [t_end],
        t_eval, np.zeros(t_eval.size, dtype=np.intp),
    )
    turned = not np.isnan(batch.turning_time[0])
    return OracleTrajectory(
        times=t_eval,
        y=batch.y,
        ydot=batch.ydot,
        turning_time=float(batch.turning_time[0]) if turned else None,
        y_turn=float(batch.y_turn[0]) if turned else None,
    )


def profile_rows(profiles: Sequence):
    """The profiles as integrate_oracle_batch takes them, one row each:
    (edges, values), the breakpoints padded with inf and the values with
    zeros to the widest profile.  A float is the constant profile of
    that value."""
    profiles = [
        p if isinstance(p, PiecewiseConstantProfile)
        else PiecewiseConstantProfile(edges=(), values=(float(p),))
        for p in profiles
    ]
    width = max((p.edges.size for p in profiles), default=0)
    edges = np.full((len(profiles), width), np.inf)
    values = np.zeros((len(profiles), width + 1))
    for i, p in enumerate(profiles):
        edges[i, : p.edges.size] = p.edges
        values[i, : p.values.size] = p.values
    return edges, values


def integrate_oracle_batch(r0, w0, ell, P, edges, values, t_end, times, case) -> OracleBatch:
    """Exact solutions of y'' = ell/y^3 + profile(t) * P / y^2 for many cases.

    Case i starts at y = r0[i], ydot = w0[i] under ell[i], P[i] and the
    profile of row i of `edges` and `values`, as profile_rows gives
    them: its breakpoints ascend, then inf pads the row; its value j, in
    [0, 1], holds from breakpoint j - 1 (from 0 for j = 0) to breakpoint
    j, and zeros pad the values.  It is sampled at the entries of
    `times` whose `case` is i, which must ascend.  Its profile splits
    [0, t_end[i]] at the breakpoints; on each segment the charge
    k = profile * P is constant and the trajectory is advanced in closed
    form, its end state starting the next segment.  A sample time on a
    breakpoint belongs to the earlier segment.  The first turning point
    (ydot = 0 crossing upward) is the pericenter of the first segment
    that starts inbound and reaches it.

    Round j advances segment j of every case that has one: its orbit
    once per case, then its samples, each in a single elementwise pass,
    so each case comes out bit for bit as when solved alone.  An
    OracleError carries as `case` the lowest index it failed on.
    """
    r0, w0, ell, P, t_end = (np.asarray(v, dtype=float) for v in (r0, w0, ell, P, t_end))
    edges, values = np.asarray(edges, dtype=float), np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    case = np.asarray(case, dtype=np.intp)
    # each check is written so that NaN fails it
    if not np.all((r0 > 0) & (ell > 0)):
        raise ValueError("oracle requires r0 > 0 and ell > 0")
    if not np.all(P >= 0):
        raise ValueError("P must be nonnegative")
    if not np.all(t_end > 0):
        raise ValueError("t_end must be positive")
    if not np.all((times >= 0) & (times <= t_end[case])):
        raise ValueError("t_eval must lie inside [0, t_end]")
    ascending = (edges[:, 1:] > edges[:, :-1]) | (edges[:, 1:] == np.inf)
    if not (np.all(edges[:, :1] > 0) and np.all(ascending)):
        raise ValueError("breakpoints must be positive and ascending")
    if not np.all((values >= 0) & (values <= 1)):
        raise ValueError("profile values must lie in [0, 1]")

    # each row's cuts inside (0, t_end) lead
    n = r0.size
    interior = np.where(edges < t_end[:, None], edges, np.inf)
    n_segments = 1 + np.count_nonzero(interior < np.inf, axis=1)
    cuts = np.column_stack((np.zeros(n), interior, np.full(n, np.inf)))
    rows = np.arange(n)
    cuts[rows, n_segments] = t_end
    # each sample's segment: the cuts below it, counted a column at a time
    segment = np.zeros(times.size, dtype=np.intp)
    for column in interior.T:
        segment += column[case] < times

    y = np.empty_like(times)
    ydot = np.empty_like(times)
    turning_time = np.full(n, np.nan)
    y_turn = np.full(n, np.nan)
    y_now, w_now = r0.copy(), w0.copy()
    k = np.zeros(n)
    # each live case's segment orbit, by rows: a free orbit's y0^2 in row
    # 0 or a Kepler orbit's (a, b, c, tau0) in rows 0-3, then its
    # pericenter's time and radius
    orbit = np.empty((6, n))
    for j in range(int(n_segments.max())):
        live = rows[n_segments > j]
        ta, tb = cuts[:, j], cuts[:, j + 1]
        # a case's breakpoints below its t_end are the first of its edges,
        # so its segment j runs under its value j
        k[live] = values[live, j] * P[live]
        free = k[live] == 0.0
        on = live[free]
        orbit[0, on], orbit[4, on], orbit[5, on] = _free_orbit(y_now[on], w_now[on], ell[on])
        on = live[~free]
        orbit[:, on] = _kepler_orbit(y_now[on], w_now[on], ell[on], k[on])

        samples = np.flatnonzero(segment == j)
        # each live case's segment end rides along after the samples
        owner = np.concatenate((case[samples], live))
        dt = np.concatenate((times[samples], tb[live])) - ta[owner]
        y_at, yd_at = np.empty_like(dt), np.empty_like(dt)
        free = k[owner] == 0.0
        at = np.flatnonzero(free)
        o = owner[at]
        y_at[at], yd_at[at] = _free_samples(y_now[o], w_now[o], ell[o], orbit[0, o], dt[at])
        at = np.flatnonzero(~free)
        o = owner[at]
        y_at[at], yd_at[at], stuck = _kepler_samples(*orbit[:4, o], dt[at])
        if np.any(stuck):
            i = int(np.min(o[stuck]))
            raise OracleError(
                f"Newton solve of the Kepler time equation did not converge in "
                f"{ORACLE_NEWTON_MAX_ITER} steps at {np.count_nonzero(o[stuck] == i)} samples",
                case=i,
            )
        broken = ~(np.isfinite(y_at) & np.isfinite(yd_at))
        if np.any(broken):
            i = int(np.min(owner[broken]))
            raise OracleError(f"closed form is not finite on [{ta[i]}, {tb[i]}]", case=i)

        m = samples.size
        y[samples], ydot[samples] = y_at[:m], yd_at[:m]
        y_now[live], w_now[live] = y_at[m:], yd_at[m:]
        first = live[np.isnan(turning_time[live]) & (orbit[4, live] <= dt[m:])]
        turning_time[first] = ta[first] + orbit[4, first]
        y_turn[first] = orbit[5, first]

    return OracleBatch(
        times=times, y=y, ydot=ydot, case=case, turning_time=turning_time, y_turn=y_turn
    )


# The segment formulas square a per-segment constant x with
# np.float_power(x, 2.0), which is libm's pow as Python's x**2 of a float
# is; x * x and an array's x**2 differ from it in the last bit for some x.
# So a segment solved from arrays matches one solved from Python floats.
# Each segment is split in two elementwise parts: its orbit, once per
# case, and its samples, which take the orbit's constants gathered per
# sample.


def _free_orbit(y0, w0, ell):
    """The force-free orbit through (y0, w0), elementwise over broadcast
    arrays.

    Returns (y0_sq, t_turn, y_turn): the constant y0^2 that _free_samples
    takes, and the pericenter's time and radius, t_turn NaN where it does
    not lie ahead (w0 >= 0).
    """
    y0_sq = np.float_power(y0, 2.0)
    t_turn = -y0 * w0 / (np.float_power(w0, 2.0) + ell / y0_sq)
    y_turn = np.sqrt(np.float_power(y0 + w0 * t_turn, 2.0) + ell * (t_turn * t_turn) / y0_sq)
    return y0_sq, np.where(w0 < 0.0, t_turn, np.nan), y_turn


def _free_samples(y0, w0, ell, y0_sq, t):
    """(y, ydot) of the force-free orbit through (y0, w0), whose y0^2 is
    y0_sq, at the times t after the segment start; the radius is
    free_motion_radius_squared's."""
    u = y0 + w0 * t
    y = np.sqrt(u**2 + ell * t**2 / y0_sq)
    return y, (u * w0 + ell * t / y0_sq) / y


def _kepler_orbit(y0, w0, ell, k):
    """The repulsive Kepler orbit through (y0, w0) under the constant
    charge k > 0, elementwise over broadcast arrays.

    With E = w0^2/2 + ell/(2 y0^2) + k/y0, a = k/(2E),
    e = sqrt(1 + 2 E ell/k^2) and n = sqrt(a^3/k), the orbit is
    y = a(e cosh F + 1) at the time tau(F) = n(e sinh F + F) from
    pericenter.  It is evaluated through b = a e = sqrt(a^2 + ell/(2E))
    and c = n/a = 1/sqrt(2E), which stay finite as k -> 0 where e does
    not: y = b cosh F + a, tau = c(b sinh F + a F).  The start lies at
    tau0 = tau(F0).

    Returns (a, b, c, tau0, t_turn, y_turn) with t_turn and y_turn as
    _free_orbit returns them.
    """
    energy = 0.5 * np.float_power(w0, 2.0) + ell / (2.0 * np.float_power(y0, 2.0)) + k / y0
    a = k / (2.0 * energy)
    b = np.sqrt(np.float_power(a, 2.0) + ell / (2.0 * energy))
    c = 1.0 / np.sqrt(2.0 * energy)
    f0 = np.arcsinh(c * w0 * y0 / b)
    tau0 = c * (b * np.sinh(f0) + a * f0)
    return a, b, c, tau0, np.where(f0 < 0.0, -tau0, np.nan), a + b


def _kepler_samples(a, b, c, tau0, t):
    """(y, ydot, stuck) of the _kepler_orbit (a, b, c, tau0) at the times
    t after the segment start.

    tau(F) = tau0 + t is solved for every sample at once by Newton from
    asinh(target/(b c)), which lies on the outer side of the root of a
    function that is convex for F > 0 and concave for F < 0, so every
    iterate moves monotonically toward the root.  A sample counts as
    converged once its Newton step stops pointing that way or no longer
    changes it, and keeps that iterate from then on, so its iterates do
    not depend on the other samples.  Each step is computed in place.
    stuck marks the samples that still moved after ORACLE_NEWTON_MAX_ITER
    steps.
    """
    target = tau0 + t
    inward = np.sign(target)
    f = np.arcsinh(target / (b * c))
    f_next, step, den = np.empty_like(f), np.empty_like(f), np.empty_like(f)
    moving = np.ones(f.shape, dtype=bool)
    ok = np.empty(f.shape, dtype=bool)
    for _ in range(ORACLE_NEWTON_MAX_ITER):
        # step = (c (b sinh F + a F) - target) / (c (b cosh F + a))
        np.sinh(f, out=step)
        step *= b
        step += np.multiply(a, f, out=den)
        step *= c
        step -= target
        np.cosh(f, out=den)
        den *= b
        den += a
        den *= c
        step /= den
        np.subtract(f, step, out=f_next)
        step *= inward
        moving &= np.greater(step, 0.0, out=ok)
        moving &= np.not_equal(f_next, f, out=ok)
        if not moving.any():
            break
        np.copyto(f, f_next, where=moving)

    y = b * np.cosh(f) + a
    return y, b * np.sinh(f) / (c * y), moving
