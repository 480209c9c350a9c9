"""Randomized property suite pitting the bound formulas against the
exact reference trajectory.

Each case draws hypothesis-satisfying parameters (L > 0, P >= 0,
y0 > 0, y1 < 0) and a force profile with values in [0, 1], solves
y'' = L/y^3 + profile(t) P/y^2 exactly per constant-force segment,
sampled at N_SAMPLES times per horizon, and checks three claims: the
radial velocity stays negative up to the predicted turning-time lower
bound, the radius at the true turning point does not exceed the
predicted minimum-radius bound, and the parabolic envelope dominates
y(t)^2 up to the turning time.  The last two hold up to BOUND_TOL.

The draws are seeded and the profiles include the two extremes
(identically 0 and identically 1) plus random piecewise-constant
profiles, which span the differential-inequality hypothesis class.

The cases stay arrays from the draw to the solve.  draw_cases makes
only the generator's raw calls case by case, in the order of one
scalar draw after another, and then computes exp, the scalings, the
horizons and the sorted breakpoints in array passes that give the
scalar draws' bits; it returns OracleCases, a sequence of OracleCase
backed by those arrays, with each profile a row of breakpoints padded
with inf and a row of values padded with zeros.

The suite works BATCH_CASES cases at a time: their bounds, sample times,
trajectories (integrate_oracle_batch, which takes the padded profile
rows, computes each segment's orbit constants once per case and only
the Newton solve and the trajectory per sample) and checks are array
passes, and a horizon that ends before a case turns is widened 4 times
for that case alone, up to N_HORIZONS horizons.  check_cases turns
OracleCase objects into OracleCases once; check_case is the one-case
call.  Each outcome equals the one the case gets when checked alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Union

import numpy as np

from .bounds import TurningBound, infall_envelope, turning_point_bound
from .dynamics import (
    OracleBatch,
    OracleError,
    PiecewiseConstantProfile,
    integrate_oracle,  # noqa: F401  bench/tracing.py wraps it under this module
    integrate_oracle_batch,
    profile_rows,
)

# Absolute slack of the radius and envelope comparisons.
BOUND_TOL = 1e-9
# Evenly spaced sample times per integration horizon.
N_SAMPLES = 129
# Horizons tried per case, each 4 times the last, before it counts as
# never turning.
N_HORIZONS = 6
# Cases solved together in one array pass; bounds the pass's memory.
# run_oracle_suite(200), 2-core Xeon, medians of 60 interleaved passes
# at 25, 50, 100 and 200 per pass: 19.4, 14.8, 12.4 and 12.3 ms; the
# benchmark's peak RSS 40.9, 41.0, 41.6 and 42.8 MiB; check_cases'
# traced peak 0.39, 0.66, 1.25 and 2.40 MiB.  100 takes nearly all of
# the time 200 saves for half its memory.
BATCH_CASES = 100


@dataclass(frozen=True)
class OracleCase:
    L: float
    P: float
    y0: float
    y1: float
    profile: Union[float, PiecewiseConstantProfile]
    label: str


@dataclass(frozen=True)
class CaseOutcome:
    index: int
    label: str
    t0_lower: float
    y_star: float
    turning_time: float
    y_turn: float
    ydot_ok: bool
    y_turn_ok: bool
    envelope_ok: bool
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.ydot_ok and self.y_turn_ok and self.envelope_ok


@dataclass(frozen=True)
class SuiteResult:
    outcomes: tuple
    n_cases: int
    elapsed_seconds: float

    @property
    def violations(self):
        return [o for o in self.outcomes if not o.passed]

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        worst_turn = max(o.y_turn - o.y_star for o in self.outcomes)
        return (
            f"{self.n_cases} cases, {len(self.violations)} violations, "
            f"max (y_turn - y_star) = {worst_turn:.3e}, "
            f"{self.elapsed_seconds:.1f} s"
        )


class OracleCases(Sequence):
    """OracleCase objects held as arrays, one entry or row per case: L,
    P, y0 and y1, the profiles as dynamics.profile_rows pads them, and
    the labels.  Indexing gives an OracleCase, whose profile is a float
    when its row has no breakpoint; slicing gives an OracleCases."""

    def __init__(self, L, P, y0, y1, edges, values, labels):
        self.L, self.P, self.y0, self.y1 = L, P, y0, y1
        self.edges, self.values, self.labels = edges, values, labels

    @classmethod
    def from_cases(cls, cases: Sequence[OracleCase]) -> "OracleCases":
        L, P, y0, y1 = (
            np.array([getattr(c, name) for c in cases], dtype=float) for name in ("L", "P", "y0", "y1")
        )
        edges, values = profile_rows([c.profile for c in cases])
        return cls(L, P, y0, y1, edges, values, [c.label for c in cases])

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OracleCases(*(column[i] for column in (
                self.L, self.P, self.y0, self.y1, self.edges, self.values, self.labels
            )))
        size = int(np.count_nonzero(self.edges[i] < np.inf))
        profile = float(self.values[i, 0]) if size == 0 else PiecewiseConstantProfile(
            edges=self.edges[i, :size], values=self.values[i, : size + 1]
        )
        L, P, y0, y1 = (float(column[i]) for column in (self.L, self.P, self.y0, self.y1))
        return OracleCase(L=L, P=P, y0=y0, y1=y1, profile=profile, label=self.labels[i])


# (log lo, log hi) of the log-uniform draws: radii, L and P scales.
LOG_RANGE_Y = (np.log(0.3), np.log(3.0))
LOG_RANGE_L = (np.log(1e-4), np.log(1.0))
LOG_RANGE_P = (np.log(1e-3), np.log(3.0))
# Most breakpoints a random profile draws.
MAX_CUTS = 4


def _exp_uniform(log_range: tuple, u: np.ndarray) -> np.ndarray:
    """exp of Generator.uniform(*log_range) for the raw uniforms u, as
    uniform computes it: lo + (hi - lo) u."""
    lo, hi = log_range
    return np.exp(lo + (hi - lo) * u)


def draw_cases(n_cases: int, seed: int = 1234) -> OracleCases:
    """Seeded hypothesis-satisfying draws; cases 0 and 1 use the extreme
    profiles, the rest random piecewise-constant ones.

    Each case takes its uniforms from the generator in turn: y0, y1, L,
    a coin that sets P = 0 below 0.1, P, then for a random profile its
    number of breakpoints (1 to MAX_CUTS), their times as fractions of
    the horizon 3 y0/|y1| (a zero one is dropped) and one value per
    segment.  The case's transforms are then array passes.
    """
    if n_cases < 1:
        raise ValueError("need at least one case")
    rng = np.random.default_rng(seed)
    # per row, the uniforms of y0, y1, L, the P coin and P; P's stays 0
    # when the coin sets P = 0, which draws none
    head = np.zeros((n_cases, 5))
    cut = np.full((n_cases, MAX_CUTS), np.inf)
    values = np.zeros((n_cases, MAX_CUTS + 1))
    values[1:2, 0] = 1.0  # the extreme profiles: 0 on row 0, 1 on row 1 if drawn
    for i in range(n_cases):
        row = head[i]
        rng.random(out=row[:4])
        if row[3] >= 0.1:
            row[4] = rng.random()
        if i >= 2:
            # one scalar integers call per case: its 32-bit draws share
            # the generator's buffered half-word
            fractions = cut[i, : rng.integers(1, MAX_CUTS + 1)]
            rng.random(out=fractions)
            rng.random(out=values[i, : np.count_nonzero(fractions) + 1])
    cut[cut == 0.0] = np.inf  # a zero fraction makes no breakpoint

    y0 = _exp_uniform(LOG_RANGE_Y, head[:, 0])
    y1 = -_exp_uniform(LOG_RANGE_Y, head[:, 1])
    # scale L and P against the kinetic term y0^2 y1^2 so pericenter
    # depths range from grazing to ~100x below the start radius; squares
    # by libm's pow, as a float's x**2 is
    y1_sq = np.float_power(y1, 2.0)
    L = _exp_uniform(LOG_RANGE_L, head[:, 2]) * np.float_power(y0, 2.0) * y1_sq
    P = np.where(head[:, 3] < 0.1, 0.0, _exp_uniform(LOG_RANGE_P, head[:, 4]) * y0 * y1_sq)
    horizon = 3.0 * y0 / np.abs(y1)
    edges = np.sort(horizon[:, None] * cut, axis=1)
    labels = ["profile-zero", "profile-one", *(f"case-{i}" for i in range(2, n_cases))]
    return OracleCases(L, P, y0, y1, edges, values, labels[:n_cases])


def _sample_times(t_end: np.ndarray, t_extra: np.ndarray):
    """N_SAMPLES even times on [0, t_end[i]] for each case i, joined by
    t_extra[i] when it lies inside and is not one of them already, as
    np.unique would join it; returns (times, case), flat."""
    joined = np.empty((t_end.size, N_SAMPLES + 1))
    joined[:, :N_SAMPLES] = np.linspace(0.0, t_end, N_SAMPLES, axis=1)
    joined[:, N_SAMPLES] = np.where(t_extra <= t_end, t_extra, np.nan)
    joined.sort(axis=1)  # NaN sorts last
    keep = ~np.isnan(joined)
    keep[:, 1:] &= joined[:, 1:] != joined[:, :-1]
    return joined[keep], np.repeat(np.arange(t_end.size), np.count_nonzero(keep, axis=1))


def _checks(traj: OracleBatch, L, P, y0, y1, bound: TurningBound):
    """The three claims for each case of the batch, whose parameters and
    bounds are the arrays given: (ydot_ok, y_turn_ok, envelope_ok,
    details), the detail of a case that passes being empty."""
    case, t, y, ydot = traj.case, traj.times, traj.y, traj.ydot
    n = L.size

    def nowhere(fails, owner):
        return np.bincount(owner[fails], minlength=n) == 0

    pre_turn = t <= bound.t0_lower[case]
    ydot_ok = nowhere(pre_turn & ~(ydot < 0.0), case)
    y_turn_ok = traj.y_turn <= bound.y_star + BOUND_TOL
    path = np.flatnonzero(t <= traj.turning_time[case])
    owner = case[path]
    env = infall_envelope(L[owner], P[owner], y0[owner], y1[owner], t[path])
    gap = env - y[path] ** 2
    envelope_ok = nowhere(~(gap >= -BOUND_TOL), owner)

    details = [""] * n
    for i in np.flatnonzero(~(ydot_ok & y_turn_ok & envelope_ok)):
        if not ydot_ok[i]:
            mine = pre_turn & (case == i)
            worst = t[mine][np.argmax(ydot[mine])]
            details[i] = f"ydot >= 0 at t={worst!r} before t0_lower={float(bound.t0_lower[i])!r}"
        elif not y_turn_ok[i]:
            details[i] = (
                f"y_turn={float(traj.y_turn[i])!r} exceeds y_star={float(bound.y_star[i])!r}"
            )
        else:
            details[i] = f"envelope violated by {float(-np.min(gap[owner == i])):.3e}"
    return ydot_ok, y_turn_ok, envelope_ok, details


def _check_batch(cases: OracleCases, first_index: int) -> list:
    """CaseOutcomes of `cases`, indexed from first_index, solved together.

    Each case is solved on [0, 3 y0/|y1|] first; the cases that have not
    turned are solved again on a horizon 4 times longer, N_HORIZONS
    horizons in all, before OracleError gives up on the first of them.
    """
    L, P, y0, y1 = cases.L, cases.P, cases.y0, cases.y1
    bound = turning_point_bound(L, P, y0, y1)
    t_end = 3.0 * y0 / np.abs(y1)
    outcomes = [None] * len(cases)
    pending = np.arange(len(cases))
    for _ in range(N_HORIZONS):
        times, at = _sample_times(t_end[pending], bound.t0_lower[pending])
        try:
            traj = integrate_oracle_batch(
                y0[pending], y1[pending], L[pending], P[pending],
                cases.edges[pending], cases.values[pending], t_end[pending], times, at,
            )
        except OracleError as exc:
            if exc.case is None:
                raise
            raise OracleError(f"{cases.labels[pending[exc.case]]}: {exc}") from exc
        sub = TurningBound(y_star=bound.y_star[pending], t0_lower=bound.t0_lower[pending])
        flags = _checks(traj, L[pending], P[pending], y0[pending], y1[pending], sub)
        # Python floats and bools, one conversion per column
        t0_lower, y_star, turning_time, y_turn, ydot_ok, y_turn_ok, envelope_ok = (
            column.tolist() for column in (
                sub.t0_lower, sub.y_star, traj.turning_time, traj.y_turn, *flags[:3]
            )
        )
        for j in np.flatnonzero(~np.isnan(traj.turning_time)).tolist():
            i = int(pending[j])
            outcomes[i] = CaseOutcome(
                index=first_index + i,
                label=cases.labels[i],
                t0_lower=t0_lower[j],
                y_star=y_star[j],
                turning_time=turning_time[j],
                y_turn=y_turn[j],
                ydot_ok=ydot_ok[j],
                y_turn_ok=y_turn_ok[j],
                envelope_ok=envelope_ok[j],
                detail=flags[3][j],
            )
        pending = pending[np.isnan(traj.turning_time)]
        if not pending.size:
            return outcomes
        t_end[pending] *= 4.0
    i = pending[0]
    raise OracleError(f"no turning point found out to t={float(t_end[i])} for {cases[i]}")


def check_cases(cases: Sequence[OracleCase]) -> list:
    """CaseOutcomes of `cases`, indexed from 0, solved BATCH_CASES at a time."""
    if not isinstance(cases, OracleCases):
        cases = OracleCases.from_cases(cases)
    outcomes = []
    for start in range(0, len(cases), BATCH_CASES):
        outcomes += _check_batch(cases[start : start + BATCH_CASES], start)
    return outcomes


def check_case(case: OracleCase, index: int = 0) -> CaseOutcome:
    """The outcome of one case, as check_cases gives it."""
    return _check_batch(OracleCases.from_cases([case]), index)[0]


def run_oracle_suite(n_cases: int = 1000, seed: int = 1234) -> SuiteResult:
    start = time.perf_counter()
    outcomes = check_cases(draw_cases(n_cases, seed))
    return SuiteResult(
        outcomes=tuple(outcomes),
        n_cases=n_cases,
        elapsed_seconds=time.perf_counter() - start,
    )
