"""Randomized property suite pitting the bound formulas against the
exact reference trajectory.

Each case draws hypothesis-satisfying parameters (L > 0, P >= 0,
y0 > 0, y1 < 0) and a force profile with values in [0, 1], solves
y'' = L/y^3 + profile(t) P/y^2 with integrate_oracle (exact per
constant-force segment), sampled at N_SAMPLES times per horizon, and
checks three claims: the radial velocity stays negative up to the
predicted turning-time lower bound, the radius at the true turning
point does not exceed the predicted minimum-radius bound, and the
parabolic envelope dominates y(t)^2 up to the turning time.  The last
two hold up to BOUND_TOL.

The draws are seeded and the profiles include the two extremes
(identically 0 and identically 1) plus random piecewise-constant
profiles, which span the differential-inequality hypothesis class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bounds import infall_envelope, turning_point_bound
from .dynamics import OracleError, PiecewiseConstantProfile, integrate_oracle

# Absolute slack of the radius and envelope comparisons.
BOUND_TOL = 1e-9
# Evenly spaced sample times per integration horizon.
N_SAMPLES = 129


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


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _random_profile(rng: np.random.Generator, horizon: float) -> PiecewiseConstantProfile:
    n_cuts = int(rng.integers(1, 5))
    edges = np.sort(rng.uniform(0.0, horizon, size=n_cuts))
    edges = edges[edges > 0]
    values = rng.uniform(0.0, 1.0, size=edges.size + 1)
    return PiecewiseConstantProfile(edges=edges, values=values)


def draw_cases(n_cases: int, seed: int = 1234) -> list:
    """Seeded hypothesis-satisfying draws; cases 0 and 1 use the extreme
    profiles, the rest random piecewise-constant ones."""
    if n_cases < 1:
        raise ValueError("need at least one case")
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        y0 = _log_uniform(rng, 0.3, 3.0)
        y1 = -_log_uniform(rng, 0.3, 3.0)
        # scale L and P against the kinetic term y0^2 y1^2 so pericenter
        # depths range from grazing to ~100x below the start radius
        L = _log_uniform(rng, 1e-4, 1.0) * y0**2 * y1**2
        P = 0.0 if rng.uniform() < 0.1 else _log_uniform(rng, 1e-3, 3.0) * y0 * y1**2
        horizon = 3.0 * y0 / abs(y1)
        if i == 0:
            profile: Union[float, PiecewiseConstantProfile] = 0.0
            label = "profile-zero"
        elif i == 1:
            profile = 1.0
            label = "profile-one"
        else:
            profile = _random_profile(rng, horizon)
            label = f"case-{i}"
        cases.append(OracleCase(L=L, P=P, y0=y0, y1=y1, profile=profile, label=label))
    return cases


def _integrate_until_turning(case: OracleCase, t_extra: np.ndarray):
    t_end = 3.0 * case.y0 / abs(case.y1)
    for _ in range(6):
        t_eval = np.unique(
            np.concatenate((np.linspace(0.0, t_end, N_SAMPLES), t_extra[t_extra <= t_end]))
        )
        traj = integrate_oracle(
            r0=case.y0,
            w0=case.y1,
            ell=case.L,
            P=case.P,
            profile=case.profile,
            t_end=t_end,
            t_eval=t_eval,
        )
        if traj.turning_time is not None:
            return traj
        t_end *= 4.0
    raise OracleError(f"no turning point found out to t={t_end} for {case}")


def check_case(case: OracleCase, index: int = 0) -> CaseOutcome:
    bound = turning_point_bound(case.L, case.P, case.y0, case.y1)
    traj = _integrate_until_turning(case, np.array([bound.t0_lower]))

    pre_turn = traj.times <= bound.t0_lower
    ydot_ok = bool(np.all(traj.ydot[pre_turn] < 0.0))

    y_turn_ok = bool(traj.y_turn <= bound.y_star + BOUND_TOL)

    mask = traj.times <= traj.turning_time
    env = infall_envelope(case.L, case.P, case.y0, case.y1, traj.times[mask])
    gap = env - traj.y[mask] ** 2
    envelope_ok = bool(np.all(gap >= -BOUND_TOL))

    detail = ""
    if not ydot_ok:
        worst = traj.times[pre_turn][np.argmax(traj.ydot[pre_turn])]
        detail = f"ydot >= 0 at t={worst!r} before t0_lower={bound.t0_lower!r}"
    elif not y_turn_ok:
        detail = f"y_turn={traj.y_turn!r} exceeds y_star={bound.y_star!r}"
    elif not envelope_ok:
        detail = f"envelope violated by {float(-np.min(gap)):.3e}"
    return CaseOutcome(
        index=index,
        label=case.label,
        t0_lower=bound.t0_lower,
        y_star=bound.y_star,
        turning_time=float(traj.turning_time),
        y_turn=float(traj.y_turn),
        ydot_ok=ydot_ok,
        y_turn_ok=y_turn_ok,
        envelope_ok=envelope_ok,
        detail=detail,
    )


def run_oracle_suite(n_cases: int = 1000, seed: int = 1234) -> SuiteResult:
    start = time.perf_counter()
    outcomes = [check_case(case, index=i) for i, case in enumerate(draw_cases(n_cases, seed))]
    return SuiteResult(
        outcomes=tuple(outcomes),
        n_cases=n_cases,
        elapsed_seconds=time.perf_counter() - start,
    )
