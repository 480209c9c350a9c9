"""Closed-form bounds on infalling trajectories and sup norms.

Three facts about any y(t) with y(0) = y0 > 0, y'(0) = y1 < 0 and
0 <= y'' - L y^-3 <= P y^-2 (L > 0, P >= 0):

* turning_point_bound: y has a unique turning time T0, the radius there
  is at most y_star = y0 sqrt((L + P y0) / (y0^2 y1^2 + L + P y0)), and
  T0 >= (y0 - y_star)/|y1|.
* infall_envelope: up to the turning time,
  y(t)^2 <= (y0 + y1 t)^2 + (L/y0^2 + P/y0) t^2; the parabola's minimum
  equals y_star^2, and for P = 0 the inequality is an equality.
* confinement_lower_bounds: if all mass M sits inside radius B, then
  the density sup is at least 3M/(4 pi B^3) and the field sup at least
  M/B^2 (uniform-ball saturation).

These are implemented as total formulas with hypothesis checks at the
boundary so they can serve both as predictions and as test oracles.
The first two take scalars or broadcast arrays.  They square their
parameters with np.float_power(x, 2.0), libm's pow as Python's x**2 of
a float is, so an array entry's bound equals the bound of that entry
alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TurningBound:
    """Upper bound on the minimum radius and lower bound on its time."""

    y_star: float
    t0_lower: float


@dataclass(frozen=True)
class SupNormBound:
    """Density/field sup-norm lower bounds from mass confinement."""

    rho_lower: float
    e_lower: float


def _first_breaking(value, holds):
    # value itself when scalar, else its first entry where the rule fails
    holds = np.asarray(holds)
    return value if holds.ndim == 0 else np.asarray(value)[~holds][0]


def _check_hypotheses(L, P, y0, y1):
    # each test is written so that NaN fails it
    for value, holds, need in (
        (L, np.greater(L, 0), "L > 0 (shells without angular momentum are excluded)"),
        (P, np.greater_equal(P, 0), "P >= 0"),
        (y0, np.greater(y0, 0), "y0 > 0"),
        (y1, np.less(y1, 0), "y1 < 0 (inward start)"),
    ):
        if not np.all(holds):
            raise ValueError(f"need {need}, got {_first_breaking(value, holds)}")


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def turning_point_bound(L, P, y0, y1) -> TurningBound:
    """Minimum-radius bound y_star and turning-time lower bound,
    elementwise over broadcast arrays (floats for scalar arguments).

    y_star < y0 always, and y_star -> 0 as y1 -> -infinity: a faster
    inward start penetrates deeper before the centrifugal and field
    terms turn it around.
    """
    _check_hypotheses(L, P, y0, y1)
    q = L + P * y0
    y_star = y0 * np.sqrt(q / (np.float_power(y0, 2.0) * np.float_power(y1, 2.0) + q))
    return TurningBound(
        y_star=_scalar_or_array(y_star), t0_lower=_scalar_or_array((y0 - y_star) / np.abs(y1))
    )


def infall_envelope(L, P, y0, y1, t):
    """Parabolic upper bound on y(t)^2, valid up to the turning time;
    elementwise over broadcast arrays."""
    _check_hypotheses(L, P, y0, y1)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("envelope times must be nonnegative")
    out = (y0 + y1 * t) ** 2 + (L / np.float_power(y0, 2.0) + P / y0) * t**2
    return _scalar_or_array(out)


def confinement_lower_bounds(M: float, B: float) -> SupNormBound:
    """Sup-norm lower bounds when mass M is confined inside radius B.

    Both are attained by the uniform ball / single-shell configuration,
    so the field solver's exact sup saturates e_lower bit for bit.
    """
    if not M > 0:
        raise ValueError(f"need M > 0, got {M}")
    if not B > 0:
        raise ValueError(f"need B > 0, got {B}")
    return SupNormBound(
        rho_lower=3.0 * M / (4.0 * np.pi * B**3),
        # B * B, not B**2: libm pow is off by an ulp for rare B, which
        # would break the bit-level tie to the field solver's squaring
        e_lower=M / (B * B),
    )
