"""Construction and sampling of thin-shell initial data.

Two families are supported, both describing a thin spherical shell of
nearly radially infalling particles centered at radius a0 with inward
velocity scale a1 < 0 and thinness parameter eps:

* the small-density family: charge density bounded above by the
  homogeneous-ball value 3/(4 pi a0^3), with equality on the inner half
  of the shell;
* the fixed-mass family: same support geometry, but normalized to a
  prescribed total mass instead of the density bound.

Both families use one construction, f0 = H_eps(|a1 x - a0 v|^2) phi(|x|),
which in reduced coordinates reads
H_eps((a1 r - a0 w)^2 + a0^2 l / r^2) phi(r).  The velocity profile
H_eps(s) = H(s/eps^2)/eps^3, with H(s) = c exp(-1/(1-s)) on [0, 1) and 0
for s >= 1, and the radial cutoff phi, a smooth step from 0 at
a0 - delta_r to 1 on [a0 - delta_r/2, a0 + delta_r/2] mirrored about a0,
are fixed functions of the spec's eps, a0 and delta_r, so a ClassSpec
and a scale are the whole description of the data.  c is fixed by
BUMP_INTEGRAL so H_eps(|u|^2) integrates to 3/(4 pi) over 3-space for
every eps.

evaluate_reduced at points and sample_ensemble on a midpoint grid in
(r, w, ell) evaluate f0 in two passes through one support test,
_bump_argument: the profile's argument t = s/eps^2 everywhere, then
H_eps and phi only where t < 1, the support of H_eps (about a third of
the grid's box).  So a sampled cell's value is evaluate_reduced's there,
bit for bit.

The velocity shift integrates out of f0, so the density and the mass are
closed forms: rho0(r) = scale * phi(r) * 3/(4 pi a0^3), the homogeneous-
ball value on the plateau of phi, and l1_norm follows from phi's moments.
design.check_membership checks a sample against its class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .phase_space import REDUCED_MEASURE, Ensemble

# Value of the 3-space integral of H(|u|^2); fixes the homogeneous-ball
# density 3/(4 pi a0^3) after the velocity shift by (a1/a0) x.
PROFILE_NORMALIZATION = 3.0 / (4.0 * np.pi)
# int_0^1 exp(-1/(1-u^2)) u^2 du, as adaptive quadrature returns it; the
# tests recompute it.  Fixes the bump profile's normalization constant.
BUMP_INTEGRAL = 0.03510073837648729
# int_0^1 rise(t) (1 - t/2)^2 dt for the smooth step rise of the cutoff, as
# adaptive quadrature at relative tolerance 1e-13 returns it; the tests
# recompute it.  Fixes the second moment of phi about a0 in l1_norm.
RISE_MOMENT = 0.20801118298082247


class EmptyEnsembleError(ValueError):
    """Raised when sampling places no shell inside the support."""


@dataclass(frozen=True)
class ClassSpec:
    """Parameters of an initial-data family.

    target_mass present selects the fixed-mass family; absent selects the
    small-density family.  delta_r and delta_w are derived: delta_r = eps^3
    and delta_w = (|a1| delta_r + eps) / a0, the half-widths of the radial
    shell and of the velocity window that the support conditions imply.
    A shell too thin for double precision to separate the cutoff
    breakpoints a0 - delta_r < a0 - delta_r/2 < a0 < a0 + delta_r/2 <
    a0 + delta_r is refused, so no certificate or run is made for it.
    """

    a0: float
    a1: float
    eps: float
    target_mass: Optional[float] = None
    delta_r: float = field(init=False)
    delta_w: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.a0 < np.inf:
            raise ValueError(f"a0 must be positive and finite, got {self.a0}")
        if not -np.inf < self.a1 < 0:
            raise ValueError(f"a1 must be negative and finite, got {self.a1}")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.target_mass is not None and not 0 < self.target_mass < np.inf:
            raise ValueError(f"target_mass must be positive and finite, got {self.target_mass}")
        object.__setattr__(self, "delta_r", self.eps**3)
        object.__setattr__(
            self, "delta_w", (abs(self.a1) * self.delta_r + self.eps) / self.a0
        )
        a0, delta_r = self.a0, self.delta_r
        if not a0 - delta_r < a0 - 0.5 * delta_r < a0 < a0 + 0.5 * delta_r < a0 + delta_r:
            raise ValueError(
                f"radial shell half-width delta_r = {delta_r!r} does not resolve at "
                f"a0 = {a0!r} in double precision"
            )

    @property
    def is_fixed_mass(self) -> bool:
        return self.target_mass is not None


def _bump_inside(t: np.ndarray, eps: float) -> np.ndarray:
    # H_eps at t = s/eps^2 < 1, i.e. c exp(-1/(1-t)) / eps^3, unchecked.
    c = PROFILE_NORMALIZATION / (4.0 * np.pi * BUMP_INTEGRAL)
    return c * np.exp(-1.0 / (1.0 - t)) * (1.0 / (eps * eps * eps))


def _smooth_rise(t: np.ndarray) -> np.ndarray:
    # C-infinity step: 0 for t <= 0, 1 for t >= 1.
    t = np.asarray(t, dtype=float)
    g_up = np.zeros_like(t)
    g_dn = np.zeros_like(t)
    pos = t > 0.0
    g_up[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1.0
    g_dn[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return g_up / (g_up + g_dn)


def _cutoff(r: np.ndarray, a0: float, delta_r: float) -> np.ndarray:
    # phi(r) on a float array, unchecked: 0 outside (a0 - delta_r, a0 + delta_r)
    # and exactly 1 on [a0 - delta_r/2, a0 + delta_r/2].
    half = 0.5 * delta_r
    left = _smooth_rise((r - (a0 - delta_r)) / half)
    right = _smooth_rise(((a0 + delta_r) - r) / half)
    return np.where(r < a0, left, right)


@dataclass(frozen=True)
class DerivedBounds:
    """Total-mass bracket implied by the support conditions.

    For the small-density family the mass sandwich [3 eps^3/a0,
    8 eps^3/a0] brackets the total mass; for the fixed-mass family both
    ends equal the prescribed mass.
    """

    mass_lower: float
    mass_upper: float


def derived_bounds(spec: ClassSpec) -> DerivedBounds:
    if spec.is_fixed_mass:
        return DerivedBounds(mass_lower=spec.target_mass, mass_upper=spec.target_mass)
    return DerivedBounds(
        mass_lower=3.0 * spec.eps**3 / spec.a0, mass_upper=8.0 * spec.eps**3 / spec.a0
    )


def profile_argument(spec: ClassSpec, r, w, ell):
    """s = |a1 x - a0 v|^2 in reduced coordinates, the argument of H_eps."""
    return (spec.a1 * r - spec.a0 * w) ** 2 + spec.a0**2 * ell / r**2


def _bump_argument(spec: ClassSpec, r, w, ell):
    """(t, inside): t = s/eps^2, scaled in place so that no second array
    is made, and H_eps's support t < 1, where _bump_inside applies."""
    t = profile_argument(spec, r, w, ell)
    t *= 1.0 / (spec.eps * spec.eps)
    return t, t < 1.0


def _require_positive_radii(r: np.ndarray) -> None:
    if not np.all(r > 0):
        raise ValueError("radius must be positive (NaN refused)")


@dataclass(frozen=True)
class InitialData:
    """The density f0 = scale * H_eps(s) * phi(r) of a spec, with H_eps at
    the spec's eps and phi at its a0 and delta_r (see the module docstring).

    scale is 1 for the small-density family and target_mass/||f0||_1 for
    the fixed-mass family, so evaluate_reduced returns the final density.
    """

    spec: ClassSpec
    scale: float = 1.0

    @classmethod
    def from_spec(cls, spec: ClassSpec) -> "InitialData":
        """The data of the spec, normalized to its target mass if it has one."""
        data = cls(spec=spec)
        if spec.is_fixed_mass:
            data = replace(data, scale=spec.target_mass / data.l1_norm())
        return data

    def evaluate_reduced(self, r, w, ell):
        """f0 at reduced coordinates (r, w, ell); r > 0 required."""
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        ell = np.asarray(ell, dtype=float)
        _require_positive_radii(r)
        if np.any(ell < 0):
            raise ValueError("squared angular momentum must be nonnegative")
        spec = self.spec
        t, inside = _bump_argument(spec, r, w, ell)
        out = np.zeros(np.shape(t))
        r_in = np.broadcast_to(r, out.shape)[inside]
        out[inside] = (
            self.scale * _bump_inside(t[inside], spec.eps) * _cutoff(r_in, spec.a0, spec.delta_r)
        )
        return float(out) if out.ndim == 0 else out

    def support_box(self):
        """Bounding box of the support in (r, w, ell).

        The w interval (a1 - delta_w, a1 + delta_w) is the exact hull of
        the support over the radial shell; the ell bound is the maximum
        of the support's ell bound (r/a0)^2 eps^2 over the shell.
        """
        spec = self.spec
        r_lo = spec.a0 - spec.delta_r
        r_hi = spec.a0 + spec.delta_r
        w_lo = spec.a1 - spec.delta_w
        w_hi = spec.a1 + spec.delta_w
        ell_hi = (r_hi / spec.a0) ** 2 * (spec.eps * spec.eps)
        return r_lo, r_hi, w_lo, w_hi, ell_hi

    def rho0(self, r):
        """Initial charge density rho(r) = int f0 dv in closed form: at fixed
        x, u = a1 x - a0 v turns the velocity integral of H_eps into
        PROFILE_NORMALIZATION / a0^3, so rho0 = scale * phi(r) * that."""
        r = np.asarray(r, dtype=float)
        _require_positive_radii(r)
        spec = self.spec
        out = self.scale * _cutoff(r, spec.a0, spec.delta_r) * (PROFILE_NORMALIZATION / spec.a0**3)
        return float(out) if out.ndim == 0 else out

    def l1_norm(self) -> float:
        """Total mass 4 pi * int rho0(r) r^2 dr in closed form.  phi is even
        about a0, so with r = a0 + y it is scale * (3/a0^3) * (a0^2 int phi dy
        + int phi y^2 dy), where int phi dy = 1.5 delta_r (each rise
        integrates to 1/2) and int phi y^2 dy = delta_r^3 (1/12 + RISE_MOMENT).
        """
        a0, dr = self.spec.a0, self.spec.delta_r
        moments = 1.5 * dr * a0**2 + dr**3 * (1.0 / 12.0 + RISE_MOMENT)
        return self.scale * (3.0 / a0**3) * moments


def sample_ensemble(
    data: InitialData, n_r: int, n_w: int, n_ell: int
) -> Ensemble:
    """Discretize f0 into shells on a midpoint tensor grid in (r, w, ell).

    Shell weight = 4 pi^2 f0 dr dw dl per occupied cell, which makes the
    weight sum the midpoint quadrature of the total mass.  Cells with
    zero density are dropped; ids follow the (r, w, ell) grid order.  For
    the fixed-mass family the weights are rescaled so the sum equals the
    target exactly (same-quadrature normalization, no mass drift).
    A grid whose radial midpoints are not all distinct in double
    precision is refused, as is one with a radius that is not positive.

    t = s/eps^2 is computed once on the broadcast grid; H_eps, the cutoff
    (once per radius, gathered per cell) and the weights then run only on
    the cells with t < 1, so no other grid-sized float array is made.
    Each kept value equals evaluate_reduced's at that cell, bit for bit.
    """
    if min(n_r, n_w, n_ell) < 2:
        raise ValueError("need at least 2 grid points per axis")
    spec = data.spec
    r_lo, r_hi, w_lo, w_hi, ell_hi = data.support_box()
    dr = (r_hi - r_lo) / n_r
    dw = (w_hi - w_lo) / n_w
    dl = ell_hi / n_ell
    r_mid = r_lo + dr * (np.arange(n_r) + 0.5)
    distinct = 1 + np.count_nonzero(r_mid[1:] != r_mid[:-1])  # r_mid ascends
    if distinct < n_r:
        raise ValueError(
            f"radial grid collapses: n_r = {n_r} cells give only {distinct} distinct "
            f"radii at a0 = {spec.a0!r} in double precision"
        )
    _require_positive_radii(r_mid)
    w_mid = w_lo + dw * (np.arange(n_w) + 0.5)
    ell_mid = dl * (np.arange(n_ell) + 0.5)  # strictly positive: no ell = 0 shell
    t, inside = _bump_argument(
        spec, r_mid[:, None, None], w_mid[None, :, None], ell_mid[None, None, :]
    )
    ids = np.flatnonzero(inside)
    del inside
    t = t.ravel()[ids]
    phi = _cutoff(r_mid, spec.a0, spec.delta_r)
    f_vals = data.scale * _bump_inside(t, spec.eps) * phi[ids // (n_w * n_ell)]
    keep = f_vals > 0.0  # exp(-1/(1-t)) underflows to 0 for t within about 1.4e-3 of 1
    ids = ids[keep]
    if ids.size == 0:
        raise EmptyEnsembleError(
            "no shell fell inside the support; refine the sampling grid"
        )
    weight = REDUCED_MEASURE * f_vals[keep] * dr * dw * dl
    if spec.is_fixed_mass:
        weight = weight * (spec.target_mass / float(np.sum(weight)))
    return Ensemble(
        r=r_mid[ids // (n_w * n_ell)],
        w=w_mid[ids // n_ell % n_w],
        ell=ell_mid[ids % n_ell],
        weight=weight,
        ids=ids.astype(np.int64, copy=False),
        time=0.0,
    )

