"""Construction, validation, and sampling of thin-shell initial data.

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
H_eps (bump_profile) and the radial cutoff phi (smooth_cutoff) are fixed
functions of the spec's eps, a0 and delta_r, so a ClassSpec and a scale
are the whole description of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .phase_space import REDUCED_MEASURE, Ensemble

# Value of the 3-space integral of H(|u|^2); fixes the homogeneous-ball
# density 3/(4 pi a0^3) after the velocity shift by (a1/a0) x.
PROFILE_NORMALIZATION = 3.0 / (4.0 * np.pi)
# int_0^1 exp(-1/(1-u^2)) u^2 du, as adaptive quadrature returns it; the
# tests recompute it.  Fixes the bump profile's normalization constant.
BUMP_INTEGRAL = 0.03510073837648729

# Gauss-Legendre nodes per axis of the density and mass quadratures.
N_QUAD = 64
# Radii sampled by each density membership check.
N_RHO_SAMPLES = 33
# Relative tolerance of the density bound and plateau checks.
RHO_REL_TOL = 1e-6
# Relative tolerance of a fixed-mass total against its target.
MASS_REL_TOL = 1e-12


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


def _bump(s: np.ndarray, eps: float) -> np.ndarray:
    # H_eps(s) = H(s/eps^2)/eps^3 on a float array, unchecked.
    c = PROFILE_NORMALIZATION / (4.0 * np.pi * BUMP_INTEGRAL)
    t = s * (1.0 / (eps * eps))
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = c * np.exp(-1.0 / (1.0 - t[inside]))
    out *= 1.0 / (eps * eps * eps)
    return out


def bump_profile(s, eps: float = 1.0):
    """Velocity profile H_eps(s) = H(s/eps^2)/eps^3 of the smooth bump
    H(s) = c exp(-1/(1-s)) on [0, 1), zero for s >= 1.

    c is fixed by BUMP_INTEGRAL so H_eps(|u|^2) integrates to 3/(4 pi)
    over 3-space for every eps; H_eps vanishes for s >= eps^2.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("profile argument must be nonnegative")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    out = _bump(s, eps)
    return float(out) if out.ndim == 0 else out


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
    # smooth_cutoff on a float array, unchecked.
    half = 0.5 * delta_r
    left = _smooth_rise((r - (a0 - delta_r)) / half)
    right = _smooth_rise(((a0 + delta_r) - r) / half)
    return np.where(r < a0, left, right)


def smooth_cutoff(r, a0: float, delta_r: float):
    """Radial cutoff phi(r) built from the smooth step.

    0 outside (a0 - delta_r, a0 + delta_r), rising to 1 at
    a0 - delta_r/2 and mirrored on the right; exactly 1 on the closed
    plateau [a0 - delta_r/2, a0 + delta_r/2], values in [0, 1].
    """
    if not (a0 > 0 and delta_r > 0):
        raise ValueError("a0 and delta_r must be positive")
    out = _cutoff(np.asarray(r, dtype=float), a0, delta_r)
    return float(out) if out.ndim == 0 else out


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


@dataclass(frozen=True)
class InitialData:
    """The density f0 = scale * H_eps(s) * phi(r) of a spec, where H_eps is
    bump_profile at the spec's eps and phi is smooth_cutoff at its a0 and
    delta_r.

    scale is 1 for the small-density family and target_mass/||f0||_1 for
    the fixed-mass family, so evaluate() returns the final density.
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
        if not np.all(r > 0):
            raise ValueError("radius must be positive (NaN refused)")
        if np.any(ell < 0):
            raise ValueError("squared angular momentum must be nonnegative")
        spec = self.spec
        s = (spec.a1 * r - spec.a0 * w) ** 2 + spec.a0**2 * ell / r**2
        out = self.scale * _bump(s, spec.eps) * _cutoff(r, spec.a0, spec.delta_r)
        return float(out) if out.ndim == 0 else out

    def evaluate(self, x, v) -> float:
        """f0 at a Cartesian (position, velocity) pair; |x| > 0 required."""
        from .phase_space import to_radial

        c = to_radial(x, v)
        return float(self.evaluate_reduced(c.r, c.w, c.ell))

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
        """Initial charge density by N_QUAD-point quadrature of the (w, ell)
        marginal: rho(r) = (pi / r^2) * double integral of f0 over w and ell."""
        scalar = np.isscalar(r) or np.ndim(r) == 0
        radii = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(radii > 0):
            raise ValueError("radius must be positive (NaN refused)")
        spec = self.spec
        s_max = spec.eps * spec.eps  # H_eps vanishes for s >= eps^2
        e = np.sqrt(s_max)
        nodes, wts = leggauss(N_QUAD)
        vals = np.zeros_like(radii)
        for i, ri in enumerate(radii):
            phi_r = float(_cutoff(ri, spec.a0, spec.delta_r))
            if phi_r == 0.0:
                continue
            # f0 > 0 needs (a1 r - a0 w)^2 < s_max, an interval in w
            w_center = spec.a1 * ri / spec.a0
            w_half = e / spec.a0
            w_nodes = w_center + w_half * nodes
            w_weights = w_half * wts
            s1 = (spec.a1 * ri - spec.a0 * w_nodes) ** 2
            ell_top = ri**2 * np.clip(s_max - s1, 0.0, None) / spec.a0**2
            # tensor grid: rows are w nodes, columns are ell nodes on [0, top]
            ell_nodes = 0.5 * ell_top[:, None] * (nodes[None, :] + 1.0)
            ell_weights = 0.5 * ell_top[:, None] * wts[None, :]
            s_grid = s1[:, None] + spec.a0**2 * ell_nodes / ri**2
            f_grid = self.scale * _bump(s_grid, spec.eps) * phi_r
            inner = np.sum(f_grid * ell_weights, axis=1)
            vals[i] = np.pi / ri**2 * np.sum(inner * w_weights)
        return float(vals[0]) if scalar else vals

    def l1_norm(self) -> float:
        """Total mass of the data: 4 pi * int rho0(r) r^2 dr.

        Integrates piecewise between the cutoff breakpoints (support
        edges and plateau edges) where the integrand is smooth.
        """
        spec = self.spec
        pts = [
            spec.a0 - spec.delta_r,
            spec.a0 - 0.5 * spec.delta_r,
            spec.a0 + 0.5 * spec.delta_r,
            spec.a0 + spec.delta_r,
        ]
        nodes, wts = leggauss(N_QUAD)
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            radii = mid + half * nodes
            total += half * float(np.sum(wts * self.rho0(radii) * radii**2))
        return 4.0 * np.pi * total


def sample_ensemble(
    data: InitialData, n_r: int, n_w: int, n_ell: int
) -> Ensemble:
    """Discretize f0 into shells on a midpoint tensor grid in (r, w, ell).

    Shell weight = 4 pi^2 f0 dr dw dl per occupied cell, which makes the
    weight sum the midpoint quadrature of the total mass.  Cells with
    zero density are dropped; ids follow the (r, w, ell) grid order.  For
    the fixed-mass family the weights are rescaled so the sum equals the
    target exactly (same-quadrature normalization, no mass drift).
    """
    if min(n_r, n_w, n_ell) < 2:
        raise ValueError("need at least 2 grid points per axis")
    r_lo, r_hi, w_lo, w_hi, ell_hi = data.support_box()
    dr = (r_hi - r_lo) / n_r
    dw = (w_hi - w_lo) / n_w
    dl = ell_hi / n_ell
    r_mid = r_lo + dr * (np.arange(n_r) + 0.5)
    w_mid = w_lo + dw * (np.arange(n_w) + 0.5)
    ell_mid = dl * (np.arange(n_ell) + 0.5)  # strictly positive: no ell = 0 shell
    rr, ww, ll = np.meshgrid(r_mid, w_mid, ell_mid, indexing="ij")
    f_vals = data.evaluate_reduced(rr.ravel(), ww.ravel(), ll.ravel())
    keep = f_vals > 0.0
    if not np.any(keep):
        raise EmptyEnsembleError(
            "no shell fell inside the support; refine the sampling grid"
        )
    weight = REDUCED_MEASURE * f_vals[keep] * dr * dw * dl
    if data.spec.is_fixed_mass:
        weight = weight * (data.spec.target_mass / float(np.sum(weight)))
    return Ensemble(
        r=rr.ravel()[keep],
        w=ww.ravel()[keep],
        ell=ll.ravel()[keep],
        weight=weight,
        ids=np.flatnonzero(keep).astype(np.int64),
        time=0.0,
    )


@dataclass(frozen=True)
class MembershipCheck:
    """Outcome of a single membership condition.

    hard distinguishes structural conditions (strict support inequalities,
    the mass sandwich) from quadrature-tolerance comparisons.
    """

    name: str
    passed: bool
    hard: bool
    detail: str
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class MembershipReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else ("FAIL" if c.hard else "miss")
            lines.append(f"[{status}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _worst_shell(ensemble: Ensemble, margin: np.ndarray):
    i = int(np.argmin(margin))
    return (
        int(ensemble.ids[i]),
        float(ensemble.r[i]),
        float(ensemble.w[i]),
        float(ensemble.ell[i]),
    )


def check_membership(data: InitialData, ensemble: Ensemble) -> MembershipReport:
    """Validate an ensemble and its generating data against the family
    conditions.

    Per-shell support conditions are checked on the ensemble; the density
    conditions are checked on the continuum f0 by quadrature at
    N_RHO_SAMPLES radii, up to RHO_REL_TOL.  The density bound and plateau
    equality apply to the small-density family; the fixed-mass family
    instead requires the weight sum to equal the target mass up to
    MASS_REL_TOL.
    """
    spec = data.spec
    checks = []
    r, w, ell = ensemble.r, ensemble.w, ensemble.ell

    # support ellipse: (r + (a0/|a1|) w)^2 + l r^-2 (a0/a1)^2 < eps^2/a1^2
    lhs = (r + spec.a0 / abs(spec.a1) * w) ** 2 + ell / r**2 * (spec.a0 / spec.a1) ** 2
    rhs = spec.eps**2 / spec.a1**2
    margin = rhs - lhs
    ok = bool(np.all(margin > 0))
    checks.append(
        MembershipCheck(
            name="support-ellipse",
            passed=ok,
            hard=True,
            detail=f"min margin {float(np.min(margin)):.3e} (must be > 0)",
            witness=None if ok else _worst_shell(ensemble, margin),
        )
    )

    # radial shell: a0 - delta_r < r < a0 + delta_r
    margin = np.minimum(r - (spec.a0 - spec.delta_r), (spec.a0 + spec.delta_r) - r)
    ok = bool(np.all(margin > 0))
    checks.append(
        MembershipCheck(
            name="radial-shell",
            passed=ok,
            hard=True,
            detail=f"min distance to shell edge {float(np.min(margin)):.3e}",
            witness=None if ok else _worst_shell(ensemble, margin),
        )
    )

    # velocity window: w in (a1 - delta_w, a1 + delta_w)
    margin = np.minimum(w - (spec.a1 - spec.delta_w), (spec.a1 + spec.delta_w) - w)
    ok = bool(np.all(margin > 0))
    checks.append(
        MembershipCheck(
            name="velocity-window",
            passed=ok,
            hard=True,
            detail=f"min distance to window edge {float(np.min(margin)):.3e}",
            witness=None if ok else _worst_shell(ensemble, margin),
        )
    )

    # angular momentum bound: ell < (r/a0)^2 eps^2
    margin = (r / spec.a0) ** 2 * spec.eps**2 - ell
    ok = bool(np.all(margin > 0))
    checks.append(
        MembershipCheck(
            name="ell-bound",
            passed=ok,
            hard=True,
            detail=f"min margin {float(np.min(margin)):.3e}",
            witness=None if ok else _worst_shell(ensemble, margin),
        )
    )

    rho_cap = 3.0 / (4.0 * np.pi * spec.a0**3)
    if not spec.is_fixed_mass:
        # density bound everywhere (sampled across the shell and just outside)
        radii = np.linspace(
            spec.a0 - 1.5 * spec.delta_r, spec.a0 + 1.5 * spec.delta_r, N_RHO_SAMPLES
        )
        rho = data.rho0(radii)
        worst = float(np.max(rho)) / rho_cap
        ok = worst <= 1.0 + RHO_REL_TOL
        checks.append(
            MembershipCheck(
                name="density-bound",
                passed=ok,
                hard=False,
                detail=f"max rho0 / cap = {worst:.12f} (tol {RHO_REL_TOL:g})",
                witness=None if ok else (float(radii[int(np.argmax(rho))]),),
            )
        )

        # plateau equality on [a0 - delta_r/2, a0 + delta_r/2]
        plateau = np.linspace(
            spec.a0 - 0.5 * spec.delta_r, spec.a0 + 0.5 * spec.delta_r, N_RHO_SAMPLES
        )
        rho_p = data.rho0(plateau)
        rel_err = float(np.max(np.abs(rho_p / rho_cap - 1.0)))
        ok = rel_err <= RHO_REL_TOL
        checks.append(
            MembershipCheck(
                name="density-plateau",
                passed=ok,
                hard=False,
                detail=f"max relative deviation {rel_err:.3e} (tol {RHO_REL_TOL:g})",
                witness=None if ok else (float(plateau[int(np.argmax(np.abs(rho_p / rho_cap - 1.0)))]),),
            )
        )

        # mass sandwich 3 eps^3/a0 <= M <= 8 eps^3/a0
        db = derived_bounds(spec)
        m = ensemble.total_mass
        ok = db.mass_lower <= m <= db.mass_upper
        checks.append(
            MembershipCheck(
                name="mass-sandwich",
                passed=ok,
                hard=True,
                detail=f"mass {m:.6e} in [{db.mass_lower:.6e}, {db.mass_upper:.6e}]",
            )
        )
    else:
        m = ensemble.total_mass
        rel = abs(m / spec.target_mass - 1.0)
        ok = rel <= MASS_REL_TOL
        checks.append(
            MembershipCheck(
                name="total-mass",
                passed=ok,
                hard=False,
                detail=f"mass {m!r} vs target {spec.target_mass!r}, rel err {rel:.3e}",
            )
        )

    return MembershipReport(checks=tuple(checks))
