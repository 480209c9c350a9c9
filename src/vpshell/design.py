"""Parameter recipes for the two focusing regimes, their certificates,
and verification of a completed run against a certificate.

Both recipes take target constants C1 and C2 and emit a certificate: a
machine-checkable record of the derived initial-data parameters and the
predicted bounds.

* design_small_data: C1 caps the initial density and field sup norms
  (via a0 = (32/C1)^(1/3)); the run time T = a0 eps^2 - 20 eps^4 is
  derived, and at T the certified density and field lower bounds exceed
  C2 for any admissible eps.
* design_fixed_mass: the total mass is C1 and the time horizon T is
  prescribed; the shell is placed far out (a0 = eps^-2 (T + eta)) so the
  infall concentrates near the origin at time T with certified lower
  bounds exceeding C2 for admissible eps.

verify_focusing_run replays the certificate's claims against run
output in five stages: (i) time-zero sup-norm bounds, (ii) total mass,
(iii) all turning times beyond T, (iv) all radii at T within the
predicted confinement radius, (v) certified sup-norm lower bounds at T.
An inadmissible eps can be forced through with exploratory=True, which
marks the certificate and restricts verification to stages (iii)-(v),
checking the certificate's own scaled predictions instead of C2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from .bounds import confinement_lower_bounds
from .initial_data import MASS_REL_TOL, ClassSpec, derived_bounds

# Relative headroom of the binned time-zero density over its cap.
RHO_BIN_SLACK = 0.5
# Relative headroom of the radii at T over the confinement radius.
RADIUS_REL_SLACK = 1e-6


class InadmissibleParameterError(ValueError):
    """eps violates an admissibility constraint and exploratory is off."""

    def __init__(self, constraint: str, message: str):
        self.constraint = constraint
        super().__init__(message)


class RefusalError(RuntimeError):
    """Run and certificate do not belong together; verification refused."""


@dataclass(frozen=True)
class BoundsCertificate:
    """Predicted quantities of a designed run.

    rho0_sup_bound / E0_sup_bound are None for the fixed-mass recipe,
    which makes no time-zero sup-norm claims.  mass_used is the mass the
    time-T predictions assume (sandwich lower end for small-data, C1 for
    fixed-mass).  exploratory marks a certificate whose eps exceeds the
    admissible bound; its time-T predictions are the recipe formulas
    evaluated at that eps, not guaranteed to reach C2.
    """

    recipe: str  # "small-data" or "fixed-mass"
    c1: float
    c2: float
    spec: ClassSpec
    t_horizon: float
    eps_admissible_max: float
    exploratory: bool
    sup_r_bound: float
    rhot_lower: float
    et_lower: float
    mass_used: float
    rho0_sup_bound: Optional[float] = None
    e0_sup_bound: Optional[float] = None
    c0: Optional[float] = None
    eta: Optional[float] = None


def _validate_targets(c1: float, c2: float):
    if not 0 < c1 < math.inf:
        raise ValueError(f"C1 must be positive and finite, got {c1}")
    if not 0 < c2 < math.inf:
        raise ValueError(f"C2 must be positive and finite, got {c2}")


def _resolve_eps(eps, admissible_max, default, exploratory):
    if eps is None:
        return default, False
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if eps < admissible_max:
        return float(eps), False
    if exploratory:
        return float(eps), True
    raise InadmissibleParameterError(
        "eps-admissible-max",
        f"eps = {eps} is not below the admissible bound "
        f"{admissible_max}; pass exploratory to force it",
    )


def design_small_data(
    c1: float, c2: float, eps: Optional[float] = None, exploratory: bool = False
) -> BoundsCertificate:
    """Small-density recipe: initial sup norms below C1, growth past C2.

    Admissible eps must satisfy eps < min{1, a0/4, 1/(200^3 a0 C2)}.
    That bound alone does not force T = a0 eps^2 - 20 eps^4 positive for
    a0 > 0.8, so time positivity is enforced as an extra constraint and
    folded into the default choice eps = half the overall minimum.
    """
    _validate_targets(c1, c2)
    a0 = (32.0 / c1) ** (1.0 / 3.0)
    admissible_max = min(1.0, a0 / 4.0, 1.0 / (200.0**3 * a0 * c2))
    time_positive_max = math.sqrt(a0 / 20.0)
    default = 0.5 * min(admissible_max, time_positive_max)
    eps, marked = _resolve_eps(eps, admissible_max, default, exploratory)

    t_horizon = a0 * eps**2 - 20.0 * eps**4
    if t_horizon <= 0:
        if not exploratory:
            raise InadmissibleParameterError(
                "time-positivity",
                f"eps = {eps} gives a nonpositive run time "
                f"(need eps < {time_positive_max})",
            )
        marked = True

    spec = ClassSpec(a0=a0, a1=-1.0 / eps**2, eps=eps)
    mass_used = 3.0 * eps**3 / a0  # sandwich lower end
    return BoundsCertificate(
        recipe="small-data",
        c1=c1,
        c2=c2,
        spec=spec,
        t_horizon=t_horizon,
        eps_admissible_max=admissible_max,
        exploratory=marked,
        sup_r_bound=100.0 * eps**2,
        rhot_lower=1.0 / (200.0**3 * a0 * eps**3),
        et_lower=3.0 / (100.0**2 * a0 * eps),
        mass_used=mass_used,
        rho0_sup_bound=3.0 / (4.0 * np.pi * a0**3),
        e0_sup_bound=32.0 / a0**3,
    )


def design_fixed_mass(
    c1: float,
    c2: float,
    t_horizon: float,
    eps: Optional[float] = None,
    exploratory: bool = False,
) -> BoundsCertificate:
    """Fixed-mass recipe: mass C1, focusing at the prescribed time.

    Admissible eps must satisfy
    eps < min{1, T/C0, ((1/(8 C0)^3)(C1/(6 C2)))^(1/2)} with
    C0 = 3 + 12 sqrt(1 + C1 T).
    """
    _validate_targets(c1, c2)
    if not 0 < t_horizon < math.inf:
        raise ValueError(f"T must be positive and finite, got {t_horizon}")
    c0 = 3.0 + 12.0 * math.sqrt(1.0 + c1 * t_horizon)
    admissible_max = min(
        1.0,
        t_horizon / c0,
        math.sqrt(1.0 / (8.0 * c0) ** 3 * c1 / (6.0 * c2)),
    )
    eps, marked = _resolve_eps(eps, admissible_max, 0.5 * admissible_max, exploratory)

    eta = c0 * eps**3
    a0 = (t_horizon + eta) / eps**2
    spec = ClassSpec(a0=a0, a1=-1.0 / eps**2, eps=eps, target_mass=c1)
    return BoundsCertificate(
        recipe="fixed-mass",
        c1=c1,
        c2=c2,
        spec=spec,
        t_horizon=t_horizon,
        eps_admissible_max=admissible_max,
        exploratory=marked,
        sup_r_bound=8.0 * c0 * eps,
        rhot_lower=3.0 * c1 / ((8.0 * c0) ** 3 * eps**2),
        et_lower=c1 / (8.0 * c0 * eps) ** 2,
        mass_used=c1,
        c0=c0,
        eta=eta,
    )


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str  # "pass", "fail", or "skipped"
    detail: str
    witness_id: Optional[int] = None


@dataclass(frozen=True)
class VerificationReport:
    stages: tuple
    exploratory: bool

    @property
    def passed(self) -> bool:
        return all(s.status != "fail" for s in self.stages)

    def first_failure(self) -> Optional[StageResult]:
        for s in self.stages:
            if s.status == "fail":
                return s
        return None

    def __str__(self) -> str:
        head = "verification (exploratory certificate)" if self.exploratory else "verification"
        lines = [head]
        for s in self.stages:
            suffix = f" [witness shell {s.witness_id}]" if s.witness_id is not None else ""
            lines.append(f"  {s.status:7s} {s.name}: {s.detail}{suffix}")
        return "\n".join(lines)


def verify_focusing_run(run, cert: BoundsCertificate) -> VerificationReport:
    """Check a completed run against its certificate, stage by stage.

    run must expose rows (diagnostics), turning_time (per shell),
    snapshot_at(t), and final (ensemble); both the in-memory run result
    and the reloaded on-disk record satisfy this.

    The binned density at time zero is only compared up to RHO_BIN_SLACK
    because column quantization makes the histogram noisy on a thin
    shell; the continuum density bound is validated by quadrature at
    construction time (membership checks), and the certified bound and
    the exact field sup are checked without slack.  The radii at T are
    compared up to RADIUS_REL_SLACK, and a fixed-mass run's total mass
    up to initial_data.MASS_REL_TOL.
    """
    stages = []
    t_target = cert.t_horizon

    # (i) time-zero sup-norm bounds
    if cert.exploratory:
        stages.append(StageResult("initial-sup-norms", "skipped", "exploratory certificate"))
    elif cert.recipe == "fixed-mass":
        stages.append(
            StageResult(
                "initial-sup-norms", "skipped", "fixed-mass recipe makes no time-zero claims"
            )
        )
    else:
        row0 = run.rows[0]
        ok_e = row0.e_sup_exact <= cert.e0_sup_bound
        ok_rho_cert = row0.rho_sup_certified <= cert.rho0_sup_bound
        ok_rho_bin = row0.rho_sup_binned <= cert.rho0_sup_bound * (1.0 + RHO_BIN_SLACK)
        status = "pass" if (ok_e and ok_rho_cert and ok_rho_bin) else "fail"
        stages.append(
            StageResult(
                "initial-sup-norms",
                status,
                f"E {row0.e_sup_exact:.6g} <= {cert.e0_sup_bound:.6g}; "
                f"rho certified {row0.rho_sup_certified:.6g} <= {cert.rho0_sup_bound:.6g}; "
                f"rho binned {row0.rho_sup_binned:.6g} <= cap*(1+{RHO_BIN_SLACK:g})",
            )
        )

    # (ii) total mass
    mass = run.final.total_mass
    if cert.exploratory:
        stages.append(StageResult("total-mass", "skipped", "exploratory certificate"))
    elif cert.recipe == "small-data":
        db = derived_bounds(cert.spec)
        ok = db.mass_lower <= mass <= db.mass_upper
        stages.append(
            StageResult(
                "total-mass",
                "pass" if ok else "fail",
                f"mass {mass:.6e} in sandwich [{db.mass_lower:.6e}, {db.mass_upper:.6e}]",
            )
        )
    else:
        rel = abs(mass / cert.c1 - 1.0)
        stages.append(
            StageResult(
                "total-mass",
                "pass" if rel <= MASS_REL_TOL else "fail",
                f"mass {mass!r} vs C1 {cert.c1!r}, rel err {rel:.3e}",
            )
        )

    # (iii) every turning time beyond T
    margin = run.turning_time - t_target
    worst = int(np.argmin(margin))
    ok = bool(np.all(margin > 0.0))
    stages.append(
        StageResult(
            "turning-after-T",
            "pass" if ok else "fail",
            f"min(turning time - T) = {float(margin[worst]):.6g}",
            witness_id=None if ok else int(run.final.ids[worst]),
        )
    )

    # (iv) confinement radius at T
    snap = run.snapshot_at(t_target)
    r_max = float(np.max(snap.r))
    worst = int(np.argmax(snap.r))
    cap = cert.sup_r_bound * (1.0 + RADIUS_REL_SLACK)
    ok = r_max <= cap
    stages.append(
        StageResult(
            "confinement-radius",
            "pass" if ok else "fail",
            f"max radius at T = {r_max:.6g} vs bound {cert.sup_r_bound:.6g} "
            f"(rel slack {RADIUS_REL_SLACK:g})",
            witness_id=None if ok else int(snap.ids[worst]),
        )
    )

    # (v) certified sup-norm lower bounds at T
    sb = confinement_lower_bounds(snap.total_mass, r_max)
    ok = sb.rho_lower >= cert.rhot_lower and sb.e_lower >= cert.et_lower
    need_c2 = not cert.exploratory
    if need_c2:
        ok = ok and sb.rho_lower >= cert.c2 and sb.e_lower >= cert.c2
    target_note = f"; both >= C2 = {cert.c2:g}" if need_c2 else ""
    stages.append(
        StageResult(
            "certified-lower-bounds",
            "pass" if ok else "fail",
            f"rho certified {sb.rho_lower:.6g} >= predicted {cert.rhot_lower:.6g}, "
            f"E certified {sb.e_lower:.6g} >= predicted {cert.et_lower:.6g}{target_note}",
        )
    )

    return VerificationReport(stages=tuple(stages), exploratory=cert.exploratory)


def decay_slope(rows, window_decades: float = 1.0) -> float:
    """Log-log slope of the exact field sup over the trailing window.

    Fits log E against log t for rows with t >= t_end / 10^decades; a
    freely dispersing ensemble approaches slope -2.
    """
    t = np.array([row.t for row in rows], dtype=float)
    e = np.array([row.e_sup_exact for row in rows], dtype=float)
    t_end = t[-1]
    mask = t >= t_end / 10.0**window_decades
    if np.count_nonzero(mask) < 3:
        raise ValueError("not enough rows in the trailing window for a slope fit")
    return float(np.polyfit(np.log(t[mask]), np.log(e[mask]), 1)[0])
