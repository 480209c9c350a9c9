"""Parameter recipes for the two focusing regimes, their certificates,
and the checks of both the data and the run against a certificate's
class.

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

Every check is a StageResult built by _stage, which keeps a stage's
witness shell only when it fails.  check_membership checks a sampled
ensemble and its data against the class's conditions on the initial
data: the support per shell, the closed-form density (small-density
family) and the total mass.  verify_focusing_run replays the
certificate's claims against a dynamics.RunResult, as integrate returns
it or reporting.load_run_data reads it back, in five stages: (i)
time-zero sup-norm bounds, (ii) total mass, (iii) all turning times
beyond T, (iv) all radii at T within the predicted confinement radius,
(v) certified sup-norm lower bounds at T.  Membership and stage (ii)
share one mass rule, _mass_stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import math

import numpy as np

from .bounds import confinement_lower_bounds
from .dynamics import RunResult
from .initial_data import (
    PROFILE_NORMALIZATION,
    ClassSpec,
    InitialData,
    derived_bounds,
    profile_argument,
)
from .phase_space import Ensemble

# Radii sampled by each density membership stage.
N_RHO_SAMPLES = 33
# Relative tolerance of the density bound and plateau stages.
RHO_REL_TOL = 1e-6
# Relative tolerance of a fixed-mass total against C1.
MASS_REL_TOL = 1e-12
# Relative headroom of the binned time-zero density over its cap.
RHO_BIN_SLACK = 0.5
# Relative headroom of the radii at T over the confinement radius.
RADIUS_REL_SLACK = 1e-6


class InadmissibleParameterError(ValueError):
    """eps violates an admissibility constraint and exploratory is off;
    the message states the constraint, and each reader of the input names
    the remedy in its own terms."""

    def __init__(self, constraint: str, message: str):
        self.constraint = constraint
        super().__init__(message)


class RefusalError(RuntimeError):
    """Run and certificate do not belong together; verification refused."""


@dataclass(frozen=True)
class BoundsCertificate:
    """Predicted quantities of a designed run, as rederive remakes them.

    rho0_sup_bound / E0_sup_bound are None for the fixed-mass recipe,
    which makes no time-zero sup-norm claims.  mass_used is the mass the
    time-T predictions assume (sandwich lower end for small-data, C1 for
    fixed-mass).  exploratory marks a certificate whose eps exceeds the
    admissible bound, or one marked by hand, which only claims less: its
    time-T predictions need not reach C2, and verify_focusing_run skips
    stages (i) and (ii) and checks them instead of C2.
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
        "eps-admissible-max", f"eps = {eps} is not below the admissible bound {admissible_max}"
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
        mass_used=derived_bounds(spec).mass_lower,
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


def rederive(cert: BoundsCertificate) -> BoundsCertificate:
    """What cert's recipe makes of its inputs c1, c2, eps, T (fixed-mass only)
    and exploratory, keeping its mark; other recipes are read as small-data."""
    if cert.recipe == "fixed-mass":
        derived = design_fixed_mass(cert.c1, cert.c2, cert.t_horizon, cert.spec.eps, cert.exploratory)
    else:
        derived = design_small_data(cert.c1, cert.c2, cert.spec.eps, cert.exploratory)
    return replace(derived, exploratory=cert.exploratory)


# Every status a stage can have.
STAGE_STATUSES = ("pass", "fail", "skipped")


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str  # one of STAGE_STATUSES
    detail: str
    witness_id: Optional[int] = None


def _stage_lines(head: str, stages) -> str:
    lines = [head]
    for s in stages:
        suffix = f" [witness shell {s.witness_id}]" if s.witness_id is not None else ""
        lines.append(f"  {s.status:7s} {s.name}: {s.detail}{suffix}")
    return "\n".join(lines)


@dataclass(frozen=True)
class MembershipReport:
    stages: tuple

    @property
    def passed(self) -> bool:
        return all(s.status != "fail" for s in self.stages)

    def __str__(self) -> str:
        return _stage_lines("membership", self.stages)


@dataclass(frozen=True)
class VerificationReport:
    stages: tuple
    exploratory: bool

    @property
    def passed(self) -> bool:
        return all(s.status != "fail" for s in self.stages)

    def __str__(self) -> str:
        head = "verification (exploratory certificate)" if self.exploratory else "verification"
        return _stage_lines(head, self.stages)


def _stage(name: str, ok, detail: str, witness: Optional[int] = None) -> StageResult:
    """A checked stage: pass or fail, naming the witness shell only on failure."""
    ok = bool(ok)
    return StageResult(name, "pass" if ok else "fail", detail, None if ok else witness)


def _mass_stage(spec: ClassSpec, mass: float) -> StageResult:
    """The total-mass stage of membership and of verification: a fixed-mass
    total within MASS_REL_TOL of C1, any other inside the mass sandwich."""
    if spec.is_fixed_mass:
        rel = abs(mass / spec.target_mass - 1.0)
        ok = rel <= MASS_REL_TOL
        detail = f"mass {mass!r} vs C1 {spec.target_mass!r}, rel err {rel:.3e}"
    else:
        db = derived_bounds(spec)
        ok = db.mass_lower <= mass <= db.mass_upper
        detail = f"mass {mass:.6e} in sandwich [{db.mass_lower:.6e}, {db.mass_upper:.6e}]"
    return _stage("total-mass", ok, detail)


def check_membership(data: InitialData, ensemble: Ensemble) -> MembershipReport:
    """Check an ensemble and its generating data against the class's
    conditions on the initial data, stage by stage.

    The support conditions are checked per shell, and a failed one names
    its worst shell; the density conditions of the small-density family,
    the bound and the plateau equality, are checked on the closed-form
    continuum density rho0 at N_RHO_SAMPLES radii, up to RHO_REL_TOL; the
    weight sum is checked by _mass_stage, as verification's stage (ii).
    """
    spec = data.spec
    r, w, ell = ensemble.r, ensemble.w, ensemble.ell
    r_lo, r_hi, w_lo, w_hi, _ = data.support_box()
    s = profile_argument(spec, r, w, ell)
    per_shell = (  # (name, margin that must be > 0, detail of the least margin)
        # support ellipse: (r + (a0/|a1|) w)^2 + l r^-2 (a0/a1)^2 < eps^2/a1^2, i.e.
        # s < eps^2, a form that does not cancel at large a0
        ("support-ellipse", (spec.eps**2 - s) / spec.a1**2, "min margin {:.3e} (must be > 0)"),
        # radial shell: a0 - delta_r < r < a0 + delta_r
        ("radial-shell", np.minimum(r - r_lo, r_hi - r), "min distance to shell edge {:.3e}"),
        # velocity window: w in (a1 - delta_w, a1 + delta_w)
        ("velocity-window", np.minimum(w - w_lo, w_hi - w), "min distance to window edge {:.3e}"),
        # angular momentum bound: ell < (r/a0)^2 eps^2
        ("ell-bound", (r / spec.a0) ** 2 * spec.eps**2 - ell, "min margin {:.3e}"),
    )
    stages = []
    for name, margin, detail in per_shell:
        worst = int(np.argmin(margin))
        detail = detail.format(float(margin[worst]))
        stages.append(_stage(name, np.all(margin > 0), detail, int(ensemble.ids[worst])))

    if not spec.is_fixed_mass:
        rho_cap = PROFILE_NORMALIZATION / spec.a0**3  # 3/(4 pi a0^3), as rho0 computes it
        # density bound everywhere (sampled across the shell and just outside)
        radii = np.linspace(
            spec.a0 - 1.5 * spec.delta_r, spec.a0 + 1.5 * spec.delta_r, N_RHO_SAMPLES
        )
        peak = float(np.max(data.rho0(radii))) / rho_cap
        stages.append(_stage(
            "density-bound",
            peak <= 1.0 + RHO_REL_TOL,
            f"max rho0 / cap = {peak:.12f} (tol {RHO_REL_TOL:g})",
        ))
        # plateau equality on [a0 - delta_r/2, a0 + delta_r/2]
        plateau = np.linspace(
            spec.a0 - 0.5 * spec.delta_r, spec.a0 + 0.5 * spec.delta_r, N_RHO_SAMPLES
        )
        rel_err = float(np.max(np.abs(data.rho0(plateau) / rho_cap - 1.0)))
        stages.append(_stage(
            "density-plateau",
            rel_err <= RHO_REL_TOL,
            f"max relative deviation {rel_err:.3e} (tol {RHO_REL_TOL:g})",
        ))
    stages.append(_mass_stage(spec, ensemble.total_mass))
    return MembershipReport(stages=tuple(stages))


def verify_focusing_run(run: RunResult, cert: BoundsCertificate) -> VerificationReport:
    """Check a completed run against its certificate, stage by stage.

    The binned density at time zero is only compared up to RHO_BIN_SLACK
    because column quantization makes the histogram noisy on a thin
    shell; the continuum density bound is checked on the closed-form rho0
    when the data are made (check_membership), and the certified bound
    and the exact field sup are checked without slack.  The radii at T are
    compared up to RADIUS_REL_SLACK, and the total mass by _mass_stage.
    """
    t_target = cert.t_horizon
    # (i) time-zero sup-norm bounds and (ii) total mass
    if cert.exploratory:
        stages = [
            StageResult(name, "skipped", "exploratory certificate")
            for name in ("initial-sup-norms", "total-mass")
        ]
    else:
        if cert.recipe == "small-data":
            row0 = run.rows[0]
            initial = _stage(
                "initial-sup-norms",
                row0.e_sup_exact <= cert.e0_sup_bound
                and row0.rho_sup_certified <= cert.rho0_sup_bound
                and row0.rho_sup_binned <= cert.rho0_sup_bound * (1.0 + RHO_BIN_SLACK),
                f"E {row0.e_sup_exact:.6g} <= {cert.e0_sup_bound:.6g}; "
                f"rho certified {row0.rho_sup_certified:.6g} <= {cert.rho0_sup_bound:.6g}; "
                f"rho binned {row0.rho_sup_binned:.6g} <= cap*(1+{RHO_BIN_SLACK:g})",
            )
        else:
            initial = StageResult(
                "initial-sup-norms", "skipped", "fixed-mass recipe makes no time-zero claims"
            )
        stages = [initial, _mass_stage(cert.spec, run.final.total_mass)]

    # (iii) every turning time beyond T
    margin = run.turning_time - t_target
    worst = int(np.argmin(margin))
    stages.append(
        _stage(
            "turning-after-T",
            np.all(margin > 0.0),
            f"min(turning time - T) = {float(margin[worst]):.6g}",
            int(run.final.ids[worst]),
        )
    )

    # (iv) confinement radius at T
    snap = run.snapshot_at(t_target)
    worst = int(np.argmax(snap.r))
    r_max = float(np.max(snap.r))
    stages.append(
        _stage(
            "confinement-radius",
            r_max <= cert.sup_r_bound * (1.0 + RADIUS_REL_SLACK),
            f"max radius at T = {r_max:.6g} vs bound {cert.sup_r_bound:.6g} "
            f"(rel slack {RADIUS_REL_SLACK:g})",
            int(snap.ids[worst]),
        )
    )

    # (v) certified sup-norm lower bounds at T; unless exploratory, C2 is a floor too
    sb = confinement_lower_bounds(snap.total_mass, r_max)
    floors, c2_note = [(cert.rhot_lower, cert.et_lower)], ""
    if not cert.exploratory:
        floors.append((cert.c2, cert.c2))
        c2_note = f"; both >= C2 = {cert.c2:g}"
    stages.append(
        _stage(
            "certified-lower-bounds",
            all(sb.rho_lower >= rho and sb.e_lower >= e for rho, e in floors),
            f"rho certified {sb.rho_lower:.6g} >= predicted {cert.rhot_lower:.6g}, "
            f"E certified {sb.e_lower:.6g} >= predicted {cert.et_lower:.6g}{c2_note}",
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
