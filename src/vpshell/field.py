"""Radial field quantities from a shell ensemble.

The enclosed mass m(t, r) and the field magnitude m/r^2 are derived from
a sorted-radius index.  The caller builds one index per ensemble state
and passes it to every consumer of that state (the integrator uses it
for the state's sup norms and for the next step's enclosed masses).  The
field is exact for the discrete measure (up to the tie convention at
coincident radii).  The density is a histogram estimate, binned in the
ensemble's own order, and is reported alongside a certified lower bound
that is independent of binning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import Ensemble


@dataclass(frozen=True)
class SortedMassIndex:
    """Shells sorted by (radius, id) with cumulative masses.

    cum[k] is the summed weight of the first k sorted shells, so mass
    strictly below / at / above any radius reads off the bounds of its
    tie group.  Tie convention: mass *at* a radius counts half, and a shell
    never feels its own weight (see interior_mass).
    """

    radii: np.ndarray      # ascending
    weights: np.ndarray    # aligned with radii
    order: np.ndarray      # ensemble position of each sorted entry
    cum: np.ndarray        # length n + 1, cum[0] = 0
    total_mass: float

    @classmethod
    def from_ensemble(cls, ensemble: Ensemble) -> "SortedMassIndex":
        # stable, thread-count-independent order: radius then id
        order = np.lexsort((ensemble.ids, ensemble.r))
        radii = ensemble.r[order]
        weights = ensemble.weight[order]
        cum = np.concatenate(([0.0], np.cumsum(weights)))
        return cls(
            radii=radii,
            weights=weights,
            order=order,
            cum=cum,
            total_mass=ensemble.total_mass,
        )

    def __len__(self) -> int:
        return self.radii.size

    def enclosed_mass(self, r):
        """Mass strictly inside radius r plus half the mass exactly at r.

        Nondecreasing in r; 0 below all shells; total mass above all.
        """
        r = np.asarray(r, dtype=float)
        lo = np.searchsorted(self.radii, r, side="left")
        hi = np.searchsorted(self.radii, r, side="right")
        out = self.cum[lo] + 0.5 * (self.cum[hi] - self.cum[lo])
        return float(out) if out.ndim == 0 else out

    def field_at(self, r):
        """Radial field magnitude m(r)/r^2 (outward for the repulsive case)."""
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0):
            raise ValueError("field evaluation needs r > 0 (NaN refused)")
        out = self.enclosed_mass(r) / np.square(r)
        return float(out) if np.ndim(out) == 0 else out

    def interior_mass(self) -> np.ndarray:
        """Per-shell mass felt by each shell, in ensemble order.

        Strictly interior shells count in full, coincident shells at half
        weight, the shell itself never.  This is the enclosed-mass value
        each shell uses in its own equation of motion.
        """
        n = len(self)
        # each shell's tie group spans sorted positions [lo, hi)
        ends = _tie_group_ends(self.radii)
        sizes = np.diff(ends, prepend=0)
        lo = np.repeat(ends - sizes, sizes)
        hi = np.repeat(ends, sizes)
        below = self.cum[lo]
        group = self.cum[hi] - self.cum[lo]
        interior_sorted = below + 0.5 * (group - self.weights)
        out = np.empty(n)
        out[self.order] = interior_sorted
        return out

    def e_sup_exact(self) -> float:
        """Exact sup of the piecewise field m(r)/r^2.

        Between shells m is constant and the field decays, so the sup is
        attained as a right limit at some shell radius: max over distinct
        radii of (mass at or below) / radius^2.
        """
        if len(self) == 0:
            raise ValueError("empty ensemble has no field sup")
        ends = _tie_group_ends(self.radii)
        r = self.radii[ends - 1]
        # explicit multiply keeps the squaring bit-identical to the
        # confinement bound without leaning on numpy's ** lowering
        return float(np.max(self.cum[ends] / (r * r)))


def _tie_group_ends(radii: np.ndarray) -> np.ndarray:
    """One past the last position of each run of equal ascending radii."""
    last = np.ones(radii.size, dtype=bool)
    last[:-1] = radii[1:] != radii[:-1]
    return np.flatnonzero(last) + 1


@dataclass(frozen=True)
class DensityGrid:
    """Histogram density estimate on radial bins.

    Bin masses are the primary data; values are mass / shell-volume, so
    the mass-consistency identity sum(value * volume) = captured mass is
    structural.
    """

    bin_edges: np.ndarray
    bin_masses: np.ndarray

    @property
    def bin_volumes(self) -> np.ndarray:
        return 4.0 * np.pi / 3.0 * np.diff(self.bin_edges**3)

    @property
    def bin_values(self) -> np.ndarray:
        return self.bin_masses / self.bin_volumes

    @property
    def captured_mass(self) -> float:
        return float(np.sum(self.bin_masses))


def default_grid_edges(r_min: float, r_max: float, n_bins: int = 256) -> np.ndarray:
    """Geometric bin edges from r_min/2 to r_max * 1.01.

    Geometric spacing resolves the many-decades radius range that opens
    up during focusing.
    """
    if not (r_min > 0 and r_max >= r_min):
        raise ValueError("need 0 < r_min <= r_max")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    return np.geomspace(0.5 * r_min, 1.01 * r_max, n_bins + 1)


def density_estimate(ensemble: Ensemble, bin_edges: np.ndarray) -> DensityGrid:
    """Bin shell weights by radius and divide by shell-volume per bin."""
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or bin_edges.size < 2:
        raise ValueError("bin_edges must list at least two ascending radii")
    if np.any(np.diff(bin_edges) <= 0):
        raise ValueError("bin_edges must be strictly ascending")
    masses, _ = np.histogram(ensemble.r, bins=bin_edges, weights=ensemble.weight)
    return DensityGrid(bin_edges=bin_edges, bin_masses=masses)


@dataclass(frozen=True)
class SupNorms:
    """Density and field sup-norm report at one instant.

    rho_sup_binned depends on the grid; rho_sup_certified is the
    binning-free lower bound 3M/(4 pi R_max^3) that the confinement
    argument certifies; e_sup_exact is exact for the discrete field.
    """

    rho_sup_binned: float
    rho_sup_certified: float
    e_sup_exact: float
    r_min: float
    r_max: float


def sup_norms(ensemble: Ensemble, index: SortedMassIndex, n_bins: int = 256) -> SupNorms:
    """Sup norms of one state; index must be SortedMassIndex.from_ensemble(ensemble).

    The density is binned on default_grid_edges(r_min, r_max, n_bins).
    """
    if len(ensemble) == 0:
        raise ValueError("sup norms are undefined for an empty ensemble")
    r_min = float(np.min(ensemble.r))
    r_max = float(np.max(ensemble.r))
    grid = density_estimate(ensemble, default_grid_edges(r_min, r_max, n_bins))
    certified = 3.0 * ensemble.total_mass / (4.0 * np.pi * r_max**3)
    return SupNorms(
        rho_sup_binned=float(np.max(grid.bin_values)),
        rho_sup_certified=certified,
        e_sup_exact=index.e_sup_exact(),
        r_min=r_min,
        r_max=r_max,
    )
