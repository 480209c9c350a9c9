"""Radial field quantities from a shell ensemble.

The enclosed mass m(t, r) and the field magnitude m/r^2 are derived from
a sorted-radius index.  The caller builds one index per ensemble state
and passes it to every consumer of that state (the integrator uses it
for the state's sup norms and for the next step's enclosed masses).  The
field is exact for the discrete measure (up to the tie convention at
coincident radii).  The density is a histogram estimate read off the
same index's prefix sums, and is reported alongside a certified lower
bound that is independent of binning.

The index order is the (radius, id) order of np.lexsort, whichever sort
computes it, so it never depends on the thread count.  A state whose
radii are native doubles in [tiny, inf), tiny the smallest normal
double, is sorted as one array of keys: each key is a radius's bit
pattern with its low b = (n-1).bit_length() bits replaced by the shell's
position.  Such a key is the bit pattern of a distinct, positive, normal
double, so sorting the keys as doubles orders them as their int64 bit
patterns, whatever the FPU's denormal mode.  Bit patterns of positive
doubles ascend with their values, so keys whose high bits differ are in
radius order, and the sorted keys' low bits are the order.  When no two
keys share their high bits the radii are distinct, so the order is
lexsort's and needs no tie scan.  Keys that do share them (exact ties,
or radii a few ulps apart) are reordered by (radius, id) with one
lexsort over their members only.  The empty ensemble, and a state with
a zero, negative, subnormal, infinite or NaN radius or with radii not
stored as native doubles, is lexsorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .phase_space import Ensemble

# Geometric bins of the density estimate in each row of a run.
N_BINS = 256


@dataclass(frozen=True)
class SortedMassIndex:
    """Shells sorted by (radius, id) with cumulative masses.

    cum[k] is the summed weight of the first k sorted shells, so mass
    strictly below / at / above any radius reads off the bounds of its
    tie group.  Tie convention: mass *at* a radius counts half, and a shell
    never feels its own weight (see interior_mass).

    The order is lexsort's whichever sort built it (see the module
    docstring): a sort of packed (radius, position) keys as doubles when
    every radius is a positive normal finite double, lexsort otherwise.
    group_ends is None when no two radii are equal.

    An index owns radii, weights, order and cum, which a build with
    out=index takes over; everything else its methods need they allocate.
    """

    radii: np.ndarray      # ascending
    weights: np.ndarray    # aligned with radii
    order: np.ndarray      # ensemble position of each sorted entry
    cum: np.ndarray        # length n + 1, cum[0] = 0
    group_ends: Optional[np.ndarray]  # one past the last position of each tie group
    total_mass: float

    @classmethod
    def from_ensemble(cls, ensemble: Ensemble, out: "SortedMassIndex" = None) -> "SortedMassIndex":
        """Index of ensemble's state.

        The new index is built in the arrays of out, an index of the same
        length, which is invalid afterwards.
        """
        n = len(ensemble)
        if out is None:
            radii, weights, cum, order = np.empty(n), np.empty(n), np.empty(n + 1), None
        else:
            radii, weights, cum, order = out.radii, out.weights, out.cum, out.order
        order, group_ends = _sort_by_radius_then_id(ensemble.r, ensemble.ids, radii, order)
        # unbuffered gather, as in _sort_by_radius_then_id
        np.take(ensemble.weight, order, out=weights, mode="wrap")
        cum[0] = 0.0
        np.cumsum(weights, out=cum[1:])
        return cls(
            radii=radii,
            weights=weights,
            order=order,
            cum=cum,
            group_ends=group_ends,
            total_mass=ensemble.total_mass,
        )

    def __len__(self) -> int:
        return self.radii.size

    def interior_mass(self, out: np.ndarray = None) -> np.ndarray:
        """Per-shell mass felt by each shell, in ensemble order.

        Strictly interior shells count in full, coincident shells at half
        weight, the shell itself never.  This is the enclosed-mass value
        each shell uses in its own equation of motion.  Written into out
        when given.
        """
        # each shell's tie group spans sorted positions [lo, hi), so cum[lo]
        # is the mass below it and cum[hi] the mass up to and including it
        cum, ends = self.cum, self.group_ends
        if ends is None:
            # no ties: shell k's group is [k, k + 1)
            below, upto = cum[:-1], cum[1:]
        else:
            sizes = np.diff(ends, prepend=0)
            below = cum[np.repeat(ends - sizes, sizes)]
            upto = cum[np.repeat(ends, sizes)]
        interior_sorted = np.subtract(upto, below)
        np.subtract(interior_sorted, self.weights, out=interior_sorted)
        np.multiply(interior_sorted, 0.5, out=interior_sorted)
        np.add(below, interior_sorted, out=interior_sorted)
        if out is None:
            out = np.empty(len(self))
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
        ends = self.group_ends
        if ends is None:
            # no ties: every radius ends its own group
            r, below_or_at = self.radii, self.cum[1:]
        else:
            r, below_or_at = self.radii[ends - 1], self.cum[ends]
        # explicit multiply keeps the squaring bit-identical to the
        # confinement bound without leaning on numpy's ** lowering
        quotient = np.multiply(r, r)
        return float(np.max(np.divide(below_or_at, quotient, out=quotient)))


def _sort_by_radius_then_id(r, ids, radii, order):
    """(order, tie-group ends) of np.lexsort((ids, r)), the ends None
    when no two radii are equal; the sorted radii go into radii.

    Radii that are all native doubles in [tiny, inf) are sorted by packed
    keys (see the module docstring); the order is written into order
    when that is given.  An order is a permutation, so the gathers by it
    take mode="wrap", which writes into their out directly where the
    default mode="raise" buffers.
    """
    n = r.size
    if (
        n == 0
        # only these radii give keys that are normal doubles, which sort
        # as their bit patterns
        or r.dtype != np.float64
        or not np.min(r) >= np.finfo(np.float64).tiny
        or not np.max(r) < np.inf
    ):
        order = np.lexsort((ids, r))
        np.take(r, order, out=radii, mode="wrap")
        return order, _tie_group_ends(radii)
    if order is None:
        order = np.empty(n, dtype=np.intp)
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    keys = np.bitwise_and(r.view(np.int64), ~low)
    np.bitwise_or(keys, np.arange(n), out=keys)
    keys.view(np.float64).sort()
    np.bitwise_and(keys, low, out=order)
    high = np.right_shift(keys, b, out=keys)
    shared = high[1:] == high[:-1]
    if not shared.any():
        np.take(r, order, out=radii, mode="wrap")
        return order, None
    # A run of keys sharing their high bits is in position order.  Runs
    # are in radius order among themselves, so one lexsort over all run
    # members, written back to their slots, orders each run by (r, id).
    member = np.append(shared, False)
    member[1:] |= shared
    slots = np.flatnonzero(member)
    shells = order[slots]
    order[slots] = shells[np.lexsort((ids[shells], r[shells]))]
    np.take(r, order, out=radii, mode="wrap")
    return order, _tie_group_ends(radii)


def _tie_group_ends(radii: np.ndarray) -> Optional[np.ndarray]:
    """One past the last position of each run of equal ascending radii,
    None if no two radii are equal."""
    last = np.append(radii[1:] != radii[:-1], True)
    return None if last.all() else np.flatnonzero(last) + 1


@dataclass(frozen=True)
class DensityGrid:
    """Histogram density estimate on radial bins.

    Bin masses are the primary data; values are mass / shell-volume, so
    the mass-consistency identity sum(value * volume) = sum(bin_masses)
    is structural.
    """

    bin_edges: np.ndarray
    bin_masses: np.ndarray

    @property
    def bin_volumes(self) -> np.ndarray:
        return 4.0 * np.pi / 3.0 * np.diff(self.bin_edges**3)

    @property
    def bin_values(self) -> np.ndarray:
        return self.bin_masses / self.bin_volumes


def default_grid_edges(r_min: float, r_max: float) -> np.ndarray:
    """Edges of N_BINS geometric bins from r_min/2 to r_max * 1.01.

    Geometric spacing resolves the many-decades radius range that opens
    up during focusing.
    """
    if not (r_min > 0 and r_max >= r_min):
        raise ValueError("need 0 < r_min <= r_max")
    return np.geomspace(0.5 * r_min, 1.01 * r_max, N_BINS + 1)


def density_estimate(index: SortedMassIndex, bin_edges: np.ndarray) -> DensityGrid:
    """Bin shell weights by radius and divide by shell-volume per bin.

    Bin masses are differences of the index's prefix sums at the edges.
    Bins are half-open [lo, hi) except the last, which is closed, as in
    np.histogram.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or bin_edges.size < 2:
        raise ValueError("bin_edges must list at least two ascending radii")
    if np.any(np.diff(bin_edges) <= 0):
        raise ValueError("bin_edges must be strictly ascending")
    pos = np.searchsorted(index.radii, bin_edges, side="left")
    pos[-1] = np.searchsorted(index.radii, bin_edges[-1], side="right")
    masses = np.diff(index.cum[pos])
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


def sup_norms(index: SortedMassIndex) -> SupNorms:
    """Sup norms of the state that index was built from; the density is
    binned from the index on default_grid_edges(r_min, r_max)."""
    if len(index) == 0:
        raise ValueError("sup norms are undefined for an empty ensemble")
    r_min = float(index.radii[0])
    r_max = float(index.radii[-1])
    grid = density_estimate(index, default_grid_edges(r_min, r_max))
    certified = 3.0 * index.total_mass / (4.0 * np.pi * r_max**3)
    return SupNorms(
        rho_sup_binned=float(np.max(grid.bin_values)),
        rho_sup_certified=certified,
        e_sup_exact=index.e_sup_exact(),
        r_min=r_min,
        r_max=r_max,
    )
