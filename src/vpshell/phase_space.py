"""Reduced phase-space coordinates and shell ensembles.

A spherically symmetric particle distribution is fully described by the
radius r = |x|, the radial velocity w = x.v/r, and the squared angular
momentum ell = |x cross v|^2.  A *shell* is one weighted characteristic in
these coordinates; an *ensemble* is the collection of shells that
discretizes the distribution, stored as parallel arrays with one entry
per shell.  Weights discretize the reduced-coordinate measure
4 pi^2 f dl dw dr, so the weight sum is the total mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REDUCED_MEASURE = 4.0 * np.pi**2


@dataclass(frozen=True)
class Ensemble:
    """Time-stamped collection of shells, stored as parallel arrays.

    total_mass caches the weight sum at construction; it is not an
    argument, so dataclasses.replace sums the new weights.  Evolution
    steps carry the weight array through untouched, so the bookkeeping
    identity sum(weight) == total_mass holds bitwise along an entire run.
    """

    r: np.ndarray
    w: np.ndarray
    ell: np.ndarray
    weight: np.ndarray
    ids: np.ndarray
    time: float = 0.0
    total_mass: float = field(init=False)

    def __post_init__(self):
        self._check_shapes_and_time()
        if not np.all(self.weight >= 0):  # NaN too
            raise ValueError("shell weights must be nonnegative")
        object.__setattr__(self, "total_mass", float(np.sum(self.weight)))

    def _check_shapes_and_time(self):
        for name in ("r", "w", "ell", "weight", "ids"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape != self.r.shape:
                raise ValueError(f"ensemble array {name!r} must be 1-D and congruent")
        if not self.time >= 0:  # NaN too: integrate would never reach t_end
            raise ValueError(f"ensemble time must be nonnegative, got {self.time!r}")

    def __len__(self) -> int:
        return self.r.size

    @classmethod
    def single(cls, r: float, w: float, ell: float, weight: float, time: float = 0.0) -> "Ensemble":
        """The one-shell ensemble of the point (r, w, ell), id 0."""
        return cls(
            r=np.array([r], dtype=float),
            w=np.array([w], dtype=float),
            ell=np.array([ell], dtype=float),
            weight=np.array([weight], dtype=float),
            ids=np.zeros(1, dtype=np.int64),
            time=time,
        )

    def advanced(self, r: np.ndarray, w: np.ndarray, time: float) -> "Ensemble":
        """New ensemble with updated positions/velocities and the same
        weights, ids, ell, and cached total mass; the weights, checked when
        the first ensemble was made, are not scanned again."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, r=r, w=w, time=time)
        new._check_shapes_and_time()
        return new

    def mass_error(self) -> float:
        """Recomputed weight sum minus the cached total mass.

        Zero to the last bit as long as the weight array is never mutated
        (it never is: np.sum over an identical array is deterministic).
        """
        return float(np.sum(self.weight)) - self.total_mass

