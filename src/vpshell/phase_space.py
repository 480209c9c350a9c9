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
class RadialCoordinates:
    """A point (r, w, ell) of the reduced phase space.

    r : radius, > 0
    w : radial velocity (w < 0 means inward motion)
    ell : squared angular momentum, >= 0
    """

    r: float
    w: float
    ell: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"radius must be positive, got r={self.r}")
        if self.ell < 0:
            raise ValueError(f"squared angular momentum must be >= 0, got ell={self.ell}")

    @property
    def speed_squared(self) -> float:
        """|v|^2 of any Cartesian realization: w^2 + ell / r^2."""
        return self.w**2 + self.ell / self.r**2


def to_radial(x, v) -> RadialCoordinates:
    """Map a Cartesian (position, velocity) pair to reduced coordinates.

    Returns (|x|, x.v/|x|, |x cross v|^2).  Raises ValueError at x = 0,
    where the radial decomposition is undefined.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("radial coordinates are undefined at the origin (|x| = 0)")
    w = float(np.dot(x, v)) / r
    cross = np.cross(x, v)
    ell = float(np.dot(cross, cross))
    return RadialCoordinates(r=r, w=w, ell=ell)


def from_radial(coords: RadialCoordinates):
    """A canonical Cartesian realization of (r, w, ell).

    Places the point on the x-axis with the tangential velocity along y;
    to_radial of the result reproduces coords exactly.
    """
    r = coords.r
    x = np.array([r, 0.0, 0.0])
    v = np.array([coords.w, np.sqrt(coords.ell) / r, 0.0])
    return x, v


@dataclass(frozen=True)
class Ensemble:
    """Time-stamped collection of shells, stored as parallel arrays.

    total_mass caches the weight sum at construction.  Evolution steps
    carry the weight array through untouched, so the bookkeeping identity
    sum(weight) == total_mass holds bitwise along an entire run.
    """

    r: np.ndarray
    w: np.ndarray
    ell: np.ndarray
    weight: np.ndarray
    ids: np.ndarray
    time: float = 0.0
    total_mass: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self._check_shapes_and_time()
        if not np.all(self.weight >= 0):  # NaN too
            raise ValueError("shell weights must be nonnegative")
        if self.total_mass is None:
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
        RadialCoordinates(r, w, ell)  # refuses r <= 0 and ell < 0
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

