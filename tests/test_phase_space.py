import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpshell import Ensemble


@given(
    x=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    v=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
)
def test_speed_decomposition_identity(x, v):
    """w^2 + ell/r^2 = |v|^2 for r = |x|, w = x.v/r, ell = |x cross v|^2."""
    x = np.asarray(x)
    v = np.asarray(v)
    r = float(np.linalg.norm(x))
    if r < 1e-6:
        return
    w = float(np.dot(x, v)) / r
    ell = float(np.sum(np.cross(x, v) ** 2))
    speed_sq = float(np.dot(v, v))
    assert w**2 + ell / r**2 == pytest.approx(speed_sq, rel=1e-9, abs=1e-12)


def test_reduced_mass_empty_and_single():
    empty = np.empty(0)
    assert Ensemble(empty, empty, empty, empty, np.empty(0, dtype=np.int64)).total_mass == 0.0
    assert Ensemble.single(r=1.0, w=0.0, ell=1.0, weight=0.5).total_mass == 0.5
    # a single shell follows the ensemble's weight rule, >= 0
    assert Ensemble.single(r=1.0, w=0.0, ell=1.0, weight=0.0).total_mass == 0.0


def test_ensemble_rejects_negative_weight_and_bad_shapes():
    with pytest.raises(ValueError):
        Ensemble(
            r=np.array([1.0]),
            w=np.array([0.0]),
            ell=np.array([1.0]),
            weight=np.array([-1.0]),
            ids=np.array([0]),
        )
    with pytest.raises(ValueError):
        Ensemble(
            r=np.array([1.0, 2.0]),
            w=np.array([0.0]),
            ell=np.array([1.0]),
            weight=np.array([1.0]),
            ids=np.array([0]),
        )


def test_ensemble_refuses_nan_weight():
    """A NaN weight would make total_mass NaN for every later state."""
    with pytest.raises(ValueError, match="shell weights must be nonnegative"):
        Ensemble.single(r=1.0, w=0.0, ell=1.0, weight=float("nan"))


@pytest.mark.parametrize("time", [-1.0, float("nan")])
def test_ensemble_rejects_negative_or_nan_time(time):
    with pytest.raises(ValueError, match="ensemble time must be nonnegative"):
        Ensemble.single(r=1.0, w=0.0, ell=1.0, weight=1.0, time=time)


@pytest.mark.parametrize("ids", [np.arange(2), np.arange(4), np.zeros((3, 1), dtype=np.int64)],
                         ids=["short", "long", "2-D"])
def test_ensemble_rejects_ids_of_another_shape(ids):
    with pytest.raises(ValueError, match="'ids'"):
        Ensemble(r=np.ones(3), w=np.zeros(3), ell=np.ones(3), weight=np.ones(3), ids=ids)


def test_mass_error_is_bitwise_zero():
    rng = np.random.default_rng(7)
    n = 1000
    ens = Ensemble(
        r=rng.uniform(0.5, 2.0, n),
        w=rng.uniform(-1.0, 1.0, n),
        ell=rng.uniform(1e-4, 1.0, n),
        weight=rng.uniform(0.0, 1e-3, n),
        ids=np.arange(n),
    )
    assert ens.mass_error() == 0.0
    moved = ens.advanced(ens.r * 1.5, ens.w, time=1.0)
    assert moved.total_mass == ens.total_mass
    assert moved.mass_error() == 0.0


def test_total_mass_is_the_weight_sum_of_every_ensemble():
    """total_mass is not an argument: an ensemble made with other weights,
    by dataclasses.replace too, caches their sum."""
    ens = Ensemble.single(r=1.0, w=-1.0, ell=1.0, weight=0.5)
    heavier = dataclasses.replace(ens, weight=np.array([2.0]))
    assert heavier.total_mass == 2.0 and heavier.mass_error() == 0.0
    with pytest.raises(TypeError, match="total_mass"):
        Ensemble(r=np.ones(1), w=np.zeros(1), ell=np.ones(1), weight=np.ones(1),
                 ids=np.arange(1), total_mass=123.0)


class _CountingArray(np.ndarray):
    """An array that counts its `>=` comparisons."""

    comparisons = 0

    def __ge__(self, other):
        type(self).comparisons += 1
        return super().__ge__(other)


def test_advanced_checks_shapes_and_time_but_does_not_rescan_weights():
    weight = np.full(4, 0.25).view(_CountingArray)
    ens = Ensemble(r=np.ones(4), w=np.zeros(4), ell=np.ones(4), weight=weight, ids=np.arange(4))
    assert _CountingArray.comparisons == 1
    moved = ens
    for step in range(3):
        moved = moved.advanced(moved.r * 0.5, moved.w - 1.0, time=step + 1.0)
    assert _CountingArray.comparisons == 1
    assert moved.weight is ens.weight and moved.ell is ens.ell and moved.ids is ens.ids
    assert moved.total_mass == ens.total_mass == 1.0 and moved.time == 3.0
    with pytest.raises(ValueError, match="congruent"):
        ens.advanced(np.ones(3), np.zeros(3), time=1.0)
    with pytest.raises(ValueError, match="'w'"):
        ens.advanced(np.ones(4), np.zeros((4, 1)), time=1.0)
    with pytest.raises(ValueError, match="time"):
        ens.advanced(np.ones(4), np.zeros(4), time=-1.0)
