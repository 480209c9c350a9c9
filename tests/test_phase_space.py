import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpshell import Ensemble, RadialCoordinates, from_radial, to_radial


def test_to_radial_orthogonal_unit_vectors():
    c = to_radial([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert (c.r, c.w, c.ell) == (1.0, 0.0, 1.0)


def test_to_radial_purely_radial_motion():
    c = to_radial([0.0, 0.0, 2.0], [0.0, 0.0, -3.0])
    assert (c.r, c.w, c.ell) == (2.0, -3.0, 0.0)


def test_to_radial_oblique_case():
    # x.v = 7, |x| = 5, x cross v = (0, 0, -1)
    c = to_radial([3.0, 4.0, 0.0], [1.0, 1.0, 0.0])
    assert c.r == 5.0
    assert c.w == pytest.approx(1.4, rel=1e-15)
    assert c.ell == pytest.approx(1.0, rel=1e-15)


def test_to_radial_rejects_origin():
    with pytest.raises(ValueError):
        to_radial([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


@given(
    r=st.floats(1e-3, 1e3),
    w=st.floats(-1e3, 1e3),
    ell=st.floats(0.0, 1e6),
)
def test_round_trip_from_radial(r, w, ell):
    coords = RadialCoordinates(r=r, w=w, ell=ell)
    x, v = from_radial(coords)
    back = to_radial(x, v)
    assert back.r == pytest.approx(r, rel=1e-12)
    assert back.w == pytest.approx(w, rel=1e-12, abs=1e-12 * max(r, 1.0))
    assert back.ell == pytest.approx(ell, rel=1e-12, abs=1e-20)


@given(
    x=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    v=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
)
def test_speed_decomposition_identity(x, v):
    x = np.asarray(x)
    v = np.asarray(v)
    if np.linalg.norm(x) < 1e-6:
        return
    c = to_radial(x, v)
    assert c.ell >= 0.0
    speed_sq = float(np.dot(v, v))
    assert c.speed_squared == pytest.approx(speed_sq, rel=1e-9, abs=1e-12)


def test_coordinate_validation():
    with pytest.raises(ValueError):
        RadialCoordinates(r=0.0, w=1.0, ell=1.0)
    with pytest.raises(ValueError):
        RadialCoordinates(r=1.0, w=1.0, ell=-1.0)


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
