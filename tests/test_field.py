import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vpshell import (
    ClassSpec,
    Ensemble,
    InitialData,
    SortedMassIndex,
    default_grid_edges,
    density_estimate,
    sample_ensemble,
    sup_norms,
)
from vpshell.bounds import confinement_lower_bounds


def ensemble_at(radii, weights, ids=None):
    radii = np.asarray(radii, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = radii.size
    if ids is None:
        ids = np.arange(n)
    return Ensemble(
        r=radii,
        w=np.zeros(n),
        ell=np.full(n, 1e-6),
        weight=weights,
        ids=np.asarray(ids, dtype=np.int64),
    )


class TestEnclosedMass:
    def test_three_shell_example(self):
        idx = SortedMassIndex.from_ensemble(
            ensemble_at([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        )
        assert idx.enclosed_mass(2.5) == pytest.approx(0.3, rel=1e-15)
        # half weight exactly at a shell radius
        assert idx.enclosed_mass(2.0) == pytest.approx(0.2, rel=1e-15)
        assert idx.enclosed_mass(0.5) == 0.0
        assert idx.enclosed_mass(10.0) == pytest.approx(0.6, rel=1e-15)

    def test_midpoint_at_atoms(self):
        idx = SortedMassIndex.from_ensemble(
            ensemble_at([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        )
        below = idx.enclosed_mass(2.0 - 1e-12)
        above = idx.enclosed_mass(2.0 + 1e-12)
        assert idx.enclosed_mass(2.0) == pytest.approx(0.5 * (below + above), rel=1e-12)

    @given(
        radii=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=30),
        query=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=10),
    )
    def test_nondecreasing(self, radii, query):
        idx = SortedMassIndex.from_ensemble(ensemble_at(radii, np.ones(len(radii))))
        q = np.sort(np.asarray(query))
        m = idx.enclosed_mass(q)
        assert np.all(np.diff(m) >= 0.0)
        assert np.all(m >= 0.0) and np.all(m <= idx.total_mass)

    def test_vector_evaluation(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([1.0], [1.0]))
        out = idx.enclosed_mass(np.array([0.5, 1.0, 2.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestField:
    def test_point_values(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([1.0, 2.0], [0.2, 0.1]))
        assert idx.field_at(1.5) == pytest.approx(0.2 / 1.5**2, rel=1e-15)
        assert idx.field_at(0.5) == 0.0
        assert idx.field_at(2.5) == pytest.approx(0.3 / 2.5**2, rel=1e-15)
        with pytest.raises(ValueError):
            idx.field_at(0.0)
        with pytest.raises(ValueError):
            idx.field_at(float("nan"))
        with pytest.raises(ValueError):
            idx.field_at(np.array([1.5, np.nan]))

    def test_unit_mass_example(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([0.5], [1.0]))
        assert idx.field_at(1.0) == 1.0
        assert idx.field_at(2.5) == pytest.approx(0.16, rel=1e-15)

    def test_e_sup_two_shells(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([1.0, 2.0], [0.5, 0.5]))
        # right limits: 0.5/1 at r=1, 1.0/4 at r=2
        assert idx.e_sup_exact() == 0.5

    @given(m=st.floats(1e-6, 1e3), b=st.floats(1e-3, 1e3))
    def test_e_sup_single_shell_saturates_exactly(self, m, b):
        ens = ensemble_at([b], [m])
        idx = SortedMassIndex.from_ensemble(ens)
        lb = confinement_lower_bounds(m, b)
        assert idx.e_sup_exact() == lb.e_lower
        assert sup_norms(ens, idx).rho_sup_certified == lb.rho_lower

    def test_e_sup_exceeds_any_sampled_value(self):
        rng = np.random.default_rng(3)
        ens = ensemble_at(rng.uniform(0.2, 3.0, 200), rng.uniform(0, 1e-2, 200))
        idx = SortedMassIndex.from_ensemble(ens)
        sup = idx.e_sup_exact()
        samples = idx.field_at(np.linspace(0.05, 4.0, 999))
        assert sup >= np.max(samples) - 1e-15 * sup


class TestInteriorMass:
    def test_excludes_self_and_halves_ties(self):
        ens = ensemble_at([1.0, 1.0, 2.0], [0.2, 0.4, 0.1])
        idx = SortedMassIndex.from_ensemble(ens)
        m = idx.interior_mass()
        # each coincident shell feels half the other's weight, never its own
        assert m[0] == pytest.approx(0.2, rel=1e-15)
        assert m[1] == pytest.approx(0.1, rel=1e-15)
        assert m[2] == pytest.approx(0.6, rel=1e-15)

    def test_tie_convention_independent_of_input_order(self):
        a = ensemble_at([1.0, 1.0, 2.0], [0.2, 0.4, 0.1], ids=[0, 1, 2])
        b = ensemble_at([2.0, 1.0, 1.0], [0.1, 0.4, 0.2], ids=[2, 1, 0])
        ma = SortedMassIndex.from_ensemble(a).interior_mass()
        mb = SortedMassIndex.from_ensemble(b).interior_mass()
        # same physical shells, reversed storage order
        assert ma.tolist() == mb[::-1].tolist()

    def test_distinct_radii_reduce_to_strict_interior(self):
        ens = ensemble_at([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        m = SortedMassIndex.from_ensemble(ens).interior_mass()
        assert m.tolist() == [0.0, pytest.approx(0.1), pytest.approx(0.3)]


    @pytest.mark.parametrize(
        "radii",
        [
            pytest.param([2.0, 1.0, 3.0, 1.0, 3.0], id="ties-first-and-last"),
            pytest.param([1.5], id="single-shell"),
            pytest.param([0.7] * 5, id="all-equal"),
        ],
    )
    def test_bitwise_equal_to_searchsorted_bounds(self, radii):
        weights = np.linspace(0.1, 0.5, len(radii))
        self._assert_matches_searchsorted(ensemble_at(radii, weights))

    def test_sampled_ensemble_bitwise_equal_to_searchsorted_bounds(self):
        data = InitialData.from_spec(ClassSpec(a0=1.0, a1=-25.0, eps=0.2))
        ens = sample_ensemble(data, 6, 5, 4)
        # at t = 0 each grid radius is shared by up to n_w * n_ell shells
        _, shared = np.unique(ens.r, return_counts=True)
        assert shared.size == 6 and np.all(shared > 1) and np.max(shared) <= 20
        self._assert_matches_searchsorted(ens)

    @staticmethod
    def _assert_matches_searchsorted(ens):
        idx = SortedMassIndex.from_ensemble(ens)
        lo = np.searchsorted(idx.radii, idx.radii, side="left")
        hi = np.searchsorted(idx.radii, idx.radii, side="right")
        expected = np.empty(len(idx))
        expected[idx.order] = idx.cum[lo] + 0.5 * ((idx.cum[hi] - idx.cum[lo]) - idx.weights)
        assert idx.interior_mass().tobytes() == expected.tobytes()


class TestDensityGrid:
    def test_single_bin_ball_density(self):
        ens = ensemble_at([0.7], [2.0])
        grid = density_estimate(ens, np.array([0.0, 1.0]))
        assert grid.bin_values[0] == pytest.approx(3.0 * 2.0 / (4.0 * np.pi), rel=1e-14)
        assert grid.captured_mass == 2.0

    def test_mass_consistency(self):
        rng = np.random.default_rng(11)
        ens = ensemble_at(rng.uniform(0.3, 2.0, 500), rng.uniform(0, 1e-3, 500))
        edges = default_grid_edges(float(np.min(ens.r)), float(np.max(ens.r)))
        grid = density_estimate(ens, edges)
        assert grid.captured_mass == pytest.approx(ens.total_mass, rel=1e-12)
        recovered = float(np.sum(grid.bin_values * grid.bin_volumes))
        assert recovered == pytest.approx(grid.captured_mass, rel=1e-12)

    def test_edge_validation(self):
        ens = ensemble_at([1.0], [1.0])
        with pytest.raises(ValueError):
            density_estimate(ens, np.array([1.0]))
        with pytest.raises(ValueError):
            density_estimate(ens, np.array([1.0, 1.0, 2.0]))

    def test_default_edges_cover_all_shells(self):
        edges = default_grid_edges(0.5, 2.0, n_bins=64)
        assert edges.size == 65
        assert edges[0] == 0.25
        assert edges[-1] == pytest.approx(2.02, rel=1e-15)
        with pytest.raises(ValueError):
            default_grid_edges(0.0, 1.0)
        with pytest.raises(ValueError):
            default_grid_edges(1.0, 2.0, n_bins=0)


class TestSupNorms:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empty = Ensemble.from_shells([])
            sup_norms(empty, SortedMassIndex.from_ensemble(empty))

    def test_certified_below_binned_for_spread_ensemble(self):
        # certified bound treats all mass as a ball of radius r_max, so it
        # cannot exceed the actual sup estimate by construction
        rng = np.random.default_rng(5)
        ens = ensemble_at(rng.uniform(0.5, 1.5, 400), rng.uniform(0, 1e-3, 400))
        sn = sup_norms(ens, SortedMassIndex.from_ensemble(ens))
        assert sn.rho_sup_certified <= sn.rho_sup_binned * (1 + 1e-12)
        assert sn.r_min == float(np.min(ens.r))
        assert sn.r_max == float(np.max(ens.r))

    def test_bin_count_propagates(self):
        rng = np.random.default_rng(21)
        ens = ensemble_at(rng.uniform(0.5, 1.5, 300), rng.uniform(0, 1e-3, 300))
        idx = SortedMassIndex.from_ensemble(ens)
        coarse = sup_norms(ens, idx, n_bins=4)
        fine = sup_norms(ens, idx, n_bins=256)
        assert coarse.rho_sup_binned != fine.rho_sup_binned
        # binning cannot change the exact and certified values
        assert coarse.e_sup_exact == fine.e_sup_exact
        assert coarse.rho_sup_certified == fine.rho_sup_certified

    def test_all_mass_inside_default_grid(self):
        rng = np.random.default_rng(9)
        ens = ensemble_at(rng.uniform(0.5, 1.5, 100), rng.uniform(0, 1e-3, 100))
        edges = default_grid_edges(float(np.min(ens.r)), float(np.max(ens.r)))
        grid = density_estimate(ens, edges)
        assert grid.captured_mass == pytest.approx(ens.total_mass, rel=1e-13)
