import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vpshell.field
from vpshell import (
    ClassSpec,
    Ensemble,
    InitialData,
    IntegratorConfig,
    SortedMassIndex,
    default_grid_edges,
    density_estimate,
    design_small_data,
    integrate,
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


def near_sorted(ascending, swaps):
    """ascending with `swaps` disjoint adjacent pairs exchanged."""
    r = np.array(ascending, dtype=float)
    for k in range(swaps):
        i = 3 * k * (r.size // (3 * swaps))
        r[i], r[i + 1] = r[i + 1], r[i]
    return r


class TestField:
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
        assert sup_norms(idx).rho_sup_certified == lb.rho_lower

    def test_e_sup_exceeds_any_sampled_value(self):
        rng = np.random.default_rng(3)
        ens = ensemble_at(rng.uniform(0.2, 3.0, 200), rng.uniform(0, 1e-2, 200))
        idx = SortedMassIndex.from_ensemble(ens)
        sup = idx.e_sup_exact()
        # m(q)/q^2, m(q) the mass strictly inside q plus half the mass at q
        q = np.linspace(0.05, 4.0, 999)
        r, m = ens.r[:, None], ens.weight[:, None]
        inside = np.sum(np.where(r < q, m, 0.0), axis=0)
        at = np.sum(np.where(r == q, m, 0.0), axis=0)
        assert sup >= np.max((inside + 0.5 * at) / q**2) - 1e-15 * sup


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
            # distinct radii take the tie-free path under both sorts
            pytest.param([0.5, 1.0, 2.0, 3.0], id="sorted-distinct"),
            pytest.param([2.0, 0.5, 3.0, 1.0, 2.5], id="scrambled-distinct"),
            pytest.param(
                np.random.default_rng(2).permutation(np.geomspace(0.01, 5.0, 3000)),
                id="scrambled-distinct-3000",
            ),
            pytest.param(near_sorted(np.geomspace(0.01, 5.0, 3000), 20), id="near-sorted-3000"),
        ],
    )
    def test_bitwise_equal_to_searchsorted_bounds(self, radii):
        weights = np.linspace(0.1, 0.5, len(radii))
        self._assert_matches_searchsorted(ensemble_at(radii, weights))

    def test_one_tie_scan_per_index(self, monkeypatch):
        """A build that lexsorts all shells and a packed build whose keys
        collide scan the sorted radii for ties once; a collision-free
        packed build, whose radii are proven distinct, never does."""
        scan = vpshell.field._tie_group_ends
        build = SortedMassIndex.from_ensemble
        scans, expected = [], []

        def counting_scan(radii, *args):
            scans.append(radii.size)
            return scan(radii, *args)

        def counting_build(ensemble, **kwargs):
            r = ensemble.r
            expected.append(0 if packable(r) and not packed_keys_collide(r) else 1)
            return build(ensemble, **kwargs)

        monkeypatch.setattr(vpshell.field, "_tie_group_ends", counting_scan)
        monkeypatch.setattr(SortedMassIndex, "from_ensemble", staticmethod(counting_build))
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.05)
        ens = sample_ensemble(InitialData.from_spec(cert.spec), 8, 8, 6)
        t_end = 3.0 * cert.t_horizon
        result = integrate(ens, IntegratorConfig(t_end=t_end, dt_max=t_end / 150))
        assert len(expected) == result.steps + 1
        # the run has packed builds with and without colliding keys
        assert 0 < sum(expected) < len(expected)
        # plus states whose keys collide and states lexsorted in full
        for r in (
            adjacent_float_chains(40, 5, seed=1),
            np.array([2.0, 1.0, 2.0, 0.5, 1.0, 3.0]),
            np.append(SCRAMBLED_40, 0.0),
            np.append(SCRAMBLED_40, np.inf),
        ):
            SortedMassIndex.from_ensemble(ensemble_at(r, np.ones(r.size)))
            assert expected[-1] == 1
        assert len(scans) == sum(expected)

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
        e_sup = np.max(idx.cum[hi] / (idx.radii * idx.radii))
        assert idx.e_sup_exact() == e_sup


def assert_lexsort_order(ens):
    idx = SortedMassIndex.from_ensemble(ens)
    order = np.lexsort((ens.ids, ens.r))
    radii = ens.r[order]
    assert idx.order.tobytes() == order.tobytes()
    assert idx.radii.tobytes() == radii.tobytes()
    # group_ends is None exactly when no two radii are equal
    last = np.append(radii[1:] != radii[:-1], True)
    if last.all():
        assert idx.group_ends is None
    else:
        assert idx.group_ends.tolist() == (np.flatnonzero(last) + 1).tolist()


def packable(r):
    """Whether r's index is built by sorting packed keys: r is a nonempty
    array of native doubles in [tiny, inf)."""
    return (
        r.size > 0
        and r.dtype == np.float64
        and np.min(r) >= np.finfo(np.float64).tiny
        and np.max(r) < np.inf
    )


def packed_keys_collide(r):
    """Whether two of r's packed sort keys share their high bits: the
    bits above the low (n-1).bit_length() ones that hold a position."""
    high = np.sort(r.view(np.int64) >> (r.size - 1).bit_length())
    return bool(np.any(high[1:] == high[:-1]))


def adjacent_float_chains(n_chains, length, seed, lo=0.5, hi=2.0):
    """n_chains runs of `length` adjacent doubles (np.nextafter steps from
    a random start), shuffled together."""
    rng = np.random.default_rng(seed)
    r = np.empty((n_chains, length))
    r[:, 0] = rng.uniform(lo, hi, n_chains)
    for k in range(1, length):
        r[:, k] = np.nextafter(r[:, k - 1], np.inf)
    return rng.permutation(r.ravel())


def lexsort_sizes(monkeypatch, ens):
    """Sizes of the lexsorts that building ens's index runs."""
    sizes, lexsort = [], np.lexsort
    with monkeypatch.context() as m:
        m.setattr(np, "lexsort", lambda keys: sizes.append(len(keys[-1])) or lexsort(keys))
        SortedMassIndex.from_ensemble(ens)
    return sizes


SCRAMBLED_40 = np.random.default_rng(6).permutation(np.geomspace(0.1, 9.0, 40))


def ids_for(data, n):
    """n distinct ids in an order drawn by hypothesis, not ascending."""
    ids = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n, unique=True))
    return np.asarray(ids, dtype=np.int64)


class TestIndexOrder:
    """Whichever sort builds the index, its order is lexsort's."""

    @given(
        radii=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=200, unique=True),
        data=st.data(),
    )
    def test_scrambled_distinct_radii(self, radii, data):
        r = np.asarray(data.draw(st.permutations(radii)))
        assert_lexsort_order(ensemble_at(r, np.ones(r.size), ids_for(data, r.size)))

    @given(n=st.integers(100, 1000), swaps=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
    def test_near_sorted_distinct_radii(self, n, swaps, seed):
        rng = np.random.default_rng(seed)
        ascending = np.unique(rng.uniform(0.01, 10.0, n))
        r = near_sorted(ascending, min(swaps, ascending.size // 100))
        assert_lexsort_order(ensemble_at(r, np.ones(r.size), rng.permutation(r.size)))

    @given(
        radii=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan])
            | st.floats(allow_nan=True, allow_infinity=True),
            max_size=60,
        ),
        data=st.data(),
    )
    def test_ties_signed_zeros_inf_and_nan(self, radii, data):
        r = np.asarray(radii, dtype=float)
        assert_lexsort_order(ensemble_at(r, np.ones(r.size), ids_for(data, r.size)))

    @pytest.mark.parametrize(
        "radii, ids",
        [
            ([], []),
            ([1.0], [7]),
            ([2.0, 1.0], [5, 3]),
            ([1.0, 2.0], [5, 3]),
            ([1.0, 1.0], [5, 3]),
            ([0.0, -0.0], [5, 3]),
            ([np.nan, np.nan], [5, 3]),
            ([np.nan, 1.0], [5, 3]),
            ([np.inf, np.inf], [5, 3]),
        ],
    )
    def test_up_to_two_shells(self, radii, ids):
        assert_lexsort_order(ensemble_at(radii, np.ones(len(radii)), ids))

    @given(
        n_chains=st.integers(1, 60), length=st.integers(3, 40), seed=st.integers(0, 2**32 - 1)
    )
    def test_scrambled_chains_of_adjacent_floats(self, n_chains, length, seed):
        # three adjacent doubles span at most two blocks of 2^b >= 4 bit
        # patterns, so two of them share their keys' high bits
        r = adjacent_float_chains(n_chains, length, seed)
        assert packed_keys_collide(r)
        ids = np.random.default_rng(seed).permutation(r.size)
        assert_lexsort_order(ensemble_at(r, np.ones(r.size), ids))

    @pytest.mark.parametrize(
        "radii, packed",
        [
            pytest.param(
                np.concatenate((np.repeat([0.25, 1.0, 1.5], [3, 2, 4]), np.geomspace(0.1, 9.0, 40))),
                True,
                id="exact-ties",
            ),
            pytest.param(
                np.concatenate(([np.inf] * 3, np.geomspace(0.1, 9.0, 40))), False, id="inf"
            ),
            pytest.param(
                np.concatenate((
                    [5e-324, 1e-323, 5e-324, 2.5e-310, 2.5e-310, 1e-309, 2.2250738585072014e-308],
                    np.geomspace(1e-300, 1.0, 40),
                )),
                False,
                id="subnormal",
            ),
        ],
    )
    def test_ties_are_packed_inf_and_subnormals_lexsorted(self, radii, packed, monkeypatch):
        r = np.random.default_rng(4).permutation(radii)
        ens = ensemble_at(r, np.ones(r.size), ids=np.random.default_rng(5).permutation(r.size))
        assert packed_keys_collide(r) and packable(r) == packed
        sizes = lexsort_sizes(monkeypatch, ens)
        if packed:
            # only the colliding keys' members are lexsorted, never all shells
            assert 0 < max(sizes) < r.size
        else:
            # an inf or subnormal radius has no normal-double key
            assert sizes == [r.size]
        assert_lexsort_order(ens)

    @pytest.mark.parametrize("n", [2, 1000, 4097])
    def test_radii_at_the_normal_extremes(self, n, monkeypatch):
        # tiny, max and radii a few parts in 2^20 from them, shuffled:
        # packed without collisions, in lexsort's order
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        steps = np.arange(n // 2) * 2.0**-20
        r = np.concatenate((tiny * (1.0 + steps), big * (1.0 - steps), [1.0] * (n % 2)))
        rng = np.random.default_rng(n)
        r = rng.permutation(r)
        ens = ensemble_at(r, np.ones(n), ids=rng.permutation(n))
        assert packable(r) and not packed_keys_collide(r)
        assert lexsort_sizes(monkeypatch, ens) == []
        assert_lexsort_order(ens)

    def test_packed_keys_of_the_extremes_stay_normal(self):
        # at every key width up to 52 bits, which no shell count exceeds,
        # tiny's lowest key is tiny and max's highest key is max, so a
        # key is never inf, NaN or subnormal
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        bits = np.array([tiny, big]).view(np.int64)
        for b in range(53):
            low = (1 << b) - 1
            keys = np.array([bits[0] & ~low, bits[1] & ~low | low])
            assert keys.view(np.float64).tolist() == [tiny, big]

    @given(
        radii=st.lists(
            st.floats(np.finfo(np.float64).tiny, np.finfo(np.float64).max)
            | st.sampled_from([np.finfo(np.float64).tiny, np.finfo(np.float64).max]),
            min_size=1,
            max_size=200,
        ),
        data=st.data(),
    )
    def test_normal_radii_over_their_whole_range(self, radii, data):
        r = np.asarray(radii)
        assert packable(r)
        assert_lexsort_order(ensemble_at(r, np.ones(r.size), ids_for(data, r.size)))

    def test_empty_ensemble(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([], []))
        assert len(idx) == 0 and idx.group_ends is None and idx.cum.tolist() == [0.0]
        assert idx.interior_mass().size == 0
        again = SortedMassIndex.from_ensemble(ensemble_at([], []), out=idx)
        assert len(again) == 0 and again.group_ends is None

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 4096, 4097])
    def test_key_width_follows_shell_count(self, n, monkeypatch):
        # pairs of radii 1024 ulps apart, the first on a 2048-ulp boundary:
        # their keys share high bits only once positions take 11 bits
        rng = np.random.default_rng(n)
        first = rng.choice(np.arange(1 << 12), n // 2, replace=False) << 11
        bits = np.concatenate((first, first + 1024, np.full(n % 2, 1 << 24)))
        r = rng.permutation(bits + np.float64(1.0).view(np.int64)).view(np.float64)
        b = (n - 1).bit_length()
        assert packed_keys_collide(r) == (b >= 11)
        ens = ensemble_at(r, np.ones(n), ids=rng.permutation(n))
        sizes = lexsort_sizes(monkeypatch, ens)
        assert sizes == ([] if b < 11 else [n - n % 2])
        assert_lexsort_order(ens)

    def test_big_endian_radii_are_lexsorted(self, monkeypatch):
        # the int64 view of a byte-swapped double is not its bit pattern
        r = SCRAMBLED_40.astype(">f8")
        ens = dataclasses.replace(ensemble_at(r, np.ones(r.size), ids=np.arange(r.size)[::-1]), r=r)
        assert lexsort_sizes(monkeypatch, ens) == [r.size]
        idx = SortedMassIndex.from_ensemble(ens)
        order = np.lexsort((ens.ids, r))
        assert idx.order.tolist() == order.tolist()
        assert idx.radii.tolist() == r[order].tolist()  # native doubles, same values

    def test_near_sorted_distinct_radii_take_no_lexsort(self, monkeypatch):
        # ascending with a few swapped pairs, as before shells cross
        r = near_sorted(np.geomspace(0.01, 5.0, 3000), 20)
        ens = ensemble_at(r, np.ones(r.size), ids=np.random.default_rng(9).permutation(r.size))
        assert not packed_keys_collide(r)
        assert lexsort_sizes(monkeypatch, ens) == []
        assert_lexsort_order(ens)

    def test_distinct_scrambled_radii_take_no_lexsort(self, monkeypatch):
        r = np.random.default_rng(7).permutation(np.geomspace(0.01, 5.0, 3000))
        ens = ensemble_at(r, np.ones(r.size), ids=np.random.default_rng(8).permutation(r.size))
        assert not packed_keys_collide(r)
        assert lexsort_sizes(monkeypatch, ens) == []
        assert_lexsort_order(ens)

    @pytest.mark.parametrize(
        "radii",
        [
            pytest.param([3.0, 1.0, 2.0, 1.0, 0.0, -0.0, 3.0, np.nan, 2.0, np.nan], id="ties"),
            # NaN != NaN, so these radii hold no tie, yet only ids order the NaNs
            pytest.param([np.nan, 2.0, 1.0, np.nan], id="nans"),
            *(
                pytest.param(np.append(SCRAMBLED_40, special), id=name)
                for name, special in (("zero", 0.0), ("negative-zero", -0.0), ("negative", -1.0))
            ),
        ],
    )
    def test_scrambled_ties_and_nans_fall_back_to_lexsort(self, radii, monkeypatch):
        # zero, negative and NaN radii are never packed: all shells are
        # lexsorted
        r = np.array(radii)
        ens = ensemble_at(r, np.ones(r.size), ids=np.arange(r.size)[::-1])
        assert lexsort_sizes(monkeypatch, ens) == [r.size]
        assert_lexsort_order(ens)


class TestDensityGrid:
    def test_single_bin_ball_density(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([0.7], [2.0]))
        grid = density_estimate(idx, np.array([0.0, 1.0]))
        assert grid.bin_values[0] == pytest.approx(3.0 * 2.0 / (4.0 * np.pi), rel=1e-14)
        assert float(np.sum(grid.bin_masses)) == 2.0

    def test_mass_consistency(self):
        rng = np.random.default_rng(11)
        ens = ensemble_at(rng.uniform(0.3, 2.0, 500), rng.uniform(0, 1e-3, 500))
        edges = default_grid_edges(float(np.min(ens.r)), float(np.max(ens.r)))
        grid = density_estimate(SortedMassIndex.from_ensemble(ens), edges)
        assert float(np.sum(grid.bin_masses)) == pytest.approx(ens.total_mass, rel=1e-12)
        recovered = float(np.sum(grid.bin_values * grid.bin_volumes))
        assert recovered == pytest.approx(float(np.sum(grid.bin_masses)), rel=1e-12)

    def test_edge_validation(self):
        idx = SortedMassIndex.from_ensemble(ensemble_at([1.0], [1.0]))
        with pytest.raises(ValueError):
            density_estimate(idx, np.array([1.0]))
        with pytest.raises(ValueError):
            density_estimate(idx, np.array([1.0, 1.0, 2.0]))

    def test_bitwise_equal_to_histogram(self):
        data = InitialData.from_spec(ClassSpec(a0=1.0, a1=-25.0, eps=0.2))
        start = sample_ensemble(data, 12, 10, 8)
        evolved = integrate(start, IntegratorConfig(t_end=0.02, dt_max=2e-3)).final
        # at t = 0 every grid radius is shared by several shells
        assert np.unique(start.r).size < len(start) < 65_536
        assert np.unique(evolved.r).size > np.unique(start.r).size
        for ens in (start, evolved):
            idx = SortedMassIndex.from_ensemble(ens)
            distinct = np.unique(ens.r)
            for edges in (
                default_grid_edges(idx.radii[0], idx.radii[-1]),
                # every 32nd edge: 8 wider bins over the same span
                default_grid_edges(idx.radii[0], idx.radii[-1])[::32],
                # edges on shell radii: half-open bins, the last one closed
                distinct,
                distinct[::3],
            ):
                expected, _ = np.histogram(ens.r, bins=edges, weights=ens.weight)
                got = density_estimate(idx, edges).bin_masses
                assert got.tobytes() == expected.tobytes()

    def test_captures_total_mass_at_large_n(self):
        rng = np.random.default_rng(17)
        n = 70_000
        ens = ensemble_at(rng.uniform(0.5, 1.5, n), rng.uniform(0, 1e-3, n))
        idx = SortedMassIndex.from_ensemble(ens)
        grid = density_estimate(idx, default_grid_edges(idx.radii[0], idx.radii[-1]))
        assert float(np.sum(grid.bin_masses)) == pytest.approx(idx.total_mass, rel=1e-12)

    def test_default_edges_cover_all_shells(self):
        edges = default_grid_edges(0.5, 2.0)
        assert edges.size == vpshell.field.N_BINS + 1
        assert edges[0] == 0.25
        assert edges[-1] == pytest.approx(2.02, rel=1e-15)
        with pytest.raises(ValueError):
            default_grid_edges(0.0, 1.0)


class TestSupNorms:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sup_norms(SortedMassIndex.from_ensemble(ensemble_at([], [])))

    def test_certified_below_binned_for_spread_ensemble(self):
        # certified bound treats all mass as a ball of radius r_max, so it
        # cannot exceed the actual sup estimate by construction
        rng = np.random.default_rng(5)
        ens = ensemble_at(rng.uniform(0.5, 1.5, 400), rng.uniform(0, 1e-3, 400))
        sn = sup_norms(SortedMassIndex.from_ensemble(ens))
        assert sn.rho_sup_certified <= sn.rho_sup_binned * (1 + 1e-12)
        assert sn.r_min == float(np.min(ens.r))
        assert sn.r_max == float(np.max(ens.r))

    def test_all_mass_inside_default_grid(self):
        rng = np.random.default_rng(9)
        ens = ensemble_at(rng.uniform(0.5, 1.5, 100), rng.uniform(0, 1e-3, 100))
        edges = default_grid_edges(float(np.min(ens.r)), float(np.max(ens.r)))
        grid = density_estimate(SortedMassIndex.from_ensemble(ens), edges)
        assert float(np.sum(grid.bin_masses)) == pytest.approx(ens.total_mass, rel=1e-13)
