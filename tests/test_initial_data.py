import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from vpshell import (
    ClassSpec,
    EmptyEnsembleError,
    InitialData,
    check_membership,
    derived_bounds,
    design_fixed_mass,
    design_small_data,
    sample_ensemble,
)
from vpshell.initial_data import (
    BUMP_INTEGRAL,
    PROFILE_NORMALIZATION,
    RISE_MOMENT,
    profile_argument,
)
from vpshell.phase_space import REDUCED_MEASURE


# the desk and focus workloads' specs and a fixed-mass one (a0 ~ 9.8e5)
REDUCTION_SPECS = {
    "desk": design_small_data(c1=32.0, c2=1e-7, eps=0.2).spec,
    "focus": design_small_data(c1=32.0, c2=1e-7, eps=0.05).spec,
    "fixed-mass": design_fixed_mass(c1=1.0, c2=1e-2, t_horizon=1.0).spec,
}
CUBE_POINT = st.tuples(*[st.floats(-2.0, 2.0)] * 3)  # a point of [-2, 2]^3


def canonical_data(a0=1.0, eps=0.2, a1=None, target_mass=None):
    if a1 is None:
        a1 = -1.0 / eps**2
    spec = ClassSpec(a0=a0, a1=a1, eps=eps, target_mass=target_mass)
    return InitialData.from_spec(spec)


def profile(s, eps=1.0):
    """H_eps(s) as f0 carries it: evaluate_reduced at r = a0 = 1, w = a1,
    ell = s, where the profile's argument is s, phi is 1 and scale is 1."""
    data = canonical_data(eps=eps)
    return data.evaluate_reduced(data.spec.a0, data.spec.a1, s)


def cutoff(r, eps=0.2):
    """phi(r) at a0 = 1 and delta_r = eps^3, as rho0 / (PROFILE_NORMALIZATION
    / a0^3) reads it; exact where phi is 0 or 1."""
    data = canonical_data(eps=eps)
    return data.rho0(r) / (PROFILE_NORMALIZATION / data.spec.a0**3)


def space_integral(eps=1.0):
    """4 pi * integral of H_eps(u^2) u^2 du over the profile's support u < eps."""
    data = canonical_data(eps=eps)
    a0, a1 = data.spec.a0, data.spec.a1
    val, _ = quad(lambda u: data.evaluate_reduced(a0, a1, u * u) * u * u, 0.0, eps, limit=200)
    return 4.0 * np.pi * val


class TestProfile:
    def test_bump_integral_literal_recomputed(self):
        def integrand(u):
            return np.exp(-1.0 / (1.0 - u * u)) * u * u

        adaptive, _ = quad(integrand, 0.0, 1.0)
        nodes, weights = leggauss(128)
        gauss = 0.5 * np.sum(weights * integrand(0.5 * (nodes + 1.0)))
        assert adaptive == pytest.approx(BUMP_INTEGRAL, rel=1e-15, abs=0.0)
        assert gauss == pytest.approx(BUMP_INTEGRAL, rel=1e-14, abs=0.0)

    def test_space_integral_normalization(self):
        assert space_integral() == pytest.approx(PROFILE_NORMALIZATION, rel=1e-10)

    def test_rescaling_preserves_normalization(self):
        for eps in (1.0, 0.5, 0.2, 0.05):
            assert space_integral(eps) == pytest.approx(
                PROFILE_NORMALIZATION, rel=1e-10
            )

    def test_rescaled_support_shrinks(self):
        # support shrinks to s < eps^2 = 0.25
        assert profile(0.25, 0.5) == 0.0
        assert profile(0.3, 0.5) == 0.0
        assert profile(0.2, 0.5) > 0.0
        # peak value scales like eps^-3
        assert profile(0.0, 0.5) == pytest.approx(8.0 * profile(0.0), rel=1e-12)

    def test_rescale_rejects_bad_eps(self):
        # ClassSpec refuses these, so no InitialData evaluates H_eps at them
        for eps in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="eps"):
                canonical_data(eps=eps, a1=-1.0)

    def test_profile_rejects_negative_argument(self):
        # s = (a1 r - a0 w)^2 + a0^2 ell / r^2 is negative only for ell < 0
        data = canonical_data(eps=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            data.evaluate_reduced(data.spec.a0, data.spec.a1, -0.1)

    def test_vector_evaluation(self):
        s = np.array([0.0, 0.5, 0.99, 1.0, 2.0])
        v = profile(s)
        assert v.shape == s.shape
        assert v[3] == 0.0 and v[4] == 0.0
        assert np.all(v[:3] > 0.0)


class TestCutoff:
    def test_plateau_and_support(self):
        a0, dr = 1.0, 0.2**3
        # exactly 1 on the closed inner plateau, exactly 0 outside
        for r in (a0 - dr / 2, a0, a0 + dr / 2):
            assert cutoff(r) == 1.0
        for r in (a0 - dr, a0 - 2 * dr, a0 + dr, a0 + 2 * dr):
            assert cutoff(r) == 0.0

    def test_values_in_unit_interval_and_monotone_rise(self):
        r = np.linspace(1.0 - 0.008, 1.0 - 0.004, 50)
        v = cutoff(r)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) >= 0.0)

    def test_validation(self):
        # phi's a0 and delta_r = eps^3 come from a ClassSpec, which refuses
        # a0 <= 0 and eps <= 0; rho0 refuses a radius that is not positive
        with pytest.raises(ValueError, match="a0"):
            ClassSpec(a0=-1.0, a1=-1.0, eps=0.1)
        with pytest.raises(ValueError, match="eps"):
            ClassSpec(a0=1.0, a1=-1.0, eps=0.0)
        for r in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="radius"):
                cutoff(r)


class TestClassSpec:
    def test_derived_widths(self):
        spec = ClassSpec(a0=1.0, a1=-25.0, eps=0.2)
        assert spec.delta_r == 0.2**3
        assert spec.delta_w == pytest.approx(0.4, rel=1e-12)
        assert not spec.is_fixed_mass

    def test_canonical_velocity_scale_gives_two_eps_window(self):
        # a1 = -1/eps^2 makes delta_w = 2 eps / a0
        spec = ClassSpec(a0=2.0, a1=-1.0 / 0.04, eps=0.2)
        assert spec.delta_w == pytest.approx(2 * 0.2 / 2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassSpec(a0=0.0, a1=-1.0, eps=0.1)
        with pytest.raises(ValueError):
            ClassSpec(a0=1.0, a1=1.0, eps=0.1)
        with pytest.raises(ValueError):
            ClassSpec(a0=1.0, a1=-1.0, eps=0.0)
        with pytest.raises(ValueError):
            ClassSpec(a0=1.0, a1=-1.0, eps=0.1, target_mass=0.0)
        inf = float("inf")
        for name in ("a0", "a1", "eps", "target_mass"):
            for value in (inf, -inf):
                with pytest.raises(ValueError, match="finite"):
                    ClassSpec(**{**dict(a0=1.0, a1=-1.0, eps=0.1), name: value})

    def test_derived_bounds_families(self):
        spec = ClassSpec(a0=1.0, a1=-25.0, eps=0.2)
        db = derived_bounds(spec)
        assert db.mass_lower == 3.0 * spec.eps**3 / spec.a0
        assert db.mass_upper == 8.0 * spec.eps**3 / spec.a0

        fixed = ClassSpec(a0=1.0, a1=-25.0, eps=0.2, target_mass=32.0)
        dbf = derived_bounds(fixed)
        assert dbf.mass_lower == dbf.mass_upper == 32.0


class TestInitialData:
    def test_vanishes_outside_radial_shell(self):
        data = canonical_data()
        spec = data.spec
        r_out = spec.a0 + 2 * spec.delta_r
        assert data.evaluate_reduced(r_out, spec.a1, 0.0) == 0.0

    @given(name=st.sampled_from(sorted(REDUCTION_SPECS)), x=CUBE_POINT, u=CUBE_POINT)
    def test_cartesian_matches_reduced(self, name, x, u):
        """profile_argument at the (r, w, ell) of a Cartesian (x, v) is
        |a1 x - a0 v|^2, and w^2 + ell/r^2 is |v|^2; r = |x|, w = x.v/r
        and ell = |x cross v|^2 are computed here.  v is drawn about the
        comoving velocity (a1/a0) x, the profile's peak."""
        spec = REDUCTION_SPECS[name]
        x = spec.a0 * np.array(x)
        v = spec.a1 / spec.a0 * x + abs(spec.a1) * np.array(u)
        r = float(np.sqrt(x @ x))
        assume(r > 1e-6 * spec.a0)
        w = float(x @ v) / r
        ell = float(np.sum(np.cross(x, v) ** 2))
        speed = float(np.sqrt(v @ v))
        shifted = spec.a1 * x - spec.a0 * v
        scale = (abs(spec.a1) * r + spec.a0 * speed) ** 2
        assert abs(profile_argument(spec, r, w, ell) - float(shifted @ shifted)) <= 1e-14 * scale
        assert abs(w * w + ell / r**2 - speed**2) <= 1e-14 * speed**2

    def test_peak_is_at_the_comoving_point(self):
        # v = (a1/a0) x has w = a1, ell = 0 at |x| = a0: c exp(-1) / eps^3
        data = canonical_data()
        c = PROFILE_NORMALIZATION / (4.0 * np.pi * BUMP_INTEGRAL)
        assert data.evaluate_reduced(data.spec.a0, data.spec.a1, 0.0) == pytest.approx(
            data.scale * c * np.exp(-1.0) / data.spec.eps**3, rel=1e-15
        )

    def test_data_is_its_spec_and_scale(self):
        spec = ClassSpec(a0=1.0, a1=-25.0, eps=0.2, target_mass=1.0)
        data = InitialData.from_spec(spec)
        assert [f.name for f in dataclasses.fields(data)] == ["spec", "scale"]
        # nothing but the spec and scale, so equal specs give equal data
        assert data == InitialData.from_spec(spec)
        assert data == InitialData(spec=spec, scale=data.scale)

    def test_evaluate_reduced_validation(self):
        data = canonical_data()
        with pytest.raises(ValueError):
            data.evaluate_reduced(0.0, -25.0, 0.0)
        with pytest.raises(ValueError):
            data.evaluate_reduced(1.0, -25.0, -1.0)
        with pytest.raises(ValueError):
            data.evaluate_reduced(np.nan, -25.0, 0.0)
        with pytest.raises(ValueError):
            data.rho0(0.0)
        with pytest.raises(ValueError):
            data.rho0(np.array([1.0, np.nan]))

    def test_shell_below_double_precision_is_refused(self):
        # delta_r = eps^3 is under half an ulp of a0, so a0 +- delta_r == a0
        for a0, eps, target_mass in ((9.79e7, 1.01e-4, 1.0), (1.0, 6.25e-11, None)):
            with pytest.raises(ValueError, match=r"delta_r = .* a0 = "):
                canonical_data(a0=a0, eps=eps, target_mass=target_mass)

    def test_density_plateau_matches_ball_value(self):
        # at eps = 6.25e-5 a 64-point quadrature of the marginal read 8.75e-6 low
        small_eps = InitialData.from_spec(design_small_data(c1=32.0, c2=1e-3).spec)
        for data in (canonical_data(), small_eps):
            spec = data.spec
            cap = 3.0 / (4.0 * np.pi * spec.a0**3)
            for r in (spec.a0 - 0.5 * spec.delta_r, spec.a0, spec.a0 + 0.5 * spec.delta_r):
                assert data.rho0(r) == pytest.approx(cap, rel=1e-15, abs=0.0)

    def test_density_vanishes_outside(self):
        data = canonical_data()
        spec = data.spec
        assert data.rho0(spec.a0 + 2 * spec.delta_r) == 0.0
        radii = np.array([spec.a0, spec.a0 + 2 * spec.delta_r])
        vals = data.rho0(radii)
        assert vals.shape == (2,)
        assert vals[1] == 0.0

    def test_l1_norm_in_mass_sandwich(self):
        data = canonical_data()
        db = derived_bounds(data.spec)
        m = data.l1_norm()
        assert db.mass_lower <= m <= db.mass_upper
        # frozen regression value for the canonical a0=1, eps=0.2 data
        assert m == pytest.approx(0.036000447505176204, rel=1e-9)

    def test_l1_norm_matches_midpoint_sampling(self):
        data = canonical_data()
        ens = sample_ensemble(data, 24, 24, 16)
        assert ens.total_mass == pytest.approx(data.l1_norm(), rel=2e-2)


class TestSampling:
    def test_ids_follow_grid_order(self):
        ens = sample_ensemble(canonical_data(), 8, 8, 6)
        assert np.all(np.diff(ens.ids) > 0)
        assert ens.time == 0.0
        assert np.all(ens.ell > 0.0)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            sample_ensemble(canonical_data(), 1, 8, 6)

    def test_collapsed_radial_grid_is_refused(self):
        # delta_r / a0 ~ 2.4e-15: of 40 radial midpoints only 35 are
        # distinct doubles, and the kept shells shared 33 radii
        data = InitialData.from_spec(design_small_data(c1=1.0, c2=1e-3).spec)
        with pytest.raises(ValueError, match=r"n_r = 40 cells give only 35 distinct radii"):
            sample_ensemble(data, 40, 44, 28)

    def test_non_positive_radius_is_refused(self):
        # a0 - delta_r = 0.5 - 0.729 < 0, so the first radial midpoint is negative
        data = InitialData(spec=ClassSpec(a0=0.5, a1=-1.0, eps=0.9))
        with pytest.raises(ValueError, match=r"^radius must be positive \(NaN refused\)$"):
            sample_ensemble(data, 8, 8, 6)

    def test_empty_support_raises(self):
        dead = dataclasses.replace(canonical_data(), scale=0.0)
        with pytest.raises(EmptyEnsembleError):
            sample_ensemble(dead, 8, 8, 6)

    def test_fixed_mass_sampling_hits_target_exactly(self):
        data = canonical_data(eps=0.2, target_mass=1.0)
        ens = sample_ensemble(data, 12, 12, 8)
        assert abs(ens.total_mass / 1.0 - 1.0) <= 1e-14

    def test_fixed_mass_sample_bytes_are_pinned(self):
        # SHA-256 of (r, w, ell, weight, ids) and the scale's exact value,
        # re-recorded when l1_norm became closed form (the scale moved by
        # 180 ulp, 2.3e-14 relative, the old quadrature's error)
        data = canonical_data(a1=-25.0, target_mass=1.0)
        ens = sample_ensemble(data, 8, 8, 6)
        digest = hashlib.sha256()
        for column in (ens.r, ens.w, ens.ell, ens.weight, ens.ids):
            digest.update(column.tobytes())
        assert len(ens) == 128
        assert digest.hexdigest() == (
            "beb647c398c141e7b07cb0bdff8838a3305671083391b93b4baa2c40b484c6af"
        )
        assert data.scale == float.fromhex("0x1.bc705d0b95862p+4")

    # SHA-256 of (r, w, ell, weight, ids), recorded while the sampler still
    # evaluated f0 on a meshgrid of every cell: the desk and focus grids,
    # the fixed-mass recipe's exploratory certificate, and the benchmark's
    # desk grid jittered at seed 1; the fixed-mass pin re-recorded when
    # l1_norm, and with it the scale, became closed form
    @pytest.mark.parametrize("cert, grid, n_shells, expected", [
        (dict(c1=32.0, c2=1e-7, eps=0.2), (40, 44, 28), 16132,
         "ddc58d2b1543b2a3d387a891467fe5117e13b26a0ada222f6529efae1c502f38"),
        (dict(c1=32.0, c2=1e-7, eps=0.05), (48, 48, 32), 24624,
         "7183cd9568cca08222e3459fae1d47ca7b915598031ed2a5cb9589886b2bc438"),
        (dict(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True), (16, 16, 12), 1024,
         "ab4cc4fed5de2be807998ecca5584075be20bbd4bc8d6b9fc47e7ce9ce8265ea"),
        (dict(c1=32.0, c2=1e-7, eps=0.2), (39, 45, 28), 16082,
         "b2ad66403fe4d84612a13cec032222ed17e10955c17c6df79faab12d36f0528d"),
    ], ids=["desk", "focus", "fixed-mass", "desk-jittered"])
    def test_sample_bytes_are_pinned(self, cert, grid, n_shells, expected):
        design = design_fixed_mass if "t_horizon" in cert else design_small_data
        ens = sample_ensemble(InitialData.from_spec(design(**cert).spec), *grid)
        digest = hashlib.sha256()
        for column in (ens.r, ens.w, ens.ell, ens.weight, ens.ids):
            digest.update(column.tobytes())
        assert len(ens) == n_shells
        assert digest.hexdigest() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(2, 12)),
        a0=st.floats(0.6, 1.8),
        eps=st.floats(0.08, 0.35),
        k=st.floats(0.5, 2.0),
        target_mass=st.none() | st.floats(1e-3, 1e3),
    )
    # the desk grid, whose f0 underflows to 0 on 27 cells with t < 1, in
    # both families; and dyadic data with two cells at t == 1.0 exactly
    @example(grid=(40, 44, 28), a0=1.0, eps=0.2, k=1.0, target_mass=None)
    @example(grid=(40, 44, 28), a0=1.0, eps=0.2, k=1.0, target_mass=1.0)
    @example(grid=(2, 4, 8), a0=0.125, eps=0.5, k=1.0, target_mass=None)
    def test_matches_meshgrid_reference_bitwise(self, grid, a0, eps, k, target_mass):
        data = canonical_data(a0=a0, eps=eps, a1=-k / eps**2, target_mass=target_mass)
        expected = _meshgrid_sample(data, *grid)
        if expected is None:
            with pytest.raises(EmptyEnsembleError):
                sample_ensemble(data, *grid)
            return
        ens = sample_ensemble(data, *grid)
        for column, reference in zip((ens.r, ens.w, ens.ell, ens.weight, ens.ids), expected):
            assert column.dtype == reference.dtype
            assert column.tobytes() == reference.tobytes()

    def test_sampling_peak_memory_is_below_half_the_meshgrid_peak(self):
        # the meshgrid sampler peaked at 33.8 MiB on this grid (tracemalloc)
        data = InitialData.from_spec(design_small_data(c1=32.0, c2=1e-7, eps=0.2).spec)
        tracemalloc.start()
        try:
            sample_ensemble(data, 80, 88, 56)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 33.8 * 2**20

    def test_sampling_peak_memory_net_of_the_ensemble(self):
        # t on the grid is the one grid-sized float array; evaluating f0 on
        # every cell peaked at 8.06 MiB net of the returned 4.92 MiB
        data = InitialData.from_spec(design_small_data(c1=32.0, c2=1e-7, eps=0.2).spec)
        tracemalloc.start()
        try:
            ens = sample_ensemble(data, 80, 88, 56)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (ens.r, ens.w, ens.ell, ens.weight, ens.ids))
        assert peak - returned < 2.5 * (80 * 88 * 56) * np.dtype(float).itemsize

    def test_refinement_converges_to_l1_norm(self):
        data = canonical_data()
        exact = data.l1_norm()
        coarse = abs(sample_ensemble(data, 8, 8, 6).total_mass - exact)
        fine = abs(sample_ensemble(data, 32, 32, 22).total_mass - exact)
        assert fine < coarse


def _meshgrid_sample(data, n_r, n_w, n_ell):
    """Reference sampler: f0 at every cell of a meshgrid of the midpoint
    axes, kept where positive.  Returns (r, w, ell, weight, ids), or None
    when no cell is kept."""
    r_lo, r_hi, w_lo, w_hi, ell_hi = data.support_box()
    dr, dw, dl = (r_hi - r_lo) / n_r, (w_hi - w_lo) / n_w, ell_hi / n_ell
    rr, ww, ll = (axis.ravel() for axis in np.meshgrid(
        r_lo + dr * (np.arange(n_r) + 0.5),
        w_lo + dw * (np.arange(n_w) + 0.5),
        dl * (np.arange(n_ell) + 0.5),
        indexing="ij",
    ))
    f_vals = data.evaluate_reduced(rr, ww, ll)
    keep = f_vals > 0.0
    if not np.any(keep):
        return None
    weight = REDUCED_MEASURE * f_vals[keep] * dr * dw * dl
    if data.spec.is_fixed_mass:
        weight = weight * (data.spec.target_mass / float(np.sum(weight)))
    return rr[keep], ww[keep], ll[keep], weight, np.flatnonzero(keep).astype(np.int64)


# Gauss-Legendre nodes per axis of the reference density and mass quadratures.
N_QUAD = 64


def _loop_rho0(data, radii):
    """rho0 by N_QUAD-point quadrature of the (w, ell) marginal,
    rho(r) = (pi / r^2) * double integral of f0 over w and ell, one radius
    at a time; the reference the closed form is checked against."""
    spec = data.spec
    s_max = spec.eps * spec.eps
    nodes, wts = leggauss(N_QUAD)
    vals = np.zeros_like(radii)
    for i, ri in enumerate(radii):
        w_half = np.sqrt(s_max) / spec.a0
        w_nodes = spec.a1 * ri / spec.a0 + w_half * nodes
        s1 = (spec.a1 * ri - spec.a0 * w_nodes) ** 2
        ell_top = ri**2 * np.clip(s_max - s1, 0.0, None) / spec.a0**2
        ell_nodes = 0.5 * ell_top[:, None] * (nodes[None, :] + 1.0)
        ell_weights = 0.5 * ell_top[:, None] * wts[None, :]
        f_grid = data.evaluate_reduced(ri, w_nodes[:, None], ell_nodes)
        inner = np.sum(f_grid * ell_weights, axis=1)
        vals[i] = np.pi / ri**2 * np.sum(inner * (w_half * wts))
    return vals


def _quadrature_mass(data):
    """4 pi * int rho0 r^2 dr by N_QUAD-point quadrature of _loop_rho0 on
    each piece between the cutoff's breakpoints, where it is smooth."""
    a0, dr = data.spec.a0, data.spec.delta_r
    nodes, wts = leggauss(N_QUAD)
    total = 0.0
    for lo, hi in ((a0 - dr, a0 - dr / 2), (a0 - dr / 2, a0 + dr / 2), (a0 + dr / 2, a0 + dr)):
        radii = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        total += 0.5 * (hi - lo) * float(np.sum(wts * _loop_rho0(data, radii) * radii**2))
    return 4.0 * np.pi * total


class TestClosedForm:
    def test_rise_moment_literal_recomputed(self):
        def rise(t):
            up, down = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
            return up / (up + down)

        val, _ = quad(lambda t: rise(t) * (1.0 - 0.5 * t) ** 2, 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert val == pytest.approx(RISE_MOMENT, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("fixed_mass", [False, True])
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_rho0_matches_quadrature(self, eps, fixed_mass):
        data = canonical_data(eps=eps, target_mass=1.0 if fixed_mass else None)
        spec = data.spec
        # the radii the density membership checks sample, and just outside
        radii = np.linspace(spec.a0 - 1.5 * spec.delta_r, spec.a0 + 1.5 * spec.delta_r, 33)
        cap = data.scale * 3.0 / (4.0 * np.pi * spec.a0**3)
        assert np.max(np.abs(data.rho0(radii) - _loop_rho0(data, radii))) <= 1e-12 * cap

    def test_l1_norm_matches_quadrature(self):
        data = canonical_data()
        assert data.l1_norm() == pytest.approx(_quadrature_mass(data), rel=1e-13, abs=0.0)


class TestMembership:
    def test_canonical_small_density_passes(self):
        data = canonical_data()
        ens = sample_ensemble(data, 12, 12, 8)
        report = check_membership(data, ens)
        assert report.passed, str(report)
        names = [s.name for s in report.stages]
        assert names == [
            "support-ellipse",
            "radial-shell",
            "velocity-window",
            "ell-bound",
            "density-bound",
            "density-plateau",
            "total-mass",
        ]
        assert all(s.status == "pass" and s.witness_id is None for s in report.stages)

    def test_canonical_fixed_mass_passes(self):
        data = canonical_data(eps=0.2, target_mass=1.0)
        ens = sample_ensemble(data, 12, 12, 8)
        report = check_membership(data, ens)
        assert report.passed, str(report)
        names = [s.name for s in report.stages]
        assert "total-mass" in names
        assert "density-bound" not in names

    def test_shifted_support_fails_with_witness(self):
        data = canonical_data()
        ens = sample_ensemble(data, 8, 8, 6)
        shifted = ens.advanced(ens.r * 2.0, ens.w, time=0.0)
        report = check_membership(data, shifted)
        assert not report.passed
        failed = {s.name: s for s in report.stages if s.status == "fail"}
        assert "radial-shell" in failed
        assert failed["radial-shell"].witness_id in ens.ids
        assert "  fail    radial-shell: " in str(report)

    def test_overdense_data_fails_density_bound(self):
        data = canonical_data()
        ens = sample_ensemble(data, 8, 8, 6)
        hot = dataclasses.replace(data, scale=1.1)
        report = check_membership(hot, ens)
        failed = {s.name for s in report.stages if s.status == "fail"}
        assert "density-bound" in failed

    def test_plateau_a_few_ulps_wide_fails_density_plateau(self):
        """design_small_data(c1=1, c2=1e-3) gives eps = 1.97e-5, a0 = 3.17
        and delta_r = 7.6e-15, a few ulps of a0: phi's plateau is not
        exact there in double precision, so density-plateau fails alone
        (it does the same at 16x16x8 and 32x16x8).  density-bound cannot
        fail for from_spec data, as phi <= 1 and scale = 1."""
        cert = design_small_data(c1=1.0, c2=1e-3)
        assert not cert.exploratory
        data = InitialData.from_spec(cert.spec)
        ens = sample_ensemble(data, 8, 8, 6)
        assert len(ens) == 127
        report = check_membership(data, ens)
        failed = [(s.name, s.detail) for s in report.stages if s.status == "fail"]
        assert failed == [
            ("density-plateau", "max relative deviation 1.389e-06 (tol 1e-06)")
        ]


@settings(max_examples=10, deadline=None)
@given(
    a0=st.floats(0.6, 1.8),
    eps=st.floats(0.08, 0.35),
    k=st.floats(0.5, 2.0),
)
def test_membership_property_over_parameters(a0, eps, k):
    # canonical construction should pass for any admissible parameter pick
    data = canonical_data(a0=a0, eps=eps, a1=-k / eps**2)
    ens = sample_ensemble(data, 8, 8, 6)
    report = check_membership(data, ens)
    assert report.passed, str(report)
