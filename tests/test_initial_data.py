import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from vpshell import (
    ClassSpec,
    EmptyEnsembleError,
    InitialData,
    bump_profile,
    check_membership,
    derived_bounds,
    sample_ensemble,
    smooth_cutoff,
)
from vpshell.initial_data import BUMP_INTEGRAL, PROFILE_NORMALIZATION


def canonical_data(a0=1.0, eps=0.2, a1=None, target_mass=None):
    if a1 is None:
        a1 = -1.0 / eps**2
    spec = ClassSpec(a0=a0, a1=a1, eps=eps, target_mass=target_mass)
    return InitialData.from_spec(spec)


def space_integral(eps=1.0):
    """4 pi * integral of H_eps(u^2) u^2 du over the profile's support u < eps."""
    val, _ = quad(lambda u: bump_profile(u * u, eps) * u * u, 0.0, eps, limit=200)
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
        assert bump_profile(0.25, 0.5) == 0.0
        assert bump_profile(0.3, 0.5) == 0.0
        assert bump_profile(0.2, 0.5) > 0.0
        # peak value scales like eps^-3
        assert bump_profile(0.0, 0.5) == pytest.approx(8.0 * bump_profile(0.0), rel=1e-12)

    def test_rescale_rejects_bad_eps(self):
        for eps in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError):
                bump_profile(0.1, eps)

    def test_profile_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bump_profile(-0.1)

    def test_vector_evaluation(self):
        s = np.array([0.0, 0.5, 0.99, 1.0, 2.0])
        v = bump_profile(s)
        assert v.shape == s.shape
        assert v[3] == 0.0 and v[4] == 0.0
        assert np.all(v[:3] > 0.0)


class TestCutoff:
    def test_plateau_and_support(self):
        a0, dr = 1.0, 0.008
        # exactly 1 on the closed inner plateau, exactly 0 outside
        for r in (a0 - dr / 2, a0, a0 + dr / 2):
            assert smooth_cutoff(r, a0, dr) == 1.0
        for r in (a0 - dr, a0 - 2 * dr, a0 + dr, a0 + 2 * dr):
            assert smooth_cutoff(r, a0, dr) == 0.0

    def test_values_in_unit_interval_and_monotone_rise(self):
        r = np.linspace(1.0 - 0.008, 1.0 - 0.004, 50)
        v = smooth_cutoff(r, 1.0, 0.008)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_cutoff(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            smooth_cutoff(1.0, 1.0, 0.0)


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

    def test_cartesian_matches_reduced(self):
        data = canonical_data()
        a0, a1 = data.spec.a0, data.spec.a1
        # comoving point: v = (a1/a0) x has w = a1, ell = 0 at |x| = a0
        f_cart = data.evaluate([a0, 0.0, 0.0], [a1, 0.0, 0.0])
        f_red = data.evaluate_reduced(a0, a1, 0.0)
        assert f_cart == f_red
        assert f_cart == data.scale * bump_profile(0.0, data.spec.eps)

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
        data = canonical_data()
        spec = data.spec
        cap = 3.0 / (4.0 * np.pi * spec.a0**3)
        for r in (spec.a0 - 0.5 * spec.delta_r, spec.a0, spec.a0 + 0.5 * spec.delta_r):
            assert data.rho0(r) == pytest.approx(cap, rel=1e-8)

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
        # recorded before the profile and cutoff became plain functions
        data = canonical_data(a1=-25.0, target_mass=1.0)
        ens = sample_ensemble(data, 8, 8, 6)
        digest = hashlib.sha256()
        for column in (ens.r, ens.w, ens.ell, ens.weight, ens.ids):
            digest.update(column.tobytes())
        assert len(ens) == 128
        assert digest.hexdigest() == (
            "c8d6f67d6e6c76322b93c2ad9418d500eb5513dd5c73cd57e126b2b2bb598ee1"
        )
        assert data.scale == float.fromhex("0x1.bc705d0b95916p+4")

    def test_refinement_converges_to_l1_norm(self):
        data = canonical_data()
        exact = data.l1_norm()
        coarse = abs(sample_ensemble(data, 8, 8, 6).total_mass - exact)
        fine = abs(sample_ensemble(data, 32, 32, 22).total_mass - exact)
        assert fine < coarse


class TestMembership:
    def test_canonical_small_density_passes(self):
        data = canonical_data()
        ens = sample_ensemble(data, 12, 12, 8)
        report = check_membership(data, ens)
        assert report.passed, str(report)
        names = [c.name for c in report.checks]
        assert names == [
            "support-ellipse",
            "radial-shell",
            "velocity-window",
            "ell-bound",
            "density-bound",
            "density-plateau",
            "mass-sandwich",
        ]
        assert all(c.witness is None for c in report.checks)

    def test_canonical_fixed_mass_passes(self):
        data = canonical_data(eps=0.2, target_mass=1.0)
        ens = sample_ensemble(data, 12, 12, 8)
        report = check_membership(data, ens)
        assert report.passed, str(report)
        names = [c.name for c in report.checks]
        assert "total-mass" in names
        assert "density-bound" not in names

    def test_shifted_support_fails_with_witness(self):
        data = canonical_data()
        ens = sample_ensemble(data, 8, 8, 6)
        shifted = ens.advanced(ens.r * 2.0, ens.w, time=0.0)
        report = check_membership(data, shifted)
        assert not report.passed
        failed = {c.name: c for c in report.failures()}
        assert "radial-shell" in failed
        assert failed["radial-shell"].hard
        assert failed["radial-shell"].witness is not None
        assert "FAIL" in str(report)

    def test_overdense_data_fails_density_bound(self):
        data = canonical_data()
        ens = sample_ensemble(data, 8, 8, 6)
        hot = dataclasses.replace(data, scale=1.1)
        report = check_membership(hot, ens)
        failed = {c.name for c in report.failures()}
        assert "density-bound" in failed


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
