import dataclasses
import math

import numpy as np
import pytest

from vpshell import (
    InadmissibleParameterError,
    IntegratorConfig,
    check_membership,
    confinement_lower_bounds,
    decay_slope,
    design_fixed_mass,
    design_small_data,
    integrate,
    sample_ensemble,
    verify_focusing_run,
)
from vpshell.dynamics import DiagnosticsRow
from vpshell.initial_data import InitialData


class TestSmallDataRecipe:
    def test_density_target_sets_shell_radius(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        assert cert.spec.a0 == 1.0
        assert cert.recipe == "small-data"
        assert cert.spec.a1 == -1.0 / 0.2**2
        assert not cert.spec.is_fixed_mass

    def test_desk_scale_certificate_values(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        assert cert.t_horizon == pytest.approx(0.008, rel=1e-13)
        assert cert.sup_r_bound == pytest.approx(4.0, rel=1e-15)
        assert cert.rhot_lower == pytest.approx(1.0 / (200.0**3 * 0.008), rel=1e-12)
        assert cert.et_lower == pytest.approx(3.0 / (100.0**2 * 0.2), rel=1e-12)
        assert cert.eps_admissible_max == 0.25  # a0 / 4 binds here
        assert cert.rho0_sup_bound == pytest.approx(3.0 / (4.0 * np.pi), rel=1e-15)
        assert cert.e0_sup_bound == 32.0
        assert cert.mass_used == pytest.approx(3.0 * 0.2**3, rel=1e-15)
        assert not cert.exploratory

    def test_tiny_density_target_binds_on_c2(self):
        # no admissible eps resolves here, so force one
        cert = design_small_data(c1=32.0, c2=1.0, eps=0.02, exploratory=True)
        assert cert.eps_admissible_max == pytest.approx(1.0 / 200.0**3, rel=1e-15)

    def test_default_eps_gives_positive_horizon(self):
        for c1 in (0.5, 4.0, 32.0, 500.0):
            cert = design_small_data(c1=c1, c2=1e-9)
            assert cert.t_horizon > 0.0
            assert 0.0 < cert.spec.eps < cert.eps_admissible_max

    def test_predictions_scale_with_eps(self):
        small = design_small_data(c1=32.0, c2=1e-9, eps=0.05)
        large = design_small_data(c1=32.0, c2=1e-9, eps=0.2)
        assert small.rhot_lower > large.rhot_lower
        assert small.et_lower > large.et_lower
        assert small.sup_r_bound < large.sup_r_bound

    def test_inadmissible_eps_raises_unless_exploratory(self):
        with pytest.raises(InadmissibleParameterError) as exc:
            design_small_data(c1=32.0, c2=1e-7, eps=0.3)
        assert exc.value.constraint == "eps-admissible-max"
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.3, exploratory=True)
        assert cert.exploratory

    def test_nonpositive_horizon_is_rejected_by_name(self):
        # c1 = 0.5 puts the shell at a0 = 4, where the admissibility bound
        # alone would allow eps large enough to make T negative
        with pytest.raises(InadmissibleParameterError) as exc:
            design_small_data(c1=0.5, c2=1e-12, eps=0.9)
        assert exc.value.constraint == "time-positivity"
        cert = design_small_data(c1=0.5, c2=1e-12, eps=0.9, exploratory=True)
        assert cert.exploratory and cert.t_horizon <= 0.0

    def test_target_validation(self):
        with pytest.raises(ValueError):
            design_small_data(c1=0.0, c2=1.0)
        with pytest.raises(ValueError):
            design_small_data(c1=1.0, c2=-1.0)
        with pytest.raises(ValueError):
            design_small_data(c1=1.0, c2=1.0, eps=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                design_small_data(c1=bad, c2=1.0)
            with pytest.raises(ValueError):
                design_small_data(c1=1.0, c2=bad)
            with pytest.raises(ValueError):
                design_small_data(c1=1.0, c2=1.0, eps=bad, exploratory=True)

    def test_consistency_with_confinement_formulas(self):
        cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
        lb = confinement_lower_bounds(cert.mass_used, cert.sup_r_bound)
        assert cert.et_lower == pytest.approx(lb.e_lower, rel=1e-12)
        # the density prediction keeps the published constant, which is
        # slightly weaker than the confinement formula at the same radius
        assert cert.rhot_lower <= lb.rho_lower * (1.0 + 1e-12)


class TestFixedMassRecipe:
    def test_unit_mass_unit_horizon_constants(self):
        # every admissible eps here is below what double precision resolves
        # at a0 ~ 1/eps^2 (see test_unresolvable_shell_refused), so force one
        cert = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        assert cert.c0 == 3.0 + 12.0 * math.sqrt(2.0)
        assert cert.eps_admissible_max == pytest.approx(2.0216405489810742e-4, rel=1e-12)
        # six significant digits of the frozen value
        assert f"{cert.eps_admissible_max:.6g}" == "0.000202164"
        assert cert.mass_used == 1.0
        assert cert.spec.is_fixed_mass

    def test_shell_starts_far_out(self):
        cert = design_fixed_mass(c1=1.0, c2=1e-6, t_horizon=1.0, eps=1e-2)
        assert not cert.exploratory
        assert cert.eta == pytest.approx(cert.c0 * 1e-6, rel=1e-12)
        assert cert.spec.a0 == pytest.approx((1.0 + cert.eta) * 1e4, rel=1e-12)
        assert cert.sup_r_bound == pytest.approx(8.0 * cert.c0 * 1e-2, rel=1e-12)

    def test_unresolvable_shell_refused(self):
        # default eps ~ 1.0e-4 puts a0 ~ 9.8e7 with delta_r ~ 1.0e-12
        with pytest.raises(ValueError, match="does not resolve"):
            design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0)
        with pytest.raises(ValueError, match="does not resolve"):
            design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=1e-4)
        with pytest.raises(ValueError, match="does not resolve"):
            design_small_data(c1=32.0, c2=1e3)

    def test_longer_horizon_shrinks_admissible_eps(self):
        short = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        long = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=100.0, eps=0.02, exploratory=True)
        assert long.eps_admissible_max < short.eps_admissible_max

    def test_exploratory_forcing(self):
        with pytest.raises(InadmissibleParameterError):
            design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02)
        cert = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
        assert cert.exploratory
        assert cert.spec.target_mass == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            design_fixed_mass(c1=1.0, c2=1.0, t_horizon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                design_fixed_mass(c1=1.0, c2=1.0, t_horizon=bad)

    def test_consistency_with_confinement_formulas(self):
        cert = design_fixed_mass(c1=2.0, c2=0.5, t_horizon=1.0, eps=0.02, exploratory=True)
        lb = confinement_lower_bounds(cert.mass_used, cert.sup_r_bound)
        assert cert.et_lower == pytest.approx(lb.e_lower, rel=1e-12)
        assert cert.rhot_lower <= lb.rho_lower * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def desk_run():
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, 16, 16, 12)
    cfg = IntegratorConfig(t_end=cert.t_horizon, dt_max=cert.t_horizon / 50.0)
    result = integrate(ens, cfg, mark_times=(cert.t_horizon,))
    return cert, result


class TestVerification:
    def test_desk_run_passes_all_stages(self, desk_run):
        cert, result = desk_run
        report = verify_focusing_run(result, cert)
        assert report.passed, str(report)
        assert [s.status for s in report.stages] == ["pass"] * 5

    def test_report_names_first_failing_stage_with_witness(self, desk_run):
        cert, result = desk_run
        # a run whose shells all turned before the horizon must fail stage 3
        early = np.full_like(result.turning_time, cert.t_horizon / 2.0)
        result_like = dataclasses.replace(result, turning_time=early)
        report = verify_focusing_run(result_like, cert)
        assert not report.passed
        first = next(s for s in report.stages if s.status == "fail")
        assert first.name == "turning-after-T"
        assert first.witness_id is not None
        assert "fail" in str(report)

    def test_overdense_start_fails_stage_one(self, desk_run):
        cert, result = desk_run
        tight = dataclasses.replace(cert, rho0_sup_bound=cert.rho0_sup_bound / 1e6,
                                    e0_sup_bound=cert.e0_sup_bound / 1e6)
        report = verify_focusing_run(result, tight)
        assert next(s for s in report.stages if s.status == "fail").name == "initial-sup-norms"

    @pytest.mark.parametrize("column, bound", [
        ("e_sup_exact", "e0_sup_bound"),
        ("rho_sup_certified", "rho0_sup_bound"),
        ("rho_sup_binned", "rho0_sup_bound"),
    ])
    def test_one_broken_initial_norm_fails_stage_one(self, desk_run, column, bound):
        """Row 0 over twice one bound, the other two norms within theirs."""
        cert, result = desk_run
        row0 = dataclasses.replace(result.rows[0], **{column: 2.0 * getattr(cert, bound)})
        report = verify_focusing_run(dataclasses.replace(result, rows=[row0, *result.rows[1:]]), cert)
        assert report.stages[0].name == "initial-sup-norms"
        assert report.stages[0].status == "fail"

    def test_unreachable_density_claim_fails_stage_five(self, desk_run):
        """A density claim at T 12 orders stronger than the recipe's, which
        load_certificate would refuse in a file."""
        cert, result = desk_run
        greedy = dataclasses.replace(cert, rhot_lower=cert.rhot_lower * 1e12)
        report = verify_focusing_run(result, greedy)
        assert next(s for s in report.stages if s.status == "fail").name == "certified-lower-bounds"

    def test_mass_outside_sandwich_fails_stage_two(self, desk_run):
        cert, result = desk_run
        shrunk = dataclasses.replace(
            cert, spec=dataclasses.replace(cert.spec, eps=cert.spec.eps * 0.5)
        )
        report = verify_focusing_run(result, shrunk)
        assert any(s.name == "total-mass" and s.status == "fail" for s in report.stages)

    def test_exploratory_certificate_skips_initial_claims(self, desk_run):
        cert, result = desk_run
        probe = dataclasses.replace(cert, exploratory=True)
        report = verify_focusing_run(result, probe)
        assert report.stages[0].status == "skipped"
        assert report.stages[1].status == "skipped"
        assert report.passed
        assert "exploratory" in str(report)


DESK = design_small_data(c1=32.0, c2=1e-7, eps=0.2)


@pytest.mark.parametrize("cert, grid, status", [
    (DESK, (8, 8, 6), "pass"),
    (design_fixed_mass(1.0, 1e-4, 1.0), (8, 8, 6), "pass"),
    (DESK, (4, 2, 2), "fail"),
], ids=["desk-8x8x6", "fixed-mass-8x8x6", "desk-4x2x2"])
def test_membership_and_verification_share_the_mass_stage(cert, grid, status):
    """check_membership on an ensemble and verify_focusing_run on its run
    to T give one total-mass stage, field for field.  The desk certificate
    on a 4x2x2 grid samples a mass of 2.1e-2, below the sandwich's 2.4e-2."""
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, *grid)
    config = IntegratorConfig(t_end=cert.t_horizon, dt_max=cert.t_horizon / 50.0)
    run = integrate(ens, config, mark_times=(cert.t_horizon,))
    (membership,) = [s for s in check_membership(data, ens).stages if s.name == "total-mass"]
    (verification,) = [s for s in verify_focusing_run(run, cert).stages if s.name == "total-mass"]
    assert membership == verification
    assert membership.status == status


class TestDecaySlope:
    @staticmethod
    def rows_for(ts, es):
        return [
            DiagnosticsRow(
                t=float(t), rho_sup_binned=0.0, rho_sup_certified=0.0,
                e_sup_exact=float(e), r_min=1.0, r_max=1.0,
                mass_error=0.0, dt_current=0.0,
            )
            for t, e in zip(ts, es)
        ]

    def test_recovers_power_law(self):
        t = np.geomspace(0.01, 10.0, 60)
        rows = self.rows_for(t, 7.0 * t**-2)
        assert decay_slope(rows) == pytest.approx(-2.0, abs=1e-12)

    def test_window_restricts_fit(self):
        t = np.geomspace(0.01, 10.0, 60)
        # slope -2 only over the last decade, -1 before it
        e = np.where(t >= 1.0, t**-2, t**-1)
        rows = self.rows_for(t, e)
        assert decay_slope(rows, window_decades=1.0) == pytest.approx(-2.0, abs=1e-6)

    def test_needs_enough_rows(self):
        rows = self.rows_for([1.0, 10.0], [1.0, 0.01])
        with pytest.raises(ValueError):
            decay_slope(rows)
