import numpy as np
import pytest

import vpshell.dynamics
from vpshell import (
    Ensemble,
    IntegratorConfig,
    PiecewiseConstantProfile,
    SortedMassIndex,
    StiffnessError,
    accel,
    free_motion_radius_squared,
    integrate,
    integrate_oracle,
    turning_point_bound,
    infall_envelope,
    sample_ensemble,
)
from vpshell import ClassSpec, InitialData


def single_shell(r=1.0, w=-1.0, ell=1.0, weight=1e-3):
    return Ensemble.single(r=r, w=w, ell=ell, weight=weight)


def canonical_data(a0=1.0, eps=0.2):
    return InitialData.from_spec(ClassSpec(a0=a0, a1=-1.0 / eps**2, eps=eps))


class TestAccel:
    def test_point_values(self):
        assert accel(1.0, 1.0, 1.0) == 2.0
        assert accel(2.0, 0.0, 0.0) == 0.0
        assert accel(0.5, 1.0, 0.25) == 9.0

    def test_vector_and_validation(self):
        out = accel(np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([0.0, 4.0]))
        assert out.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError):
            accel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            accel(np.array([1.0, np.nan]), 1.0, 1.0)


class TestConfig:
    def test_validation(self):
        good = dict(t_end=1.0, dt_max=0.1)
        IntegratorConfig(**good)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=-1.0, dt_max=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt_max=0.0)
        for t_end in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_end"):
                IntegratorConfig(t_end=t_end, dt_max=0.001)
        with pytest.raises(ValueError, match="dt_max"):
            IntegratorConfig(t_end=1.0, dt_max=float("inf"))
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt_max=0.1, cfl=1.5)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt_max=0.1, output_stride=0)

    def test_dt_min_tracks_dt_max(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.25)
        assert cfg.dt_min == 0.25e-12


def radial_shell():
    # ell = 0 removes the centrifugal barrier entirely
    return Ensemble(
        r=np.array([1.0]),
        w=np.array([-1.0]),
        ell=np.array([0.0]),
        weight=np.array([1e-6]),
        ids=np.array([7]),
    )


class TestStep:
    """The single step routine, exercised through integrate."""

    def test_outward_drift_of_static_shells(self):
        ens = Ensemble(
            r=np.array([1.0, 2.0]),
            w=np.zeros(2),
            ell=np.array([0.5, 0.5]),
            weight=np.array([0.1, 0.1]),
            ids=np.arange(2),
        )
        result = integrate(ens, IntegratorConfig(t_end=1e-3, dt_max=1e-3))
        out = result.final
        assert result.steps == 1
        assert out.time == 1e-3
        assert np.all(out.r > ens.r)
        assert np.all(out.w > 0.0)
        # conserved quantities are carried over bitwise
        assert np.array_equal(out.ell, ens.ell)
        assert np.array_equal(out.weight, ens.weight)
        assert out.total_mass == ens.total_mass

    def test_halving_keeps_radius_positive(self, monkeypatch):
        # at cfl = 1 the first trial step lands the shell exactly on r = 0,
        # so every step of this run needs the halving branch
        radii = []

        def recording_accel(r, ell, m_enc):
            radii.append(np.array(r, dtype=float))
            return accel(r, ell, m_enc)

        monkeypatch.setattr(vpshell.dynamics, "accel", recording_accel)
        cfg = IntegratorConfig(t_end=1.0, dt_max=1.0, cfl=1.0)
        with pytest.raises(StiffnessError) as exc:
            integrate(radial_shell(), cfg)
        assert exc.value.shell_id == 7
        seen = np.concatenate(radii)
        assert np.all(seen > 0.0)
        assert 0.0 < seen[1] < 1.0

    def test_stiffness_error_for_radial_free_fall(self):
        # the radius shrinks geometrically; the run must stop with a named
        # error before it underflows to NaN, at any cfl
        for cfl in (0.2, 1.0):
            cfg = IntegratorConfig(t_end=2.0, dt_max=0.1, cfl=cfl)
            with pytest.raises(StiffnessError) as exc:
                integrate(radial_shell(), cfg)
            assert exc.value.shell_id == 7
            assert exc.value.dt < cfg.dt_min
            assert exc.value.time < 2.0

    def test_one_index_build_per_state(self, monkeypatch):
        build = SortedMassIndex.from_ensemble
        calls = []

        def counting(ensemble):
            calls.append(ensemble.time)
            return build(ensemble)

        monkeypatch.setattr(SortedMassIndex, "from_ensemble", staticmethod(counting))
        ens = sample_ensemble(canonical_data(), 6, 6, 4)
        cfg = IntegratorConfig(t_end=0.02, dt_max=1e-3, output_stride=3)
        result = integrate(ens, cfg, mark_times=(0.005,))
        assert result.steps > 3
        assert len(calls) == result.steps + 1
        assert len(set(calls)) == len(calls)


class TestIntegrateSingleShell:
    """A lone shell feels no self-field, so the run must reproduce free
    planar motion exactly up to the integrator's order."""

    def run(self, dt_max, cfl):
        cfg = IntegratorConfig(t_end=1.0, dt_max=dt_max, cfl=cfl)
        return integrate(single_shell(), cfg, trace_shells=[0])

    def max_rel_err(self, result):
        t, r, _ = result.traces[0].T
        exact = np.sqrt(free_motion_radius_squared(1.0, -1.0, 1.0, t))
        return float(np.max(np.abs(r / exact - 1.0)))

    def test_matches_closed_form(self):
        assert self.max_rel_err(self.run(0.02, 0.1)) < 1e-3

    def test_second_order_convergence(self):
        coarse = self.max_rel_err(self.run(0.02, 0.1))
        fine = self.max_rel_err(self.run(0.005, 0.025))
        assert fine < coarse / 4.0

    def test_turning_point_location(self):
        # exact turning at t = 1/2, perihelion sqrt(1/2)
        result = self.run(0.01, 0.05)
        assert result.turning_time[0] == pytest.approx(0.5, abs=0.01)
        assert result.r_min_shell[0] == pytest.approx(np.sqrt(0.5), rel=1e-3)
        assert abs(result.t_at_r_min[0] - result.turning_time[0]) <= 0.01


@pytest.fixture(scope="module")
def small_run():
    data = canonical_data()
    ens = sample_ensemble(data, 8, 8, 6)
    cfg = IntegratorConfig(t_end=0.06, dt_max=1e-3, cfl=0.2)
    trace = [int(i) for i in ens.ids[:: max(1, len(ens) // 7)]]
    result = integrate(ens, cfg, mark_times=(0.008,), trace_shells=trace)
    return ens, cfg, result


class TestIntegrateEnsemble:
    def test_mass_error_zero_on_every_row(self, small_run):
        _, _, result = small_run
        assert all(row.mass_error == 0.0 for row in result.rows)

    def test_conserved_arrays_bitwise(self, small_run):
        ens, _, result = small_run
        assert np.array_equal(result.final.ell, ens.ell)
        assert np.array_equal(result.final.weight, ens.weight)
        assert np.array_equal(result.final.ids, ens.ids)
        assert result.final.total_mass == ens.total_mass

    def test_marks_landed_exactly(self, small_run):
        _, cfg, result = small_run
        times = [t for t, _ in result.snapshots]
        assert times[0] == 0.0
        assert 0.008 in times
        assert times[-1] == cfg.t_end
        assert result.snapshot_at(0.008).time == 0.008
        row_times = [row.t for row in result.rows]
        assert 0.008 in row_times
        assert cfg.t_end in row_times
        assert np.all(np.diff(row_times) > 0)

    def test_trajectories_unimodal(self, small_run):
        # convex radii: strictly decreasing then increasing, one minimum
        _, _, result = small_run
        for tid, tr in result.traces.items():
            r = tr[:, 1]
            s = np.sign(np.diff(r))
            s = s[s != 0.0]
            flips = np.flatnonzero(np.diff(s) != 0.0)
            assert flips.size <= 1, f"shell {tid} radius not unimodal"
            if flips.size == 1:
                assert s[flips[0]] == -1.0 and s[flips[0] + 1] == 1.0

    def test_envelope_bound_until_turning(self, small_run):
        ens, _, result = small_run
        total = ens.total_mass
        for tid, tr in result.traces.items():
            pos = int(np.flatnonzero(ens.ids == tid)[0])
            t, r, _ = tr.T
            mask = t <= result.turning_time[pos]
            env = infall_envelope(
                y0=float(ens.r[pos]),
                y1=float(ens.w[pos]),
                L=float(ens.ell[pos]),
                P=total,
                t=t[mask],
            )
            assert np.all(r[mask] ** 2 <= env * (1.0 + 1e-3))

    def test_no_turning_before_lower_bound(self, small_run):
        ens, cfg, result = small_run
        for pos in range(len(ens)):
            tb = turning_point_bound(
                y0=float(ens.r[pos]),
                y1=float(ens.w[pos]),
                L=float(ens.ell[pos]),
                P=ens.total_mass,
            )
            assert result.turning_time[pos] >= tb.t0_lower - cfg.dt_max

    def test_snapshot_at_unknown_time_raises(self, small_run):
        _, _, result = small_run
        with pytest.raises(KeyError):
            result.snapshot_at(0.5)


class TestIntegrateEdgeCases:
    def test_zero_horizon_returns_initial_state(self):
        cfg = IntegratorConfig(t_end=0.0, dt_max=0.1)
        result = integrate(single_shell(), cfg)
        assert result.steps == 0
        assert len(result.rows) == 1
        assert len(result.snapshots) == 1
        # an ensemble already past t_end is returned as it came
        late = Ensemble.single(r=1.0, w=-1.0, ell=1.0, weight=1e-3, time=2.0)
        result = integrate(late, IntegratorConfig(t_end=1.0, dt_max=0.1))
        assert result.steps == 0
        assert result.final is late
        assert [row.t for row in result.rows] == [2.0]
        assert result.snapshots == [(2.0, late)]
        assert np.all(result.turning_time == np.inf)

    def test_mark_validation(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.1)
        with pytest.raises(ValueError):
            integrate(single_shell(), cfg, mark_times=(2.0,))
        with pytest.raises(ValueError):
            integrate(single_shell(), cfg, mark_times=(0.0,))

    def test_unknown_trace_id(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.1)
        with pytest.raises(ValueError):
            integrate(single_shell(), cfg, trace_shells=[42])

    def test_step_budget_enforced(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=1e-4)
        with pytest.raises(RuntimeError):
            integrate(single_shell(), cfg, max_steps=3)

    def test_empty_ensemble_rejected(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.1)
        with pytest.raises(ValueError):
            integrate(Ensemble.from_shells([]), cfg)


class TestFreeMotion:
    def test_initial_value_and_symmetry(self):
        assert free_motion_radius_squared(2.0, -1.0, 0.5, 0.0) == 4.0
        t = np.array([0.0, 1.0, 2.0])
        out = free_motion_radius_squared(1.0, -1.0, 1.0, t)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0, rel=1e-15)  # (1-1)^2 + 1


class TestProfile:
    def test_segment_lookup(self):
        p = PiecewiseConstantProfile(edges=np.array([1.0]), values=np.array([0.3, 0.7]))
        assert p(0.5) == 0.3
        assert p(1.0) == 0.7  # right-continuous at the breakpoint
        assert p(10.0) == 0.7
        assert np.asarray(p(np.array([0.0, 2.0]))).tolist() == [0.3, 0.7]

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(edges=np.array([-1.0]), values=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(edges=np.array([2.0, 1.0]), values=np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(edges=np.array([1.0]), values=np.array([0.5]))
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(edges=np.array([1.0]), values=np.array([0.5, 1.5]))


class TestOracle:
    def test_free_motion_case(self):
        t_eval = np.linspace(0.0, 1.0, 21)
        out = integrate_oracle(1.0, -1.0, 1.0, P=0.0, t_end=1.0, t_eval=t_eval)
        exact = free_motion_radius_squared(1.0, -1.0, 1.0, t_eval)
        assert np.max(np.abs(out.y**2 / exact - 1.0)) < 1e-10
        assert out.turning_time == pytest.approx(0.5, rel=1e-9)
        assert out.y_turn == pytest.approx(np.sqrt(0.5), rel=1e-9)

    def test_forced_case_respects_turning_bound(self):
        # unit forcing throughout, so the bound hypotheses hold verbatim
        tb = turning_point_bound(y0=1.0, y1=-2.0, L=1.0, P=1.0)
        assert tb.y_star == pytest.approx(0.5773502691896257, rel=1e-15)
        assert tb.t0_lower == pytest.approx(0.21132486540518713, rel=1e-15)
        out = integrate_oracle(1.0, -2.0, 1.0, P=1.0, profile=1.0, t_end=1.0)
        before = out.times < tb.t0_lower
        assert np.all(out.ydot[before] < 0.0)
        assert out.turning_time > tb.t0_lower
        assert out.y_turn <= tb.y_star + 1e-9

    def test_piecewise_profile_with_equal_values_matches_constant(self):
        pcw = PiecewiseConstantProfile(edges=np.array([0.37]), values=np.array([0.6, 0.6]))
        a = integrate_oracle(1.0, -1.5, 0.5, P=2.0, profile=pcw, t_end=1.0)
        b = integrate_oracle(1.0, -1.5, 0.5, P=2.0, profile=0.6, t_end=1.0)
        assert np.max(np.abs(a.y / b.y - 1.0)) < 1e-10
        # a profile without breakpoints is the float profile, bit for bit
        flat = PiecewiseConstantProfile(edges=[], values=[0.6])
        c = integrate_oracle(1.0, -1.5, 0.5, P=2.0, profile=flat, t_end=1.0)
        assert c.y.tobytes() == b.y.tobytes()
        assert c.ydot.tobytes() == b.ydot.tobytes()
        assert c.turning_time == b.turning_time

    def test_profile_switch_takes_effect(self):
        pcw = PiecewiseConstantProfile(edges=np.array([0.2]), values=np.array([0.0, 1.0]))
        out = integrate_oracle(1.0, -1.0, 0.25, P=5.0, profile=pcw, t_end=0.5)
        early = out.times <= 0.2
        exact = free_motion_radius_squared(1.0, -1.0, 0.25, out.times[early])
        assert np.max(np.abs(out.y[early] ** 2 / exact - 1.0)) < 1e-9
        late = out.times >= 0.4
        free_late = np.sqrt(free_motion_radius_squared(1.0, -1.0, 0.25, out.times[late]))
        assert np.all(out.y[late] > free_late)

    def test_no_turning_reported_for_outgoing_motion(self):
        out = integrate_oracle(1.0, 1.0, 1.0, P=0.0, t_end=1.0)
        assert out.turning_time is None
        assert out.y_turn is None

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_oracle(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_oracle(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_oracle(1.0, -1.0, 1.0, P=-1.0)
        with pytest.raises(ValueError):
            integrate_oracle(1.0, -1.0, 1.0, t_end=0.0)
        with pytest.raises(ValueError):
            integrate_oracle(1.0, -1.0, 1.0, t_end=1.0, t_eval=np.array([2.0]))
        with pytest.raises(ValueError):
            integrate_oracle(1.0, -1.0, 1.0, profile=1.5)
