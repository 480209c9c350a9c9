import dataclasses
import hashlib
import re

import numpy as np
import pytest

import vpshell.dynamics
from vpshell import (
    Ensemble,
    IntegratorConfig,
    PiecewiseConstantProfile,
    SortedMassIndex,
    StepBudgetError,
    StiffnessError,
    accel,
    free_motion_radius_squared,
    integrate,
    integrate_oracle,
    turning_point_bound,
    infall_envelope,
    sample_ensemble,
)
from vpshell import ClassSpec, InitialData, design_small_data


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
        # so every step of this run needs the halving branch; every radius
        # the force is evaluated at passes through _radius_terms
        radii = []
        radius_terms = vpshell.dynamics._radius_terms

        def recording_terms(r, ell, ell_r3, r2):
            radii.append(np.array(r, dtype=float))
            return radius_terms(r, ell, ell_r3, r2)

        monkeypatch.setattr(vpshell.dynamics, "_radius_terms", recording_terms)
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

    def test_step_too_short_to_advance_t_is_stiff(self):
        """At t = 1e6 half an ulp of t is 5.8e-11, so the CFL step of
        2e-11, above dt_min = 5e-13, would move the shell and leave t
        where it was: a state without a row of its own."""
        ens = Ensemble.single(r=1e-9, w=-10.0, ell=0.0, weight=1e-3, time=1e6)
        cfg = IntegratorConfig(t_end=1e6 + 1.0, dt_max=0.5)
        with pytest.raises(StiffnessError) as exc:
            integrate(ens, cfg)
        assert exc.value.time == 1e6
        assert exc.value.dt >= cfg.dt_min
        assert 1e6 + exc.value.dt == 1e6

    def test_one_index_build_per_state(self, monkeypatch):
        build = SortedMassIndex.from_ensemble
        calls = []

        def counting(ensemble, **kwargs):
            calls.append(ensemble.time)
            return build(ensemble, **kwargs)

        monkeypatch.setattr(SortedMassIndex, "from_ensemble", staticmethod(counting))
        ens = sample_ensemble(canonical_data(), 6, 6, 4)
        cfg = IntegratorConfig(t_end=0.02, dt_max=1e-3)
        result = integrate(ens, cfg, mark_times=(0.005,))
        assert result.steps > 3
        assert len(calls) == result.steps + 1
        assert len(set(calls)) == len(calls)

    def test_index_order_is_lexsort_through_pericenter(self, monkeypatch):
        # every state's radii are positive normal doubles, so every build
        # sorts packed keys; the grid's shared radii at t = 0 and close
        # approaches later make some keys collide, crossings scramble the
        # radial order
        build = SortedMassIndex.from_ensemble
        collide = []

        def checked(ensemble, **kwargs):
            index = build(ensemble, **kwargs)
            r = ensemble.r
            assert np.min(r) >= np.finfo(np.float64).tiny and np.max(r) < np.inf
            high = np.sort(r.view(np.int64) >> (r.size - 1).bit_length())
            collide.append(bool(np.any(high[1:] == high[:-1])))
            expected = np.lexsort((ensemble.ids, r))
            assert index.order.tobytes() == expected.tobytes()
            return index

        monkeypatch.setattr(SortedMassIndex, "from_ensemble", staticmethod(checked))
        result = pericenter_run()
        assert len(collide) == result.steps + 1
        # both collision-free and colliding packed builds
        assert any(collide) and not all(collide)


def pericenter_run():
    """The 8x8x6 run at eps = 0.05 to 3T: it crosses pericenter, and its
    indexes come from packed sorts with and without colliding keys (see
    test_index_order_is_lexsort_through_pericenter)."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.05)
    ens = sample_ensemble(InitialData.from_spec(cert.spec), 8, 8, 6)
    t_end = 3.0 * cert.t_horizon
    return integrate(ens, IntegratorConfig(t_end=t_end, dt_max=t_end / 150))


class TestWorkArrays:
    """The step's reused arrays change no output byte and never alias the
    caller's ensemble or a snapshot."""

    # SHA-256 of the rows, final r and w, and turning data of pericenter_run
    PERICENTER_RUN_SHA256 = "703543e34e5b7baf573dcb64e95ca34055fb408a6da73b5ec7ab3219d7c70ba5"

    def test_pericenter_run_bytes_are_pinned(self):
        result = pericenter_run()
        digest = hashlib.sha256(
            np.array([dataclasses.astuple(row) for row in result.rows]).tobytes()
        )
        for array in (
            result.final.r,
            result.final.w,
            result.turning_time,
            result.r_min_shell,
            result.t_at_r_min,
        ):
            digest.update(array.tobytes())
        assert result.steps == 270
        assert digest.hexdigest() == self.PERICENTER_RUN_SHA256

    def test_work_arrays_never_alias_what_the_caller_sees(self):
        ens = sample_ensemble(canonical_data(), 6, 6, 4)
        names = ("r", "w", "ell", "weight", "ids")
        before = [getattr(ens, name).tobytes() for name in names]
        t1 = 0.005
        result = integrate(ens, IntegratorConfig(t_end=0.02, dt_max=1e-3), mark_times=(t1,))
        assert result.steps > 15
        assert [getattr(ens, name).tobytes() for name in names] == before
        assert result.snapshots[-1][1] is result.final
        arrays = [a for _, state in result.snapshots for a in (state.r, state.w)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        # later steps wrote nothing into the snapshot at t1
        stopped = integrate(ens, IntegratorConfig(t_end=t1, dt_max=1e-3)).final
        mark = result.snapshot_at(t1)
        assert mark.r.tobytes() == stopped.r.tobytes()
        assert mark.w.tobytes() == stopped.w.tobytes()


def mark_grid(dt, t_end):
    """Mark times every dt up to t_end, so that the snapshots sample every
    shell's path."""
    return tuple(np.linspace(0.0, t_end, round(t_end / dt) + 1)[1:].tolist())


def sampled_paths(result):
    """The snapshot times and the radii there, one column per shell."""
    t = np.array([time for time, _ in result.snapshots])
    return t, np.array([state.r for _, state in result.snapshots])


class TestIntegrateSingleShell:
    """A lone shell feels no self-field, so the run must reproduce free
    planar motion exactly up to the integrator's order."""

    def run(self, dt_max, cfl):
        cfg = IntegratorConfig(t_end=1.0, dt_max=dt_max, cfl=cfl)
        return integrate(single_shell(), cfg, mark_times=mark_grid(dt_max, 1.0))

    def max_rel_err(self, result):
        t, r = sampled_paths(result)
        exact = np.sqrt(free_motion_radius_squared(1.0, -1.0, 1.0, t))
        return float(np.max(np.abs(r[:, 0] / exact - 1.0)))

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
    result = integrate(ens, cfg, mark_times=(0.008, *mark_grid(cfg.dt_max, cfg.t_end)))
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
        ens, _, result = small_run
        for tid, r in zip(ens.ids, sampled_paths(result)[1].T):
            s = np.sign(np.diff(r))
            s = s[s != 0.0]
            flips = np.flatnonzero(np.diff(s) != 0.0)
            assert flips.size <= 1, f"shell {tid} radius not unimodal"
            if flips.size == 1:
                assert s[flips[0]] == -1.0 and s[flips[0] + 1] == 1.0

    def test_envelope_bound_until_turning(self, small_run):
        ens, _, result = small_run
        total = ens.total_mass
        t, paths = sampled_paths(result)
        for pos, r in enumerate(paths.T):
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

    def test_step_budget_enforced(self, monkeypatch):
        """CFL limits take a run that dt_max alone ends in 2 steps past the
        budget; it stops with a StepBudgetError."""
        monkeypatch.setattr(vpshell.dynamics, "MAX_STEPS", 3)
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.5, cfl=0.01)
        with pytest.raises(StepBudgetError, match="3 steps reached at t="):
            integrate(single_shell(), cfg)

    def test_config_refuses_a_t_end_beyond_the_step_budget(self, monkeypatch):
        monkeypatch.setattr(vpshell.dynamics, "MAX_STEPS", 3)
        IntegratorConfig(t_end=0.75, dt_max=0.25)
        with pytest.raises(ValueError, match="exceeds the budget of 3"):
            IntegratorConfig(t_end=1.0, dt_max=0.25)

    def test_empty_ensemble_rejected(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.1)
        empty = np.empty(0)
        with pytest.raises(ValueError):
            integrate(Ensemble(empty, empty, empty, empty, np.empty(0, dtype=np.int64)), cfg)

    @pytest.mark.parametrize(
        "quantity, value",
        [
            ("r", 0.0),
            ("r", -1.0),
            ("r", np.inf),
            ("r", np.nan),
            ("w", np.nan),
            ("ell", -1.0),
            ("ell", np.nan),
            ("weight", np.inf),  # a NaN weight is refused when the ensemble is built
        ],
    )
    def test_bad_shell_refused_by_id_before_the_first_step(self, quantity, value):
        columns = dict(
            r=np.array([1.0, 1.2]),
            w=np.array([-0.5, -0.4]),
            ell=np.array([0.1, 0.2]),
            weight=np.array([0.5, 0.5]),
        )
        columns[quantity][1] = value
        ens = Ensemble(**columns, ids=np.array([7, 3], dtype=np.int64))
        with pytest.raises(ValueError, match=re.escape(f"shell id 3: {quantity}={value!r}") + "$"):
            integrate(ens, IntegratorConfig(t_end=1.0, dt_max=0.01))


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

    def test_refuses_nan_value(self):
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            PiecewiseConstantProfile(edges=np.array([1.0]), values=np.array([0.5, np.nan]))

    def test_refuses_nan_edge(self):
        with pytest.raises(ValueError, match="breakpoints must be positive and ascending"):
            PiecewiseConstantProfile(edges=np.array([1.0, np.nan]), values=np.array([0.5, 0.5, 1.0]))
        with pytest.raises(ValueError, match="breakpoints must be positive and ascending"):
            PiecewiseConstantProfile(edges=np.array([np.nan]), values=np.array([0.5, 1.0]))


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

    def test_refuses_nan_charge_and_times(self):
        with pytest.raises(ValueError, match="P must be nonnegative"):
            integrate_oracle(1.0, -1.0, 1.0, P=np.nan)
        with pytest.raises(ValueError, match="t_eval must lie inside"):
            integrate_oracle(1.0, -1.0, 1.0, t_end=1.0, t_eval=np.array([0.5, np.nan]))

    @pytest.mark.parametrize("edges, values, refusal", [
        ([[0.5, np.inf]], [[0.2, 0.4, 0.0]], None),
        ([[np.nan, np.inf]], [[0.2, 0.4, 0.0]], "breakpoints must be positive and ascending"),
        ([[0.5, np.nan]], [[0.2, 0.4, 0.0]], "breakpoints must be positive and ascending"),
        ([[np.nan]], [[0.2, 0.4]], "breakpoints must be positive and ascending"),
        ([[np.inf, 0.5]], [[0.2, 0.4, 0.0]], "breakpoints must be positive and ascending"),
        ([[0.5, np.inf]], [[0.2, np.nan, 0.0]], r"values must lie in \[0, 1\]"),
    ])
    def test_batch_refuses_nan_profile_rows(self, edges, values, refusal):
        def solve():
            return vpshell.dynamics.integrate_oracle_batch(
                [1.0], [-1.0], [1.0], [1.0], edges, values, [1.0],
                np.linspace(0.0, 1.0, 5), np.zeros(5, dtype=int),
            )

        if refusal is None:
            assert np.all(np.isfinite(solve().y))
        else:
            with pytest.raises(ValueError, match=refusal):
                solve()
