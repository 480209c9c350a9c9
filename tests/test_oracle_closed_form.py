"""integrate_oracle against an independent DOP853 reference, and
properties of its closed-form segments."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from vpshell import PiecewiseConstantProfile, draw_cases, integrate_oracle, oracle_suite
from vpshell.bounds import turning_point_bound
from vpshell.dynamics import OracleTrajectory, free_motion_radius_squared
from vpshell.oracle_suite import BOUND_TOL, N_SAMPLES, check_case


def dop853_oracle(r0, w0, ell, P=0.0, profile=1.0, t_end=1.0, t_eval=None):
    """y'' = ell/y^3 + profile(t) P/y^2 by DOP853, split at the profile
    breakpoints, with the first upward ydot = 0 crossing as turning point."""
    if not isinstance(profile, PiecewiseConstantProfile):
        profile = PiecewiseConstantProfile(edges=(), values=(float(profile),))
    t_eval = np.sort(np.asarray(t_eval, dtype=float))
    edges = profile.edges
    cuts = np.concatenate(([0.0], edges[(edges > 0) & (edges < t_end)], [t_end]))

    def turn_event(t, state):
        return state[1]

    turn_event.direction = 1.0

    ys, yds = np.empty_like(t_eval), np.empty_like(t_eval)
    filled = np.zeros(t_eval.shape, dtype=bool)
    state = np.array([r0, w0], dtype=float)
    turning_time = y_turn = None
    for ta, tb in zip(cuts[:-1], cuts[1:]):
        k = float(profile(0.5 * (ta + tb))) * P
        sol = solve_ivp(
            lambda t, s: (s[1], ell / s[0] ** 3 + k / s[0] ** 2),
            (ta, tb), state, method="DOP853", rtol=1e-11, atol=1e-13,
            dense_output=True, events=turn_event,
        )
        assert sol.success, sol.message
        mask = (~filled) & (t_eval >= ta) & (t_eval <= tb)
        ys[mask], yds[mask] = sol.sol(t_eval[mask])
        filled |= mask
        events = sol.t_events[0][sol.t_events[0] > 0.0]
        if turning_time is None and events.size:
            turning_time = float(events[0])
            y_turn = float(sol.sol(turning_time)[0])
        state = sol.y[:, -1]
    return OracleTrajectory(t_eval, ys, yds, turning_time, y_turn)


def _until_turning(oracle, case):
    """The oracle on the suite's sample grid, widening the horizon as
    the suite does until the turning point is inside it."""
    t_end = 3.0 * case.y0 / abs(case.y1)
    for _ in range(6):
        traj = oracle(case.y0, case.y1, case.L, P=case.P, profile=case.profile,
                      t_end=t_end, t_eval=np.linspace(0.0, t_end, N_SAMPLES))
        if traj.turning_time is not None:
            return traj
        t_end *= 4.0
    raise AssertionError(f"{case.label}: no turning point out to t={t_end}")


CASES = draw_cases(50, 1234)


def test_agrees_with_dop853_reference():
    labels = {case.label for case in CASES}
    assert {"profile-zero", "profile-one"} <= labels
    worst = 0.0
    for case in CASES:
        exact = _until_turning(integrate_oracle, case)
        ref = _until_turning(dop853_oracle, case)
        assert exact.times.tobytes() == ref.times.tobytes()
        worst = max(
            worst,
            float(np.max(np.abs(exact.y / ref.y - 1.0))),
            abs(exact.turning_time / ref.turning_time - 1.0),
            abs(exact.y_turn / ref.y_turn - 1.0),
        )
    assert worst <= 1e-9


def test_pass_flags_match_dop853_reference(monkeypatch):
    exact = [check_case(case, i) for i, case in enumerate(CASES)]
    monkeypatch.setattr(oracle_suite, "integrate_oracle", dop853_oracle)
    ref = [check_case(case, i) for i, case in enumerate(CASES)]
    flags = [(o.ydot_ok, o.y_turn_ok, o.envelope_ok) for o in exact]
    assert flags == [(o.ydot_ok, o.y_turn_ok, o.envelope_ok) for o in ref]


# Ranges wider than draw_cases: L/(y0^2 y1^2) in [1e-8, 1], P/(y0 y1^2)
# up to 1e3, and horizons up to 4^6 times the first, as the suite's
# retries reach.
speeds = st.floats(0.3, 3.0)
orbits = st.tuples(
    speeds,
    speeds,
    st.floats(-8.0, 0.0),
    st.one_of(st.just(None), st.floats(-6.0, 3.0)),
    st.integers(0, 6),
)


def _orbit(y0, speed, log_l, log_p, widen):
    y1 = -speed
    L = 10.0**log_l * y0**2 * y1**2
    P = 0.0 if log_p is None else 10.0**log_p * y0 * y1**2
    t_end = 3.0 * y0 / speed * 4.0**widen
    return y0, y1, L, P, t_end


def _energy(traj, L, k):
    return 0.5 * traj.ydot**2 + L / (2.0 * traj.y**2) + k / traj.y


@settings(max_examples=200, deadline=None)
@given(orbits, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
# a charge so small that k^2 underflows
@example(orbit=(1.0, 1.0, 0.0, 0.0, 0), values=[1e-110])
def test_energy_constant_within_each_segment(orbit, values):
    """Also shows the Newton solve converging (no OracleError) over the
    wide ranges of `orbits`."""
    y0, y1, L, P, t_end = _orbit(*orbit)
    edges = t_end * np.arange(1, len(values)) / len(values)
    profile = PiecewiseConstantProfile(edges=edges, values=values)
    t_eval = np.linspace(0.0, t_end, N_SAMPLES)
    traj = integrate_oracle(y0, y1, L, P=P, profile=profile, t_end=t_end, t_eval=t_eval)
    assert np.all(np.isfinite(traj.y)) and np.all(traj.y > 0.0)
    assert np.all(np.isfinite(traj.ydot))
    # a sample on a breakpoint belongs to the earlier segment
    segment = np.searchsorted(edges, t_eval, side="left")
    for j, p in enumerate(values):
        energy = _energy(traj, L, p * P)[segment == j]
        if energy.size:
            assert np.max(np.abs(energy / energy[0] - 1.0)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(orbits)
def test_vanishing_charge_matches_free_motion(orbit):
    y0, y1, L, _, t_end = _orbit(*orbit)
    t_eval = np.linspace(0.0, t_end, N_SAMPLES)
    free = integrate_oracle(y0, y1, L, P=0.0, t_end=t_end, t_eval=t_eval)
    # A fixed P = 1e-12 moves the pericenter of a deep plunge by
    # k/(2 E y_min) relative, 1.3e-9 at L/(y0^2 y1^2) = 1e-5: physics, not
    # error.  Scaled so that k/y_min is 1e-12 of the energy, any
    # difference beyond 1e-9 is the closed form losing precision.
    energy = 0.5 * y1**2 + L / (2.0 * y0**2)
    tiny_p = 1e-12 * energy * np.sqrt(L / (2.0 * energy))
    tiny = integrate_oracle(y0, y1, L, P=tiny_p, t_end=t_end, t_eval=t_eval)
    assert np.max(np.abs(free.y**2 / free_motion_radius_squared(y0, y1, L, t_eval) - 1.0)) <= 1e-12
    assert np.max(np.abs(tiny.y / free.y - 1.0)) <= 1e-9
    assert np.max(np.abs(tiny.ydot - free.ydot)) <= 1e-9 * abs(y1)
    assert (tiny.turning_time is None) == (free.turning_time is None)
    if free.turning_time is not None:
        assert tiny.turning_time == pytest.approx(free.turning_time, rel=1e-9)
        assert tiny.y_turn == pytest.approx(free.y_turn, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(orbits)
def test_unit_profile_turns_within_radius_bound(orbit):
    y0, y1, L, P, t_end = _orbit(*orbit)
    bound = turning_point_bound(L, P, y0, y1)
    traj = integrate_oracle(y0, y1, L, P=P, profile=1.0, t_end=t_end,
                            t_eval=np.linspace(0.0, t_end, N_SAMPLES))
    if traj.turning_time is not None:
        assert traj.y_turn <= bound.y_star + BOUND_TOL
        assert traj.turning_time >= bound.t0_lower * (1.0 - 1e-9)
