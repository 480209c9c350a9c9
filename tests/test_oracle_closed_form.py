"""integrate_oracle against an independent DOP853 reference, and
properties of its closed-form segments."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from vpshell import PiecewiseConstantProfile, draw_cases, integrate_oracle, oracle_suite
from vpshell.bounds import turning_point_bound
from vpshell.dynamics import (
    ORACLE_NEWTON_MAX_ITER,
    OracleBatch,
    OracleTrajectory,
    _free_orbit,
    _free_samples,
    _kepler_orbit,
    _kepler_samples,
    free_motion_radius_squared,
    integrate_oracle_batch,
    profile_rows,
)
from vpshell.oracle_suite import BOUND_TOL, N_SAMPLES, check_cases


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


def dop853_batch(r0, w0, ell, P, edges, values, t_end, times, case):
    """integrate_oracle_batch's contract, met by dop853_oracle per case."""
    sizes = np.count_nonzero(edges < np.inf, axis=1)
    trajs = [
        dop853_oracle(r0[i], w0[i], ell[i], P=P[i], t_end=t_end[i], t_eval=times[case == i],
                      profile=PiecewiseConstantProfile(edges[i, :size], values[i, : size + 1]))
        for i, size in enumerate(sizes)
    ]

    def turning(name):
        return np.array([np.nan if getattr(tr, name) is None else getattr(tr, name) for tr in trajs])

    return OracleBatch(
        times=np.concatenate([tr.times for tr in trajs]),
        y=np.concatenate([tr.y for tr in trajs]),
        ydot=np.concatenate([tr.ydot for tr in trajs]),
        case=case,
        turning_time=turning("turning_time"),
        y_turn=turning("y_turn"),
    )


def test_pass_flags_match_dop853_reference(monkeypatch):
    exact = check_cases(CASES)
    monkeypatch.setattr(oracle_suite, "integrate_oracle_batch", dop853_batch)
    ref = check_cases(CASES)
    assert [o.label for o in ref] == [case.label for case in CASES]
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


@st.composite
def batch_cases(draw):
    """One case of integrate_oracle_batch: free (P = 0 or profile 0),
    constant or piecewise-constant forcing with up to 4 breakpoints, some
    past t_end, and sample times that may sit on a breakpoint or repeat."""
    y0, y1, L, P, t_end = _orbit(*draw(orbits))
    kind = draw(st.sampled_from(["free", "constant", "piecewise"]))
    if kind == "free":
        profile = draw(st.sampled_from([0.0, 1.0]))
        P = 0.0 if profile == 1.0 else P
    elif kind == "constant":
        profile = draw(st.floats(0.0, 1.0))
    else:
        fractions = draw(st.lists(st.floats(0.01, 1.5), min_size=1, max_size=4, unique=True))
        edges = np.sort(np.array(fractions)) * t_end
        values = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
                               min_size=edges.size + 1, max_size=edges.size + 1))
        profile = PiecewiseConstantProfile(edges=edges, values=values)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    times = np.array(fractions) * t_end
    if isinstance(profile, PiecewiseConstantProfile):
        times = np.concatenate((times, profile.edges[profile.edges <= t_end]))
    return y0, y1, L, P, profile, t_end, np.sort(times)


def _batch(cases):
    times = np.concatenate([c[6] for c in cases])
    case = np.repeat(np.arange(len(cases)), [c[6].size for c in cases])
    r0, w0, ell, P, profiles, t_end = zip(*[c[:6] for c in cases])
    return integrate_oracle_batch(r0, w0, ell, P, *profile_rows(profiles), t_end, times, case)


@settings(max_examples=100, deadline=None)
@given(st.lists(batch_cases(), min_size=2, max_size=8))
def test_batch_solves_each_case_as_alone(cases):
    together = _batch(cases)
    for i, single in enumerate(cases):
        alone = _batch([single])
        mine = together.case == i
        assert together.times[mine].tobytes() == alone.times.tobytes()
        assert together.y[mine].tobytes() == alone.y.tobytes()
        assert together.ydot[mine].tobytes() == alone.ydot.tobytes()
        assert together.turning_time[i : i + 1].tobytes() == alone.turning_time.tobytes()
        assert together.y_turn[i : i + 1].tobytes() == alone.y_turn.tobytes()


def _scalar_free(y0, w0, ell, t):
    """The free segment from Python floats y0, w0, ell (squares by **),
    at the sample times t, an array."""
    y = np.sqrt(free_motion_radius_squared(y0, w0, ell, t))
    ydot = ((y0 + w0 * t) * w0 + ell * t / y0**2) / y
    t_turn = -y0 * w0 / (w0**2 + ell / y0**2)
    y_turn = np.sqrt(free_motion_radius_squared(y0, w0, ell, t_turn))
    return y, ydot, t_turn if w0 < 0.0 else np.nan, y_turn


def _scalar_kepler(y0, w0, ell, k, t):
    """The Kepler segment from Python floats y0, w0, ell, k (squares by
    **), at one sample time t, a 1-element array."""
    energy = 0.5 * w0**2 + ell / (2.0 * y0**2) + k / y0
    a = k / (2.0 * energy)
    b = np.sqrt(a**2 + ell / (2.0 * energy))
    c = 1.0 / np.sqrt(2.0 * energy)
    f0 = np.arcsinh(c * w0 * y0 / b)
    tau0 = c * (b * np.sinh(f0) + a * f0)
    target = tau0 + t
    f = np.arcsinh(target / (b * c))
    for _ in range(ORACLE_NEWTON_MAX_ITER):
        step = (c * (b * np.sinh(f) + a * f) - target) / (c * (b * np.cosh(f) + a))
        if not (step * np.sign(target) > 0.0 and f - step != f):
            break
        f = f - step
    y = b * np.cosh(f) + a
    return y, b * np.sinh(f) / (c * y), -tau0 if f0 < 0.0 else np.nan, a + b


def _pow_differs(*xs):
    # entries where some x**2 (libm pow) differs from x * x
    return np.logical_or.reduce([np.float_power(x, 2.0) != x * x for x in xs])


def test_segments_from_arrays_equal_segments_from_floats():
    """x**2 of a Python float is libm's pow, which differs from x * x in
    the last bit for about 1 x in 1000; the segments square through
    np.float_power so that their array entries equal these float
    formulas bit for bit.  Checked on 2,000 random segments and on the
    segments of a 200,000-draw pool where some squared constant splits,
    each sampled at t and t/2 from its orbit's constants gathered per
    sample, as integrate_oracle_batch gathers them."""
    rng = np.random.default_rng(2024)
    n = 200_000
    y0 = np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))
    w0 = rng.uniform(-3.0, 3.0, n)
    ell = np.exp(rng.uniform(np.log(1e-4), 0.0, n)) * y0**2 * w0**2
    k = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), n)) * y0 * w0**2
    t = rng.uniform(0.0, 3.0, n) * y0 / np.abs(w0)
    t_turn = -y0 * w0 / (np.float_power(w0, 2.0) + ell / np.float_power(y0, 2.0))
    energy = 0.5 * np.float_power(w0, 2.0) + ell / (2.0 * np.float_power(y0, 2.0)) + k / y0
    split = _pow_differs(y0, w0, k / (2.0 * energy))
    # the pericenter radius sqrt(u**2 + v) of a free segment, where the
    # split in u**2 survives the sum and the root
    u, v = y0 + w0 * t_turn, ell * (t_turn * t_turn) / np.float_power(y0, 2.0)
    split_turn = np.sqrt(np.float_power(u, 2.0) + v) != np.sqrt(u * u + v)
    picked = np.union1d(np.arange(2000), np.flatnonzero(split)[:400])
    picked = np.union1d(picked, np.flatnonzero(split_turn & (w0 < 0.0)))
    y0, w0, ell, k, t = (v[picked] for v in (y0, w0, ell, k, t))

    # sample 2i is orbit i at t[i], sample 2i + 1 at t[i] / 2
    owner = np.repeat(np.arange(picked.size), 2)
    times = np.column_stack((t, 0.5 * t)).ravel()

    y0_sq, t_turn, y_turn = _free_orbit(y0, w0, ell)
    y, ydot = _free_samples(y0[owner], w0[owner], ell[owner], y0_sq[owner], times)
    free = np.array((y, ydot, t_turn[owner], y_turn[owner]))
    a, b, c, tau0, t_turn, y_turn = _kepler_orbit(y0, w0, ell, k)
    y, ydot, stuck = _kepler_samples(a[owner], b[owner], c[owner], tau0[owner], times)
    assert not np.any(stuck)
    kepler = np.array((y, ydot, t_turn[owner], y_turn[owner]))
    for s, i in enumerate(owner):
        args = (float(y0[i]), float(w0[i]), float(ell[i]))
        at = times[s : s + 1]
        assert free[:, s].tobytes() == np.hstack(_scalar_free(*args, at)).tobytes()
        assert kepler[:, s].tobytes() == np.hstack(_scalar_kepler(*args, float(k[i]), at)).tobytes()
