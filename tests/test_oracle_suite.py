import hashlib
import tracemalloc

import numpy as np
import pytest

from vpshell import dynamics, draw_cases, oracle_suite, run_oracle_suite
from vpshell.dynamics import OracleError, PiecewiseConstantProfile
from vpshell.oracle_suite import (
    LOG_RANGE_L,
    LOG_RANGE_P,
    LOG_RANGE_Y,
    N_SAMPLES,
    OracleCase,
    OracleCases,
    _sample_times,
    check_case,
    check_cases,
)


def test_draws_are_seeded_and_reproducible():
    a = draw_cases(20, seed=99)
    b = draw_cases(20, seed=99)
    for ca, cb in zip(a, b):
        assert (ca.L, ca.P, ca.y0, ca.y1, ca.label) == (cb.L, cb.P, cb.y0, cb.y1, cb.label)
    c = draw_cases(20, seed=100)
    assert any(ca.y0 != cc.y0 for ca, cc in zip(a, c))


def test_draws_satisfy_hypotheses_and_cover_extremes():
    cases = draw_cases(50, seed=5)
    assert cases[0].profile == 0.0 and cases[0].label == "profile-zero"
    assert cases[1].profile == 1.0 and cases[1].label == "profile-one"
    for case in cases:
        assert case.L > 0 and case.P >= 0
        assert case.y0 > 0 and case.y1 < 0
    assert any(case.P == 0.0 for case in cases)


def test_draw_validation():
    with pytest.raises(ValueError):
        draw_cases(0)


def _draw_digest(cases):
    """SHA-256 over every case: L, P, y0 and y1, the profile's kind,
    breakpoint count, edges and values, as bytes, then the label."""
    digest = hashlib.sha256()
    for case in cases:
        assert all(type(v) is float for v in (case.L, case.P, case.y0, case.y1))
        if isinstance(case.profile, PiecewiseConstantProfile):
            kind, edges, values = b"rows", case.profile.edges, case.profile.values
        else:
            kind, edges, values = b"float", np.empty(0), np.array([case.profile], dtype=float)
        digest.update(np.array([case.L, case.P, case.y0, case.y1]).tobytes())
        digest.update(kind + np.int64(edges.size).tobytes() + edges.tobytes() + values.tobytes())
        digest.update(case.label.encode() + b"\0")
    return digest.hexdigest()


# _draw_digest(draw_cases(n, seed)), recorded with the draws made one
# scalar Generator.uniform call at a time.
DRAW_DIGESTS = {
    (1000, 1234): "34bdfb20c33b597eaa0330b1ac1cc25b604be3588fe7a550c7637b0acc4a04a2",
    (1000, 5): "a40fb302d33c1113609c77c15bfc50a66ac01ebf20e96ff8b55553e991d095b0",
    (1000, 99): "089eb8c8ac3e19dfa3f7a111502b3197e33a3a60e2885b8f24798e3697ce7e35",
    # only the extreme profiles
    (1, 1234): "1ca2edb3197d0f894bfba6ef612b21011fead4740b34b9808864ae5c3c89f67d",
    (2, 1234): "b3d59d7b682e2351c8f93f18ea9e2fe2181e0dcad87a81c7ef69cceec84784c9",
}


@pytest.mark.parametrize("n_cases, seed", sorted(DRAW_DIGESTS))
def test_draws_are_pinned(n_cases, seed):
    cases = draw_cases(n_cases, seed)
    assert len(cases) == n_cases
    assert _draw_digest(cases) == DRAW_DIGESTS[n_cases, seed]


def _scalar_draws(n_cases, seed):
    """draw_cases made one scalar Generator call at a time, each case's
    profile an object: the reference the array draws equal bit for bit."""
    rng = np.random.default_rng(seed)

    def log_uniform(log_range):
        return float(np.exp(rng.uniform(*log_range)))

    cases = []
    for i in range(n_cases):
        y0 = log_uniform(LOG_RANGE_Y)
        y1 = -log_uniform(LOG_RANGE_Y)
        L = log_uniform(LOG_RANGE_L) * y0**2 * y1**2
        P = 0.0 if rng.uniform() < 0.1 else log_uniform(LOG_RANGE_P) * y0 * y1**2
        horizon = 3.0 * y0 / abs(y1)
        if i < 2:
            profile, label = float(i), ("profile-zero", "profile-one")[i]
        else:
            edges = np.sort(rng.uniform(0.0, horizon, size=int(rng.integers(1, 5))))
            edges = edges[edges > 0]
            values = rng.uniform(0.0, 1.0, size=edges.size + 1)
            profile, label = PiecewiseConstantProfile(edges=edges, values=values), f"case-{i}"
        cases.append(OracleCase(L=L, P=P, y0=y0, y1=y1, profile=profile, label=label))
    return cases


def test_array_draws_equal_scalar_draws():
    for seed in range(20):
        for n_cases in (1, 2, 3, 150):
            assert _draw_digest(draw_cases(n_cases, seed)) == _draw_digest(
                _scalar_draws(n_cases, seed)
            ), (n_cases, seed)


def test_drawn_cases_slice_and_index_as_a_list_does():
    cases = draw_cases(12, seed=3)
    listed = list(cases)
    assert repr(cases[-1]) == repr(listed[-1])
    assert repr(list(cases[3:9:2])) == repr(listed[3:9:2])
    assert repr(list(OracleCases.from_cases(listed))) == repr(listed)
    with pytest.raises(IndexError):
        cases[12]


def test_check_case_free_motion():
    case = OracleCase(L=1.0, P=0.0, y0=1.0, y1=-1.0, profile=0.0, label="free")
    out = check_case(case)
    assert out.passed
    assert out.turning_time == pytest.approx(0.5, rel=1e-8)
    # free motion saturates the radius bound
    assert out.y_turn == pytest.approx(out.y_star, abs=1e-9)


def test_check_case_reports_violation_detail(monkeypatch):
    # a deliberately wrong bound: tolerance below the oracle's own error
    case = OracleCase(L=1.0, P=0.0, y0=1.0, y1=-1.0, profile=0.0, label="tight")
    monkeypatch.setattr(oracle_suite, "BOUND_TOL", -1e-3)  # impossible tolerance forces failure
    out = check_case(case)
    assert not out.passed
    assert out.detail != ""


def test_small_suite_passes():
    result = run_oracle_suite(n_cases=40, seed=2024)
    assert result.passed, [o.detail for o in result.violations]
    assert result.n_cases == 40
    assert "0 violations" in result.summary()
    # the turning radius never beats the bound by more than the tolerance
    worst = max(o.y_turn - o.y_star for o in result.outcomes)
    assert worst <= 1e-9
    # grazing starts turn roughly where predicted, deep plunges later
    for o in result.outcomes:
        assert o.turning_time >= o.t0_lower * (1.0 - 1e-9)


# SHA-256 of repr(run_oracle_suite(1000, seed).outcomes), recorded with
# the suite that solved one case and one segment at a time.
SUITE_DIGESTS = {
    1234: "6a091267b3f4185b4513eb177c880134cb1d02fd1d6cfe22c3540a241ebd11e1",
    5: "2de36adb4a2a39ce216eab7ab791fd0dd66517fee17da1899ebcefae60f6fb14",
    99: "5c814d0ebed93dfae3adf8d70dc5f1fb69aa836f7e861a2c7a66762a017123c7",
}


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS))
def test_suite_outcomes_are_pinned(seed):
    outcomes = run_oracle_suite(1000, seed).outcomes
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == SUITE_DIGESTS[seed]


def test_drift_trajectories_are_pinned():
    """integrate_oracle over draw_cases(200, 1234) on the first horizon at
    129 even times, as the benchmark's oracle energy drift reads it; the
    digest was recorded with the one-case solver."""
    digest = hashlib.sha256()
    for case in draw_cases(200, 1234):
        t_end = 3.0 * case.y0 / abs(case.y1)
        traj = dynamics.integrate_oracle(
            r0=case.y0, w0=case.y1, ell=case.L, P=case.P, profile=case.profile,
            t_end=t_end, t_eval=np.linspace(0.0, t_end, 129),
        )
        for column in (traj.times, traj.y, traj.ydot):
            digest.update(column.tobytes())
        digest.update(repr((traj.turning_time, traj.y_turn)).encode())
    assert digest.hexdigest() == "21922c130c1f6440934a6397a6263657b3853be19029da0cd7727bbdcd42ca0e"


def test_suite_pass_stays_within_its_memory_budget():
    """check_cases on 200 cases, BATCH_CASES at a time, peaks below
    1.5 MiB of traced allocations.  Measured over seeds 0, 1234, 5 and
    99: 1.25-1.30 MiB at 100 cases per pass; 2.36-2.46 MiB at 200 per
    pass, and 1.57-1.63 MiB at 100 per pass when every sample recomputed
    its orbit's constants."""
    cases = draw_cases(200, seed=0)
    tracemalloc.start()
    try:
        check_cases(cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_batched_outcomes_equal_one_case_outcomes():
    cases = draw_cases(60, seed=11)
    batched = check_cases(cases)
    assert batched == [check_case(case, index=i) for i, case in enumerate(cases)]
    assert repr(batched) == repr([check_case(case, index=i) for i, case in enumerate(cases)])
    # the drawn arrays and the same cases as objects
    assert repr(check_cases(list(cases))) == repr(batched)


def test_case_that_turns_on_the_third_horizon_is_checked_as_alone():
    """L = 1e-4, P = 1.5, y0 = 1, y1 = -1 under a force switched off at
    t = 0.4431 lies inside draw_cases' ranges, yet turns only at
    t ~ 19.4: it is solved on horizons 3, 12 and 48.  Among drawn cases
    its outcome is the one check_case gives it."""
    case = OracleCase(
        L=1e-4, P=1.5, y0=1.0, y1=-1.0,
        profile=PiecewiseConstantProfile(edges=np.array([0.4431]), values=np.array([1.0, 0.0])),
        label="third-horizon",
    )
    alone = check_case(case, index=2)
    assert alone.passed and 12.0 < alone.turning_time < 48.0
    cases = list(draw_cases(5, 7))
    cases[2] = case
    assert repr(check_cases(cases)[2]) == repr(alone)


def test_suite_draws_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return draw_cases(*args, **kwargs)

    monkeypatch.setattr(oracle_suite, "draw_cases", counting)
    assert run_oracle_suite(5, seed=7).passed
    assert len(calls) == 1


@pytest.mark.parametrize(
    "t_end, t_extra",
    [
        (2.0, 0.7),  # between grid times
        (2.0, 2.0 * 5 / (N_SAMPLES - 1)),  # on a grid time: joins nothing
        (2.0, 0.0),  # on the first grid time
        (2.0, 2.0),  # on the last
        (2.0, 2.5),  # past the horizon: left out
    ],
)
def test_sample_times_join_as_unique_does(t_end, t_extra):
    t_ends = np.array([1.5, t_end, 0.25])
    extras = np.array([0.3, t_extra, 1.0])
    times, case = _sample_times(t_ends, extras)
    for i, (end, extra) in enumerate(zip(t_ends, extras)):
        grid = np.linspace(0.0, end, N_SAMPLES)
        expected = np.unique(np.concatenate((grid, [extra] if extra <= end else [])))
        assert times[case == i].tobytes() == expected.tobytes()
    assert np.all(np.diff(case) >= 0)


def test_newton_failure_names_the_case(monkeypatch):
    calm = OracleCase(L=1.0, P=0.0, y0=1.0, y1=-1.0, profile=1.0, label="calm")
    stubborn = OracleCase(
        L=0.5, P=2.0, y0=1.0, y1=-1.5,
        profile=PiecewiseConstantProfile(edges=[0.3], values=[0.0, 1.0]), label="stubborn",
    )
    assert check_cases([calm, stubborn])[1].passed
    monkeypatch.setattr(dynamics, "ORACLE_NEWTON_MAX_ITER", 1)
    # the free case needs no Newton solve; the Kepler segment of the other does
    with pytest.raises(OracleError, match="^stubborn: Newton solve") as info:
        check_cases([calm, calm, stubborn, calm])
    assert "calm" not in str(info.value)
    with pytest.raises(OracleError, match="^stubborn: "):
        check_case(stubborn, index=7)
