import hashlib
import tracemalloc

import numpy as np
import pytest

from vpshell import dynamics, draw_cases, oracle_suite, run_oracle_suite
from vpshell.dynamics import OracleError, PiecewiseConstantProfile
from vpshell.oracle_suite import N_SAMPLES, OracleCase, _sample_times, check_case, check_cases


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
