import numpy as np
import pytest

from vpshell import draw_cases, oracle_suite, run_oracle_suite
from vpshell.oracle_suite import OracleCase, check_case


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
