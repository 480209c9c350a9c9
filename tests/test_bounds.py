import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpshell import (
    confinement_lower_bounds,
    free_motion_radius_squared,
    infall_envelope,
    turning_point_bound,
)

positive = st.floats(1e-2, 1e2)


class TestTurningBound:
    def test_free_case(self):
        tb = turning_point_bound(L=1.0, P=0.0, y0=1.0, y1=-1.0)
        assert tb.y_star == np.sqrt(0.5)
        assert tb.t0_lower == pytest.approx(1.0 - np.sqrt(0.5), rel=1e-15)

    def test_forced_case(self):
        tb = turning_point_bound(L=1.0, P=1.0, y0=1.0, y1=-2.0)
        assert tb.y_star == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-15)
        assert tb.t0_lower == pytest.approx((1.0 - np.sqrt(1.0 / 3.0)) / 2.0, rel=1e-15)

    @given(y0=positive, y1=positive, L=positive, P=st.floats(0.0, 1e2))
    def test_radius_bound_below_start(self, y0, y1, L, P):
        tb = turning_point_bound(L=L, P=P, y0=y0, y1=-y1)
        assert 0.0 < tb.y_star < y0
        assert tb.t0_lower > 0.0

    def test_faster_infall_penetrates_deeper(self):
        slow = turning_point_bound(L=1.0, P=0.5, y0=1.0, y1=-1.0)
        fast = turning_point_bound(L=1.0, P=0.5, y0=1.0, y1=-100.0)
        assert fast.y_star < slow.y_star
        # and the bound radius vanishes in the limit
        hyper = turning_point_bound(L=1.0, P=0.5, y0=1.0, y1=-1e8)
        assert hyper.y_star < 1e-7

    def test_more_angular_momentum_turns_earlier_and_higher(self):
        lo = turning_point_bound(L=0.1, P=0.0, y0=1.0, y1=-1.0)
        hi = turning_point_bound(L=10.0, P=0.0, y0=1.0, y1=-1.0)
        assert hi.y_star > lo.y_star
        assert hi.t0_lower < lo.t0_lower

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            turning_point_bound(L=0.0, P=0.0, y0=1.0, y1=-1.0)
        with pytest.raises(ValueError):
            turning_point_bound(L=1.0, P=-1.0, y0=1.0, y1=-1.0)
        with pytest.raises(ValueError):
            turning_point_bound(L=1.0, P=0.0, y0=0.0, y1=-1.0)
        with pytest.raises(ValueError):
            turning_point_bound(L=1.0, P=0.0, y0=1.0, y1=0.0)

    def test_refuses_nan_charge(self):
        with pytest.raises(ValueError, match="need P >= 0, got nan"):
            turning_point_bound(1.0, np.nan, 1.0, -1.0)
        with pytest.raises(ValueError, match="need P >= 0, got nan"):
            infall_envelope(1.0, np.array([0.0, np.nan]), 1.0, -1.0, 0.5)


class TestArrays:
    """The bounds over arrays equal the bounds of each entry alone, bit
    for bit, so a batch of cases gets the bounds each would get alone."""

    @given(st.lists(st.tuples(positive, st.floats(0.0, 1e2), positive, positive),
                    min_size=1, max_size=12))
    def test_entries_equal_scalar_calls(self, params):
        L, P, y0, speed = (np.array(column) for column in zip(*params))
        bound = turning_point_bound(L, P, y0, -speed)
        t = np.linspace(0.0, 3.0, 7)
        env = infall_envelope(L[:, None], P[:, None], y0[:, None], -speed[:, None], t)
        for i, (l, p, y, v) in enumerate(params):
            one = turning_point_bound(l, p, y, -v)
            assert (float(bound.y_star[i]), float(bound.t0_lower[i])) == (one.y_star, one.t0_lower)
            assert env[i].tobytes() == infall_envelope(l, p, y, -v, t).tobytes()

    def test_scalars_give_floats(self):
        bound = turning_point_bound(1.0, 0.5, 1.0, -1.0)
        assert type(bound.y_star) is float and type(bound.t0_lower) is float
        assert type(infall_envelope(1.0, 0.5, 1.0, -1.0, 0.25)) is float

    def test_refusal_names_the_first_breaking_entry(self):
        with pytest.raises(ValueError, match=r"need y1 < 0 \(inward start\), got 0.5"):
            turning_point_bound(np.ones(3), np.zeros(3), np.ones(3), np.array([-1.0, 0.5, 2.0]))
        with pytest.raises(ValueError, match="need P >= 0, got -2.0"):
            infall_envelope(1.0, np.array([0.0, -2.0]), 1.0, -1.0, 0.5)


class TestEnvelope:
    def test_initial_value(self):
        assert infall_envelope(L=1.0, P=1.0, y0=2.0, y1=-1.0, t=0.0) == 4.0

    def test_free_case_is_exact_motion(self):
        t = np.linspace(0.0, 2.0, 17)
        env = infall_envelope(L=0.7, P=0.0, y0=1.3, y1=-0.9, t=t)
        exact = free_motion_radius_squared(1.3, -0.9, 0.7, t)
        assert env == pytest.approx(exact, rel=1e-15)

    @given(y0=positive, y1=positive, L=positive, P=st.floats(0.0, 1e2))
    def test_minimum_equals_turning_radius_squared(self, y0, y1, L, P):
        # the parabola (y0 + y1 t)^2 + c t^2, c = L/y0^2 + P/y0, is least
        # at t = -y1 y0 / (y1^2 + c), and its value there is y_star^2
        t_min = y1 * y0 / (y1**2 + L / y0**2 + P / y0)
        value = infall_envelope(L=L, P=P, y0=y0, y1=-y1, t=t_min)
        tb = turning_point_bound(L=L, P=P, y0=y0, y1=-y1)
        assert t_min > 0.0
        assert value == pytest.approx(tb.y_star**2, rel=1e-12)

    @given(y0=positive, y1=positive, L=positive)
    def test_minimum_is_global(self, y0, y1, L):
        t_min = y1 * y0 / (y1**2 + L / y0**2)
        value = infall_envelope(L=L, P=0.0, y0=y0, y1=-y1, t=t_min)
        probes = t_min * np.array([0.0, 0.5, 0.9, 1.1, 2.0])
        env = infall_envelope(L=L, P=0.0, y0=y0, y1=-y1, t=probes)
        assert np.all(env >= value * (1.0 - 1e-12))

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            infall_envelope(L=1.0, P=0.0, y0=1.0, y1=-1.0, t=-0.1)


class TestConfinement:
    def test_unit_ball(self):
        lb = confinement_lower_bounds(M=4.0 * np.pi / 3.0, B=1.0)
        assert lb.rho_lower == pytest.approx(1.0, rel=1e-15)
        assert lb.e_lower == pytest.approx(4.0 * np.pi / 3.0, rel=1e-15)

    def test_formulas_verbatim(self):
        m, b = 0.37, 1.71
        lb = confinement_lower_bounds(m, b)
        assert lb.e_lower == m / b**2
        assert lb.rho_lower == 3.0 * m / (4.0 * np.pi * b**3)

    def test_power_of_two_scalings_are_exact(self):
        base = confinement_lower_bounds(M=0.7, B=1.37)
        wider = confinement_lower_bounds(M=0.7, B=2.0 * 1.37)
        assert wider.rho_lower == base.rho_lower / 8.0
        assert wider.e_lower == base.e_lower / 4.0
        heavier = confinement_lower_bounds(M=1.4, B=1.37)
        assert heavier.rho_lower == 2.0 * base.rho_lower
        assert heavier.e_lower == 2.0 * base.e_lower

    @given(m=positive, b=positive, lam=st.floats(0.1, 10.0))
    def test_homogeneous_in_mass(self, m, b, lam):
        base = confinement_lower_bounds(m, b)
        scaled = confinement_lower_bounds(lam * m, b)
        assert scaled.rho_lower == pytest.approx(lam * base.rho_lower, rel=1e-12)
        assert scaled.e_lower == pytest.approx(lam * base.e_lower, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            confinement_lower_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            confinement_lower_bounds(1.0, 0.0)
