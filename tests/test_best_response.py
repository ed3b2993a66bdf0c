import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupcontest as gc
from helpers import (
    BR_OPS,
    CLOSED_FORMS,
    draw_best_response_case,
    grid_argmax,
    group_best_effective_effort,
    objective_group,
    objective_negative_x,
    objective_negative_y,
    objective_positive_x,
    objective_positive_y,
    oracle_for_case,
)

EFFORT_TOL = 1e-3
PAYOFF_TOL = 1e-6


class TestPositiveX:
    def test_interior_solution(self):
        assert gc.br_positive_x(4, 0, 1).effort == 1.0

    def test_clamps_when_rival_large(self):
        assert gc.br_positive_x(1, 0, 4).effort == 0.0

    def test_clamps_when_rest_oversupplies(self):
        assert gc.br_positive_x(4, 3, 1).effort == 0.0

    def test_never_ties(self):
        assert gc.br_positive_x(4, 0, 1).tie is False

    @pytest.mark.parametrize("v,z_other", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_domain(self, v, z_other):
        with pytest.raises(gc.DomainError):
            gc.br_positive_x(v, 0.0, z_other)


class TestPositiveY:
    def test_sabotage_when_stake_dominates(self):
        r = gc.br_positive_y(2, -10, 4, 3)
        assert r.effort == 2.0 and not r.tie

    def test_quiet_when_hurdle_dominates(self):
        r = gc.br_positive_y(1, -5, 4, 3)
        assert r.effort == 0.0 and not r.tie

    def test_tie_at_equality(self):
        r = gc.br_positive_y(1, -7, 4, 3)
        assert r.effort == 0.0 and r.tie
        # Both candidate efforts pay the same: v*z_minus/(z_minus+z_other)
        # against -z_minus/theta.
        stay = -7 * 4 / (4 + 3)
        fight = -4 / 1
        assert stay == pytest.approx(fight, rel=1e-9)

    @pytest.mark.parametrize(
        "theta,v,z_minus,z_other",
        [(0, -1, 1, 1), (1, 1, 1, 1), (1, -1, 0, 1), (1, -1, 1, 0)],
    )
    def test_domain(self, theta, v, z_minus, z_other):
        with pytest.raises(gc.DomainError):
            gc.br_positive_y(theta, v, z_minus, z_other)

    @pytest.mark.parametrize(
        "z_minus,z_other,effort,tie",
        [(1e308, 9e307, 5e307, False), (1e308, 1.5e308, 0.0, False), (1e308, 1e308, 0.0, True)],
    )
    def test_overflowing_sides_compare_halved(self, z_minus, z_other, effort, tie):
        # theta*|v| = 2e308 and z_minus + z_other both overflow to inf;
        # their halves, 1e308 against (z_minus + z_other)/2, decide.
        r = gc.br_positive_y(2.0, -1e308, z_minus, z_other)
        assert (r.effort, r.tie) == (effort, tie)


class TestNegativeY:
    def test_interior_solution(self):
        assert gc.br_negative_y(1, -4, 0, -1).effort == 1.0

    def test_clamps(self):
        assert gc.br_negative_y(1, -1, 0, -4).effort == 0.0

    def test_effectiveness_scales_effort(self):
        assert gc.br_negative_y(2, -4, 0, -2).effort == 1.0

    @pytest.mark.parametrize("theta,v,z_other", [(0, -1, -1), (1, 1, -1), (1, -1, 1)])
    def test_domain(self, theta, v, z_other):
        with pytest.raises(gc.DomainError):
            gc.br_negative_y(theta, v, 0.0, z_other)


class TestNegativeX:
    def test_fights_back_when_stake_dominates(self):
        r = gc.br_negative_x(10, -4, -3)
        assert r.effort == 4.0 and not r.tie

    def test_quiet_when_hurdle_dominates(self):
        r = gc.br_negative_x(5, -4, -3)
        assert r.effort == 0.0 and not r.tie

    def test_tie_at_equality(self):
        r = gc.br_negative_x(7, -4, -3)
        assert r.effort == 0.0 and r.tie
        stay = 7 * (1 - (-4) / (-4 + -3))
        fight = 7 - 4
        assert stay == pytest.approx(fight, rel=1e-9)

    @pytest.mark.parametrize("v,z_minus,z_other", [(-1, -1, -1), (1, 1, -1), (1, -1, 1)])
    def test_domain(self, v, z_minus, z_other):
        with pytest.raises(gc.DomainError):
            gc.br_negative_x(v, z_minus, z_other)


# Magnitudes within 2**+-8 of 1: scaled by 2**k with |k| <= 1000 they stay
# normal floats, so (lam*v, lam*z_minus, lam*z_other) is exact.
_magnitude = st.floats(2.0**-8, 2.0**8)
_signed = st.one_of(st.just(0.0), _magnitude, _magnitude.map(lambda m: -m))


class TestScale:
    """The interior rules are homogeneous of degree 1 in (v, z_minus,
    z_other): at lam = 2**k the effort is lam times the effort at
    ordinary scale, bit for bit, for every k the float range allows."""

    @given(_magnitude, _signed, _magnitude, st.integers(-1000, 1000))
    def test_positive_x_is_scale_linear(self, v, z_minus, z_other, k):
        lam = math.ldexp(1.0, k)
        scaled = gc.br_positive_x(lam * v, lam * z_minus, lam * z_other)
        assert scaled.effort == math.ldexp(gc.br_positive_x(v, z_minus, z_other).effort, k)

    @given(st.floats(1 / 16, 16.0), _magnitude, _signed, _magnitude, st.integers(-1000, 1000))
    def test_negative_y_is_scale_linear(self, theta, v, z_minus, z_other, k):
        lam = math.ldexp(1.0, k)
        scaled = gc.br_negative_y(theta, -lam * v, lam * z_minus, -lam * z_other)
        ordinary = gc.br_negative_y(theta, -v, z_minus, -z_other)
        assert scaled.effort == math.ldexp(ordinary.effort, k)

    def test_product_overflow(self):
        # v * z_other = 1e400 overflows; the peak sqrt(1e400) - 1e200 is 0.
        assert gc.br_positive_x(1e200, 0.0, 1e200).effort == 0.0
        assert gc.br_negative_y(1.0, -1e200, 0.0, -1e200).effort == 0.0

    def test_product_underflow(self):
        # v * z_other = 4e-400 underflows; the peak is 2e-200 - 1e-200.
        assert math.isclose(gc.br_positive_x(4e-200, 0.0, 1e-200).effort, 1e-200, rel_tol=1e-15)
        effort = gc.br_negative_y(1.0, -4e-200, 0.0, -1e-200).effort
        assert math.isclose(effort, 1e-200, rel_tol=1e-15)


class TestGroupBestEffectiveEffort:
    def test_examples(self):
        assert group_best_effective_effort(4, 1) == 1.0
        assert group_best_effective_effort(1, 1) == 0.0
        assert group_best_effective_effort(9, 1) == 2.0

    def test_monotone_in_valuation(self):
        assert group_best_effective_effort(9, 1) > group_best_effective_effort(4, 1)

    def test_matches_grid(self):
        effort, _ = grid_argmax(objective_group(4, 1), 20.0)
        assert effort == pytest.approx(1.0, abs=EFFORT_TOL)

    def test_domain(self):
        with pytest.raises(gc.DomainError):
            group_best_effective_effort(-1, 1)
        with pytest.raises(gc.DomainError):
            group_best_effective_effort(1, 0)


@pytest.mark.parametrize("op", BR_OPS)
def test_oracle_equivalence(op):
    """Closed forms match a dense grid maximization of the exact payoff
    in both the chosen effort and the payoff it achieves."""
    rng = np.random.default_rng(BR_OPS.index(op))
    for _ in range(150):
        params = draw_best_response_case(rng, op)
        oracle_effort, oracle_value, objective = oracle_for_case(op, params)
        effort = CLOSED_FORMS[op](params)
        assert effort == pytest.approx(oracle_effort, abs=EFFORT_TOL)
        achieved = float(objective(np.array([effort]))[0])
        assert achieved == pytest.approx(oracle_value, abs=PAYOFF_TOL)


class TestCurvatureRegimes:
    def test_concave_interior_ops(self):
        # Second central differences of the payoff are <= 0 wherever
        # the interior closed forms apply.
        rng = np.random.default_rng(11)
        h = 1e-5
        for op, build in (
            ("positive_x", objective_positive_x),
            ("negative_y", objective_negative_y),
        ):
            for _ in range(100):
                params = draw_best_response_case(rng, op)
                kwargs = dict(params)
                f = build(**kwargs)
                span = 4.0 * sum(abs(x) for k, x in params.items() if k != "theta")
                xs = np.linspace(h, span, 64)
                second = f(xs + h) - 2 * f(xs) + f(xs - h)
                assert np.all(second <= 1e-12)

    def test_convex_endpoint_ops(self):
        # Strict convexity up to the neutralization kink, so the
        # returned maximizer is always an endpoint of that interval.
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(100):
            params = draw_best_response_case(rng, "positive_y")
            f = objective_positive_y(**params)
            kink = params["z_minus"] / params["theta"]
            ys = np.linspace(2 * h, kink - 2 * h, 32)
            second = f(ys + h) - 2 * f(ys) + f(ys - h)
            assert np.all(second > 0)
            effort = CLOSED_FORMS["positive_y"](params)
            assert effort in (0.0, kink)
        for _ in range(100):
            params = draw_best_response_case(rng, "negative_x")
            f = objective_negative_x(**params)
            kink = abs(params["z_minus"])
            xs = np.linspace(2 * h, kink - 2 * h, 32)
            second = f(xs + h) - 2 * f(xs) + f(xs - h)
            assert np.all(second > 0)
            effort = CLOSED_FORMS["negative_x"](params)
            assert effort in (0.0, kink)

    def test_tie_payoffs_match(self):
        # Wherever a tie is reported, both candidates pay the same.
        cases = [
            (gc.br_positive_y(1.0, -7.0, 4.0, 3.0), objective_positive_y(1.0, -7.0, 4.0, 3.0), 4.0),
            (gc.br_negative_x(7.0, -4.0, -3.0), objective_negative_x(7.0, -4.0, -3.0), 4.0),
        ]
        for response, f, other_effort in cases:
            assert response.tie
            a = float(f(np.array([response.effort]))[0])
            b = float(f(np.array([other_effort]))[0])
            assert a == pytest.approx(b, rel=1e-9)
