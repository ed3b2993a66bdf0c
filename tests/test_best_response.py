import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest.csf import _payoff_at
from groupcontest.best_response import ROUNDING_BAND
from helpers import (
    BR_OPS,
    CLOSED_FORMS,
    _stationary as stationary_oracle,
    draw_best_response_case,
    grid_argmax,
    group_best_effective_effort,
    make_spec,
    objective_group,
    objective_negative_x,
    objective_negative_y,
    objective_positive_x,
    objective_positive_y,
    oracle_for_case,
    profile_of,
)

EFFORT_TOL = 1e-3
PAYOFF_TOL = 1e-6

rule = gc.axis_best_response


def assert_refused_or_quiet(theta, v, z_minus, z_other):
    """The rule refuses only v = 0, z_other = 0 and a saboteur's theta
    None or <= 0; every other case these domain tests pass pays most at
    effort 0."""
    if v == 0 or z_other == 0 or (v < 0 and (theta is None or theta <= 0)):
        with pytest.raises(gc.DomainError):
            rule(theta, v, z_minus, z_other)
    else:
        assert rule(theta, v, z_minus, z_other) == gc.AxisBestResponse(0.0)


# One class per sign case of (v, z_other): positive or negative valuation
# (x or y), against a positive or negative rival.


class TestPositiveX:
    def test_interior_solution(self):
        assert rule(1.0, 4, 0, 1).effort == 1.0

    def test_clamps_when_rival_large(self):
        assert rule(1.0, 1, 0, 4).effort == 0.0

    def test_clamps_when_rest_oversupplies(self):
        assert rule(1.0, 4, 3, 1).effort == 0.0

    def test_never_ties(self):
        assert rule(1.0, 4, 0, 1).tie is False

    @pytest.mark.parametrize("v,z_other", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_domain(self, v, z_other):
        assert_refused_or_quiet(1.0, v, 0.0, z_other)


class TestPositiveY:
    def test_sabotage_when_stake_dominates(self):
        r = rule(2, -10, 4, 3)
        assert r.effort == 2.0 and not r.tie

    def test_quiet_when_hurdle_dominates(self):
        r = rule(1, -5, 4, 3)
        assert r.effort == 0.0 and not r.tie

    def test_tie_at_equality(self):
        r = rule(1, -7, 4, 3)
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
        assert_refused_or_quiet(theta, v, z_minus, z_other)

    @pytest.mark.parametrize(
        "z_minus,z_other,effort,tie",
        [(1e308, 9e307, 5e307, False), (1e308, 1.5e308, 0.0, False), (1e308, 1e308, 0.0, True)],
    )
    def test_overflowing_sides_compare_halved(self, z_minus, z_other, effort, tie):
        # z_minus + z_other overflows, so the odds at y = 0 come from the
        # halved efforts: staying out pays -1e308 * z_minus / (z_minus +
        # z_other), the kink y = z_minus / 2 pays -z_minus / 2.
        r = rule(2.0, -1e308, z_minus, z_other)
        assert (r.effort, r.tie) == (effort, tie)


class TestNegativeY:
    def test_interior_solution(self):
        assert rule(1, -4, 0, -1).effort == 1.0

    def test_clamps(self):
        assert rule(1, -1, 0, -4).effort == 0.0

    def test_effectiveness_scales_effort(self):
        assert rule(2, -4, 0, -2).effort == 1.0

    @pytest.mark.parametrize(
        "theta,v,z_other", [(0, -1, -1), (None, -1, -1), (1, 1, -1), (1, -1, 1)]
    )
    def test_domain(self, theta, v, z_other):
        assert_refused_or_quiet(theta, v, 0.0, z_other)


class TestNegativeX:
    def test_fights_back_when_stake_dominates(self):
        r = rule(1.0, 10, -4, -3)
        assert r.effort == 4.0 and not r.tie

    def test_quiet_when_hurdle_dominates(self):
        r = rule(1.0, 5, -4, -3)
        assert r.effort == 0.0 and not r.tie

    def test_tie_at_equality(self):
        r = rule(1.0, 7, -4, -3)
        assert r.effort == 0.0 and r.tie
        stay = 7 * (1 - (-4) / (-4 + -3))
        fight = 7 - 4
        assert stay == pytest.approx(fight, rel=1e-9)

    @pytest.mark.parametrize("v,z_minus,z_other", [(-1, -1, -1), (1, 1, -1), (1, -1, 1)])
    def test_domain(self, v, z_minus, z_other):
        assert_refused_or_quiet(1.0, v, z_minus, z_other)


# Magnitudes within 2**+-8 of 1: scaled by 2**k with |k| <= 1000 they stay
# normal floats, so (lam*v, lam*z_minus, lam*z_other) is exact.
_magnitude = st.floats(2.0**-8, 2.0**8)
_signed = st.one_of(st.just(0.0), _magnitude, _magnitude.map(lambda m: -m))


class TestScale:
    """The rule is homogeneous of degree 1 in (v, z_minus, z_other): at
    lam = 2**k the effort is lam times the effort at ordinary scale, bit
    for bit, for every k the float range allows."""

    @given(_magnitude, _signed, _magnitude, st.integers(-1000, 1000))
    def test_positive_x_is_scale_linear(self, v, z_minus, z_other, k):
        lam = math.ldexp(1.0, k)
        scaled = rule(1.0, lam * v, lam * z_minus, lam * z_other)
        assert scaled.effort == math.ldexp(rule(1.0, v, z_minus, z_other).effort, k)

    @given(st.floats(1 / 16, 16.0), _magnitude, _signed, _magnitude, st.integers(-1000, 1000))
    def test_negative_y_is_scale_linear(self, theta, v, z_minus, z_other, k):
        lam = math.ldexp(1.0, k)
        scaled = rule(theta, -lam * v, lam * z_minus, -lam * z_other)
        ordinary = rule(theta, -v, z_minus, -z_other)
        assert scaled.effort == math.ldexp(ordinary.effort, k)

    def test_product_overflow(self):
        # v * z_other = 1e400 overflows; the peak sqrt(1e400) - 1e200 is 0.
        assert rule(1.0, 1e200, 0.0, 1e200).effort == 0.0
        assert rule(1.0, -1e200, 0.0, -1e200).effort == 0.0

    def test_product_underflow(self):
        # v * z_other = 4e-400 underflows; the peak is 2e-200 - 1e-200.
        assert math.isclose(rule(1.0, 4e-200, 0.0, 1e-200).effort, 1e-200, rel_tol=1e-15)
        effort = rule(1.0, -4e-200, 0.0, -1e-200).effort
        assert math.isclose(effort, 1e-200, rel_tol=1e-15)


_nonzero = st.one_of(_magnitude, _magnitude.map(lambda m: -m))


@st.composite
def axis_cases(draw, theta=st.floats(1 / 16, 16.0)):
    """(theta, v, z_minus, z_other) in all four sign cases of (v, z_other),
    z_minus of either sign or 0, at one scale 2**k with |k| <= 600.  In a
    quarter of the cases z_minus puts a kink on the player's axis and the
    rival lies within 2**44 ulps of it, log-uniformly down to 2**-200 ulps:
    inside the rounding band, where the limit point past the kink can win."""
    lam = math.ldexp(1.0, draw(st.integers(-600, 600)))
    v, z_minus, z_other = draw(_nonzero), draw(_signed), draw(_nonzero)
    if draw(st.integers(0, 3)) == 0:
        z_minus = -math.copysign(draw(_magnitude), v)
        ulps = math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-200, 43)))
        z_other = math.copysign(ulps * math.ulp(z_minus), z_other)
    return draw(theta), lam * v, lam * z_minus, lam * z_other


class TestWholeAxis:
    """The rule's effort pays at least as much as each point the best
    response can be at, and equals the deviation search's on a matching
    profile."""

    @pytest.mark.parametrize("theta, v, z_minus, z_other, peak", [
        (1.0, 1.0, -0.95, 0.01, 1.04),  # the peak pays -0.14, x = 0 pays 0
        (0.7, -3.0, 0.4, -1.3, 1.07467309),  # the peak pays -3.435, y = 0 pays -3
    ])
    def test_losing_peak_is_not_the_answer(self, theta, v, z_minus, z_other, peak):
        assert stationary_oracle(v, theta, z_minus, z_other) == pytest.approx(peak)
        assert rule(theta, v, z_minus, z_other) == gc.AxisBestResponse(0.0)

    @pytest.mark.parametrize("theta, v, z_minus, z_other, effort", [
        # theta * y overflows at the peak, where own group's true effective
        # effort is -3e308: it pays -3.8e307, y = 0 pays -5.3e307.
        (16.0, -1e308, -0.9e308, -1e308, 1.3125e307),
        # The kink z_minus / theta = 2e308 lies beyond the float range.
        (0.5, -1.0, 1e308, 1.0, 0.0),
    ])
    def test_sums_beyond_the_float_range(self, theta, v, z_minus, z_other, effort):
        assert rule(theta, v, z_minus, z_other) == gc.AxisBestResponse(effort)

    def test_limit_point_inside_the_rounding_band(self):
        # z_other is far below one ulp of z_minus: the peak rounds onto the
        # kink, where the odds are still 0, and only the limit point one ulp
        # of v past it pays, as the deviation search reports.
        v, z_minus, z_other = 0.5229479165214691, -0.05320887415337085, 4.9350633364173256e-119
        assert abs(z_other) <= ROUNDING_BAND * 5 * math.ulp(abs(z_minus))
        assert rule(None, v, z_minus, z_other) == gc.AxisBestResponse(0.05320887415337096)
        spec = make_spec([v, -v], [v, -v], 1.0)
        profile = profile_of([[(0.0, 0.0), (0.0, -z_minus)], [(z_other, 0.0), (0.0, 0.0)]])
        deviation = gc.best_deviation(spec, profile, gc.PlayerId(1, 1))
        assert (deviation.new_x, deviation.improvement) == (0.05320887415337096, 0.46973904236809816)

    @settings(max_examples=300)
    @given(axis_cases())
    def test_pays_at_least_every_candidate(self, case):
        theta, v, z_minus, z_other = case
        slope = 1.0 if v > 0 else -theta

        def pays(e):
            x, y = (e, 0.0) if v > 0 else (0.0, e)
            return _payoff_at(v, 1, z_minus + slope * e, z_other, x, y)

        effort = rule(theta, v, z_minus, z_other).effort
        kink = max(0.0, -z_minus / slope)
        for e in (0.0, kink, stationary_oracle(v, theta, z_minus, z_other)):
            assert pays(effort) >= pays(e)

    @settings(max_examples=300)
    @given(axis_cases(theta=st.one_of(st.integers(-4, 4).map(lambda k: math.ldexp(1.0, k)),
                                      st.floats(1 / 16, 16.0))))
    def test_matches_the_deviation_search(self, case):
        # Group 1 holds the player, idle, and a teammate whose one effort
        # makes z_minus; group 2 one player whose effort makes z_other.
        theta, v, z_minus, z_other = case
        effort = rule(theta, v, z_minus, z_other).effort
        spec = make_spec([abs(v), -abs(v)], [abs(v), -abs(v)], theta)
        player = gc.PlayerId(1, 1 if v > 0 else 2)

        def moved(rows):
            profile = profile_of(rows)
            assert gc.effective_efforts(spec, profile) == gc.EffectiveEffort(z_minus, z_other)
            deviation = gc.best_deviation(spec, profile, player)
            return deviation.new_x if v > 0 else deviation.new_y

        # The teammate's x is z_minus and the rival's x is z_other, of either
        # sign: the very group the rule searches, up to its players' order.
        me, mate = (0.0, 0.0), (z_minus, 0.0)
        assert moved([(me, mate) if v > 0 else (mate, me), ((z_other, 0.0), me)]) == effort
        if math.frexp(theta)[0] == 0.5:
            # theta is a power of two, so a negative effort carried as
            # y = -z / theta keeps both sums exact.
            def efforts_for(z):
                return (z, 0.0) if z >= 0 else (0.0, -z / theta)

            mate = efforts_for(z_minus)
            rows = [(me, mate) if v > 0 else (mate, me), (efforts_for(z_other), me)]
            assert moved(rows) == effort


def _rule_digest(draws: int, seed: int) -> str:
    """SHA-256 over the rule's effort (as hex) and tie, or the class name
    of what it raises, on seeded draws of v, z_minus and z_other in
    (-2, 2) and theta in [1/16, 16], each of six kinds drawn at random:
    ordinary; the rival within 2**44 ulps of z_minus, about the rounding
    band; magnitudes up to the largest float; subnormal ones; theta None
    for v > 0; and z_minus +-0.0 against a rival within 2**44 ulps of the
    smallest subnormal."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, (draws, 3)).tolist()
    thetas = np.exp(rng.uniform(np.log(1 / 16), np.log(16.0), draws)).tolist()
    kinds, shifts = rng.integers(0, 6, draws).tolist(), rng.integers(0, 45, draws).tolist()
    h = hashlib.sha256()
    for (v, z_minus, z_other), theta, kind, shift in zip(base, thetas, kinds, shifts):
        if kind == 1:
            z_other *= math.ldexp(math.ulp(z_minus), shift)
        elif kind == 2:
            v, z_minus, z_other = (w * (sys.float_info.max / 2) for w in (v, z_minus, z_other))
        elif kind == 3:
            v, z_minus, z_other = (math.ldexp(w, -1030 - shift) for w in (v, z_minus, z_other))
        elif kind == 4:
            theta, v = None, abs(v)
        elif kind == 5:
            z_minus, z_other = math.copysign(0.0, z_minus), math.ldexp(z_other, shift - 1074)
        try:
            r = rule(theta, v, z_minus, z_other)
            line = f"{r.effort.hex()}:{r.tie}"
        except gc.ContestError as exc:
            line = type(exc).__name__
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def test_rule_golden_digest():
    # Computed before the rule took its candidates, limit point and band
    # from ``_axis_moves``, which the deviation search runs too.
    assert _rule_digest(20_000, 32) == (
        "cb69adb284bf4cbbb40ccd39b2d9c80b129e149a1ed2d88e8b6c3e7c2fede44c"
    )


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
            (rule(1.0, -7.0, 4.0, 3.0), objective_positive_y(1.0, -7.0, 4.0, 3.0), 4.0),
            (rule(1.0, 7.0, -4.0, -3.0), objective_negative_x(7.0, -4.0, -3.0), 4.0),
        ]
        for response, f, other_effort in cases:
            assert response.tie
            a = float(f(np.array([response.effort]))[0])
            b = float(f(np.array([other_effort]))[0])
            assert a == pytest.approx(b, rel=1e-9)
