import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupcontest as gc
from helpers import make_spec, win_probability_five

finite_z = st.floats(-1e6, 1e6)
# Power-of-two scaling is exact only while values stay in the normal
# float range; keep magnitudes well clear of subnormal underflow.
normal_z = st.one_of(
    st.just(0.0), st.floats(1e-290, 1e6), st.floats(-1e6, -1e-290)
)
signed_grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
# Every finite float, with the signed zeros and subnormals drawn often.
any_z = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)


class TestWinProbability:
    @pytest.mark.parametrize(
        "z1,z2,expected",
        [
            (3, 1, 0.75),
            (0, 0, 0.5),
            (2, -3, 1.0),
            (-1, -3, 0.75),
            (0, 5, 0.0),
        ],
    )
    def test_sign_cases(self, z1, z2, expected):
        assert gc.win_probability_short(z1, z2) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # The finiteness check runs only where |z1| + |z2| is not below inf,
        # so partners at zero, subnormal and near-overflow must still reach it.
        for partner in (1.0, 0.0, -0.0, 5e-324, 1e308, -1e308):
            with pytest.raises(gc.NonFiniteInput):
                gc.win_probability_short(bad, partner)
            with pytest.raises(gc.NonFiniteInput):
                gc.win_probability_short(partner, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "form", [float, lambda z: np.array([1.0, z, 0.0])], ids=["scalars", "arrays"]
    )
    def test_vectorized_non_finite_rejected(self, bad, form):
        with pytest.raises(gc.NonFiniteInput):
            gc.p1_values(form(bad), form(1.0))
        with pytest.raises(gc.NonFiniteInput):
            gc.p1_values(form(-3.0), form(bad))

    @given(finite_z, finite_z)
    def test_normalization(self, z1, z2):
        p1 = gc.win_probability_short(z1, z2)
        p2 = 1.0 - p1  # group 2's odds, as payoff and solve take them
        assert 0.0 <= p1 <= 1.0
        assert 0.0 <= p2 <= 1.0
        assert p1 + p2 == pytest.approx(1.0, abs=1e-15)

    @given(finite_z, finite_z)
    def test_branch_agreement(self, z1, z2):
        assert win_probability_five(z1, z2) == gc.win_probability_short(z1, z2)

    @pytest.mark.parametrize("z1", signed_grid)
    @pytest.mark.parametrize("z2", signed_grid)
    def test_branch_agreement_all_sign_patterns(self, z1, z2):
        five = win_probability_five(z1, z2)
        assert five == gc.win_probability_short(z1, z2)
        assert five == float(gc.p1_values(z1, z2))

    @given(st.lists(st.tuples(any_z, any_z), min_size=1, max_size=8))
    def test_bit_agreement_on_every_finite_float(self, pairs):
        # Where |z1| + |z2| overflows, the five cases are taken at the
        # halved inputs, as both one-line forms take them.
        want = []
        for z1, z2 in pairs:
            if abs(z1) + abs(z2) == math.inf:
                z1, z2 = z1 / 2, z2 / 2
            want.append(win_probability_five(z1, z2).hex())
        assert [gc.win_probability_short(z1, z2).hex() for z1, z2 in pairs] == want
        z1s, z2s = (np.array(zs) for zs in zip(*pairs))
        assert [p.hex() for p in gc.p1_values(z1s, z2s).tolist()] == want

    @pytest.mark.parametrize(
        "z1,z2,expected",
        [(1e308, 1e308, 0.5), (1e308, -1e308, 1.0), (-1e308, 1e308, 0.0), (-1e308, -1e308, 0.5)],
    )
    def test_overflowing_sum(self, z1, z2, expected):
        assert gc.win_probability_short(z1, z2) == expected
        assert float(gc.p1_values(z1, z2)) == expected

    def test_negative_zero_gives_positive_zero(self):
        assert gc.win_probability_short(-0.0, 1.0).hex() == (0.0).hex()
        assert float(gc.p1_values(-0.0, 1.0)).hex() == (0.0).hex()

    @given(st.floats(1e-6, 1e6))
    def test_symmetry(self, z):
        assert gc.win_probability_short(z, z) == 0.5
        assert gc.win_probability_short(-z, -z) == 0.5

    @given(normal_z, normal_z, st.integers(-20, 20))
    def test_scale_invariance_powers_of_two(self, z1, z2, exponent):
        lam = 2.0**exponent
        assert gc.win_probability_short(lam * z1, lam * z2) == gc.win_probability_short(z1, z2)

    # Magnitudes bounded away from zero so lam * z cannot underflow to
    # 0.0 and hop onto the both-zero branch.
    @given(
        st.one_of(st.just(0.0), st.floats(1e-30, 100), st.floats(-100, -1e-30)),
        st.one_of(st.just(0.0), st.floats(1e-30, 100), st.floats(-100, -1e-30)),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance_general(self, z1, z2, lam):
        assert gc.win_probability_short(lam * z1, lam * z2) == pytest.approx(
            gc.win_probability_short(z1, z2), abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        zs = rng.uniform(-5, 5, size=(200, 2))
        zs[:10] = 0.0
        got = gc.p1_values(zs[:, 0], zs[:, 1])
        want = [gc.win_probability_short(a, b) for a, b in zs]
        assert np.array_equal(got, np.array(want))

    def test_continuity_at_branch_seams(self):
        # The map is continuous everywhere except the origin: crossing
        # any z=0 seam with the other coordinate pinned changes p1 by
        # O(delta).
        delta = 1e-9
        for other in (-3.0, -1.0, 1.0, 3.0):
            for seam in ("z1", "z2"):
                def p(z):
                    return (
                        gc.win_probability_short(z, other)
                        if seam == "z1"
                        else gc.win_probability_short(other, z)
                    )
                assert abs(p(delta) - p(0.0)) < 1e-8
                assert abs(p(-delta) - p(0.0)) < 1e-8


def draw_quadrant_point(rng):
    """Log-uniform point with the coordinate ratio capped at 8: with
    the pinned finite-difference step, very lopsided points bury the
    second difference under float cancellation noise."""
    z1 = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
    ratio = np.exp(rng.uniform(np.log(1 / 8), np.log(8.0)))
    return z1, z1 * ratio


def _derivatives(z1, z2):
    """Analytic own-effort derivatives of p1, valid off the seams."""
    s = z1 + z2
    if z1 > 0 and z2 > 0:
        return z2 / s**2, -2 * z2 / s**3
    if z1 < 0 and z2 < 0:
        # p1 = z2 / (z1 + z2) in this quadrant
        return -z2 / s**2, 2 * z2 / s**3
    raise ValueError("off-quadrant")


class TestDerivativeSigns:
    def _check_point(self, z1, z2):
        h = 1e-5 * max(1.0, abs(z1) + abs(z2))
        p = gc.win_probability_short
        d1 = (p(z1 + h, z2) - p(z1 - h, z2)) / (2 * h)
        d2 = (p(z1 + h, z2) - 2 * p(z1, z2) + p(z1 - h, z2)) / h**2
        a1, a2 = _derivatives(z1, z2)
        assert d1 == pytest.approx(a1, rel=1e-4)
        assert d2 == pytest.approx(a2, rel=1e-4)
        return d1, d2

    def test_interior_positive_quadrant(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            z1, z2 = draw_quadrant_point(rng)
            d1, d2 = self._check_point(z1, z2)
            assert d1 > 0 and d2 < 0

    def test_interior_negative_quadrant(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            z1, z2 = draw_quadrant_point(rng)
            d1, d2 = self._check_point(-z1, -z2)
            assert d1 > 0 and d2 > 0

    def test_rival_effort_hurts_in_positive_quadrant(self):
        rng = np.random.default_rng(4)
        p = gc.win_probability_short
        for _ in range(300):
            z1, z2 = draw_quadrant_point(rng)
            h = 1e-5 * max(1.0, z1 + z2)
            d1 = (p(z1, z2 + h) - p(z1, z2 - h)) / (2 * h)
            d2 = (p(z1, z2 + h) - 2 * p(z1, z2) + p(z1, z2 - h)) / h**2
            assert d1 == pytest.approx(-z1 / (z1 + z2) ** 2, rel=1e-4)
            assert d2 == pytest.approx(2 * z1 / (z1 + z2) ** 3, rel=1e-4)
            assert d1 < 0 and d2 > 0


class TestPayoff:
    def test_single_builders(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        profile = (
            gc.StrategyProfile.zeros(spec)
            .replace(gc.PlayerId(1, 1), 1.0, 0.0)
            .replace(gc.PlayerId(2, 1), 1.0, 0.0)
        )
        assert gc.payoff(spec, profile, gc.PlayerId(1, 1)) == 4 * 0.5 - 1
        assert gc.payoff(spec, profile, gc.PlayerId(1, 2)) == 1 * 0.5

    def test_all_zero(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        profile = gc.StrategyProfile.zeros(spec)
        assert gc.payoff(spec, profile, gc.PlayerId(1, 1)) == 2.0

    def test_straddling_player_is_not_special_cased(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(1, 1), 2.0, 1.0)
        # z1 = 2 - 0.5 = 1.5, z2 = 0 -> p1 = 1
        assert gc.payoff(spec, profile, gc.PlayerId(1, 1)) == 4 * 1.0 - 2.0 - 1.0

    def test_unknown_player(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        with pytest.raises(gc.UnknownPlayer):
            gc.payoff(spec, gc.StrategyProfile.zeros(spec), gc.PlayerId(1, 4))

    def test_shape_mismatch(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        other = make_spec([4, -1], [4, -1], 0.5)
        with pytest.raises(gc.ShapeMismatch):
            gc.payoff(spec, gc.StrategyProfile.zeros(other), gc.PlayerId(1, 1))
