import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupcontest as gc
from helpers import dyadic_efforts, dyadic_thetas, make_spec, specs, specs_with_profiles


class TestValidateSpec:
    def test_accepts_basic_spec(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        assert spec.theta == 0.5
        assert spec.group1.valuations == (4, 1, -1)

    def test_rejects_tied_top(self):
        with pytest.raises(gc.OrderingViolated):
            make_spec([4, 4, -1], [4, 2, -1], 0.5)

    def test_rejects_tied_bottom(self):
        with pytest.raises(gc.OrderingViolated):
            make_spec([4, -1, -1], [4, 2, -1], 0.5)

    def test_accepts_interior_ties(self):
        spec = make_spec([4, 2, 2, -1], [4, 2, -1], 0.5)
        assert spec.group1.valuations == (4, 2, 2, -1)

    def test_rejects_all_positive_group(self):
        with pytest.raises(gc.SignViolated):
            make_spec([4, 1], [4, -1], 1.0)

    def test_rejects_all_negative_group(self):
        with pytest.raises(gc.SignViolated):
            make_spec([4, -1], [-1, -4], 1.0)

    def test_rejects_unsorted(self):
        with pytest.raises(gc.OrderingViolated):
            make_spec([1, 4, -1], [4, 2, -1], 0.5)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(gc.NonPositiveTheta):
            make_spec([4, -1], [4, -1], theta)

    def test_rejects_small_group(self):
        with pytest.raises(gc.GroupTooSmall):
            make_spec([4], [4, -1], 1.0)

    def test_rejects_zero_valuation(self):
        with pytest.raises(gc.ZeroValuation):
            make_spec([4, 0, -1], [4, -1], 1.0)

    @given(specs())
    def test_idempotent(self, spec):
        assert gc.validate_spec(spec) is spec


def _profile(spec, rows):
    profile = gc.StrategyProfile.zeros(spec)
    for (g, k), (x, y) in rows.items():
        profile = profile.replace(gc.PlayerId(g, k), x, y)
    return profile


class TestEffectiveEfforts:
    def test_mixed_efforts(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 2.0)
        profile = _profile(spec, {(1, 1): (3, 0), (1, 3): (0, 1)})
        eff = gc.effective_efforts(spec, profile)
        assert eff.z1 == 3 - 2 * 1
        assert eff.z2 == 0

    def test_all_zero(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        eff = gc.effective_efforts(spec, gc.StrategyProfile.zeros(spec))
        assert eff.z1 == 0 and eff.z2 == 0

    def test_pure_sabotage(self):
        spec = make_spec([1, -1], [1, -1], 0.5)
        profile = _profile(spec, {(1, 1): (0, 4)})
        eff = gc.effective_efforts(spec, profile)
        assert eff.z1 == -2.0
        assert eff.z_minus(gc.PlayerId(1, 1)) == 0.0

    def test_shape_mismatch(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        other = make_spec([4, -1], [4, -1], 0.5)
        with pytest.raises(gc.ShapeMismatch):
            gc.effective_efforts(spec, gc.StrategyProfile.zeros(other))

    @given(specs_with_profiles())
    def test_residual_definition(self, pair):
        spec, profile = pair
        eff = gc.effective_efforts(spec, profile)
        for p in gc.players(spec):
            e = profile.effort(p)
            z = eff.z(p.group)
            assert eff.z_minus(p) == z - (e.x - spec.theta * e.y)

    @given(
        theta=dyadic_thetas,
        efforts=st.lists(st.tuples(dyadic_efforts, dyadic_efforts), min_size=2, max_size=4),
    )
    def test_decomposition_exact_on_dyadics(self, theta, efforts):
        # Dyadic inputs make every intermediate exactly representable,
        # so the residual identity holds with no rounding at all.
        n = len(efforts)
        spec = make_spec([2] + [1] * (n - 2) + [-1], [1, -1], theta)
        profile = gc.StrategyProfile.zeros(spec)
        for k, (x, y) in enumerate(efforts, start=1):
            profile = profile.replace(gc.PlayerId(1, k), x, y)
        eff = gc.effective_efforts(spec, profile)
        for k, (x, y) in enumerate(efforts, start=1):
            assert eff.z_minus(gc.PlayerId(1, k)) + (x - theta * y) == eff.z1

    @given(specs_with_profiles(), st.integers(-8, 8))
    def test_group_scaling_exact_for_powers_of_two(self, pair, exponent):
        spec, profile = pair
        lam = 2.0**exponent
        scaled = profile
        for k in range(1, spec.group1.size + 1):
            e = profile.effort(gc.PlayerId(1, k))
            scaled = scaled.replace(gc.PlayerId(1, k), lam * e.x, lam * e.y)
        eff = gc.effective_efforts(spec, profile)
        eff_scaled = gc.effective_efforts(spec, scaled)
        assert eff_scaled.z1 == lam * eff.z1
        assert eff_scaled.z2 == eff.z2

    @given(specs_with_profiles(), st.floats(0.1, 10.0))
    def test_group_scaling_general(self, pair, lam):
        spec, profile = pair
        scaled = profile
        for k in range(1, spec.group2.size + 1):
            e = profile.effort(gc.PlayerId(2, k))
            scaled = scaled.replace(gc.PlayerId(2, k), lam * e.x, lam * e.y)
        eff = gc.effective_efforts(spec, profile)
        eff_scaled = gc.effective_efforts(spec, scaled)
        assert eff_scaled.z2 == pytest.approx(lam * eff.z2, rel=1e-9, abs=1e-12)


class TestProfileAccess:
    """``effort`` and ``replace`` refuse ids outside the profile instead of
    wrapping a negative index or ignoring the write."""

    README_SPEC = make_spec([4, 1, -1], [4, 2, -1], 0.5)

    @pytest.mark.parametrize(
        "group, index",
        [(0, 1), (3, 1), (1, 0), (1, 4), (1, 99)],
        ids=["group_0", "group_3", "index_0", "index_past_end", "index_99"],
    )
    def test_unknown_player_is_refused(self, group, index):
        profile = _profile(self.README_SPEC, {(1, 3): (0, 1), (2, 1): (2, 0)})
        player = gc.PlayerId(group, index)
        with pytest.raises(gc.UnknownPlayer):
            profile.effort(player)
        with pytest.raises(gc.UnknownPlayer):
            profile.replace(player, 5.0, 0.0)

    def test_known_players_read_and_write_their_own_slot(self):
        profile = gc.StrategyProfile.zeros(self.README_SPEC)
        for p in gc.players(self.README_SPEC):
            moved = profile.replace(p, float(p.group), float(p.index))
            assert moved.effort(p) == gc.Effort(float(p.group), float(p.index))
            assert sum(e != gc.Effort(0.0, 0.0) for g in moved.efforts for e in g) == 1


class TestEffectiveEffortAccess:
    """``z``, ``z_other`` and ``z_minus`` refuse groups and ids outside the
    contest instead of wrapping an index or reading the other group."""

    README_SPEC = make_spec([4, 1, -1], [4, 2, -1], 0.5)

    @pytest.mark.parametrize(
        "read",
        [
            lambda eff: eff.z_minus(gc.PlayerId(1, 0)),
            lambda eff: eff.z_minus(gc.PlayerId(0, 1)),
            lambda eff: eff.z(0),
            lambda eff: eff.z_other(7),
        ],
        ids=["z_minus_index_0", "z_minus_group_0", "z_group_0", "z_other_group_7"],
    )
    def test_unknown_group_or_player_is_refused(self, read):
        profile = _profile(self.README_SPEC, {(1, 3): (0, 1), (2, 1): (2, 0)})
        eff = gc.effective_efforts(self.README_SPEC, profile)
        with pytest.raises(gc.UnknownPlayer):
            read(eff)

    def test_known_groups_and_players_read_their_own_values(self):
        profile = _profile(self.README_SPEC, {(1, 3): (0, 1), (2, 1): (2, 0)})
        eff = gc.effective_efforts(self.README_SPEC, profile)
        assert (eff.z(1), eff.z(2), eff.z_other(1), eff.z_other(2)) == (-0.5, 2.0, 2.0, -0.5)
        residuals = [eff.z_minus(p) for p in gc.players(self.README_SPEC)]
        assert residuals == [-0.5, -0.5, 0.0, 0.0, 2.0, 2.0]


class TestDocuments:
    def test_spec_round_trip(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        assert gc.spec_from_dict(gc.spec_to_dict(spec)) == spec

    def test_profile_round_trip(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        profile = _profile(spec, {(1, 1): (1.5, 0), (2, 3): (0, 2.25)})
        assert gc.profile_from_dict(gc.profile_to_dict(profile)) == profile

    def test_spec_document_errors(self):
        with pytest.raises(gc.ValidationError):
            gc.spec_from_dict({"theta": 1.0, "groups": [{"valuations": [1, -1]}]})
        with pytest.raises(gc.ValidationError):
            gc.spec_from_dict({"groups": []})

    @pytest.mark.parametrize("theta", [True, False])
    def test_spec_document_rejects_boolean_theta(self, theta):
        doc = {"theta": theta, "groups": [{"valuations": [1, -1]}, {"valuations": [1, -1]}]}
        with pytest.raises(gc.ValidationError, match="theta must be a number"):
            gc.spec_from_dict(doc)

    def test_profile_document_rejects_negative_effort(self):
        with pytest.raises(gc.ValidationError):
            gc.profile_from_dict({"efforts": [[{"x": -1, "y": 0}], [{"x": 0, "y": 0}]]})

    @pytest.mark.parametrize(
        "theta, valuations",
        [
            ("0.5", [1, -1]),
            (10**400, [1, -1]),
            (1.0, [4, True, -1]),
            (1.0, ["4", -1]),
            (1.0, [10**400, -1]),
        ],
        ids=["string_theta", "huge_theta", "boolean_valuation", "string_valuation",
             "huge_valuation"],
    )
    def test_spec_document_numbers_must_be_numbers(self, theta, valuations):
        doc = {"theta": theta, "groups": [{"valuations": valuations}, {"valuations": [1, -1]}]}
        with pytest.raises(gc.ValidationError, match="must be a number|beyond the float range"):
            gc.spec_from_dict(doc)

    @pytest.mark.parametrize(
        "x, y",
        [("1", 0), (0, True), (10**400, 0), (0, -(10**400))],
        ids=["string_x", "boolean_y", "huge_x", "huge_negative_y"],
    )
    def test_profile_document_numbers_must_be_numbers(self, x, y):
        doc = {"efforts": [[{"x": x, "y": y}, {"x": 0, "y": 0}], [{"x": 0, "y": 0}] * 2]}
        with pytest.raises(gc.ValidationError, match="must be a number|beyond the float range"):
            gc.profile_from_dict(doc)
