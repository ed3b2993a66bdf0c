import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest.verify import _moved_z
from helpers import (
    Effort,
    dyadic_efforts,
    effort,
    efforts,
    dyadic_thetas,
    make_spec,
    profile_of,
    residual,
    specs,
    specs_with_profiles,
)


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
        assert residual(spec, profile, gc.PlayerId(1, 1)).z_minus == 0.0

    def test_holds_only_the_two_group_sums(self):
        assert [f.name for f in dataclasses.fields(gc.EffectiveEffort)] == ["z1", "z2"]

    def test_shape_mismatch(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        other = make_spec([4, -1], [4, -1], 0.5)
        with pytest.raises(gc.ShapeMismatch):
            gc.effective_efforts(spec, gc.StrategyProfile.zeros(other))

    @given(
        theta=dyadic_thetas,
        efforts=st.lists(st.tuples(dyadic_efforts, dyadic_efforts), min_size=2, max_size=4),
    )
    def test_decomposition_exact_on_dyadics(self, theta, efforts):
        # Dyadic inputs make every intermediate exactly representable,
        # so the residual identity holds with no rounding at all: the
        # group's sum with player k idle, plus her own contribution, is z.
        n = len(efforts)
        spec = make_spec([2] + [1] * (n - 2) + [-1], [1, -1], theta)
        profile = gc.StrategyProfile.zeros(spec)
        for k, (x, y) in enumerate(efforts, start=1):
            profile = profile.replace(gc.PlayerId(1, k), x, y)
        eff = gc.effective_efforts(spec, profile)
        columns = (profile.xs[0], profile.ys[0])
        for k, (x, y) in enumerate(efforts, start=1):
            assert _moved_z(theta, columns, k, 0.0, 0.0) + (x - theta * y) == eff.z1

    @given(specs_with_profiles(), st.integers(-8, 8))
    def test_group_scaling_exact_for_powers_of_two(self, pair, exponent):
        spec, profile = pair
        lam = 2.0**exponent
        scaled = profile
        for k in range(1, spec.group1.size + 1):
            e = effort(profile, gc.PlayerId(1, k))
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
            e = effort(profile, gc.PlayerId(2, k))
            scaled = scaled.replace(gc.PlayerId(2, k), lam * e.x, lam * e.y)
        eff = gc.effective_efforts(spec, profile)
        eff_scaled = gc.effective_efforts(spec, scaled)
        assert eff_scaled.z2 == pytest.approx(lam * eff.z2, rel=1e-9, abs=1e-12)


class TestProfileAccess:
    """``replace`` and the columns' reader (``effort``, through the
    profile's ``_position``, as ``payoff`` reads them) refuse ids outside
    the profile instead of wrapping a negative index or ignoring the
    write."""

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
            effort(profile, player)
        with pytest.raises(gc.UnknownPlayer):
            profile.replace(player, 5.0, 0.0)

    def test_known_players_read_and_write_their_own_slot(self):
        profile = gc.StrategyProfile.zeros(self.README_SPEC)
        for p in gc.players(self.README_SPEC):
            moved = profile.replace(p, float(p.group), float(p.index))
            assert effort(moved, p) == Effort(float(p.group), float(p.index))
            assert sum(e != Effort(0.0, 0.0) for g in efforts(moved) for e in g) == 1


signed_efforts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e300))


@st.composite
def effort_rows(draw):
    """Efforts of a 2-to-5 by 2-to-5 profile, -0.0 included."""
    return tuple(
        tuple(Effort(draw(signed_efforts), draw(signed_efforts)) for _ in range(n))
        for n in draw(st.tuples(st.integers(2, 5), st.integers(2, 5)))
    )


def _bits(profile):
    return [[v.hex() for v in column] for column in (*profile.xs, *profile.ys)]


class TestProfileColumns:
    """A profile is its x and y columns: however it was built, equal
    columns make equal profiles with equal hashes, and every float keeps
    its bits."""

    README_SPEC = make_spec([4, 1, -1], [4, 2, -1], 0.5)

    @given(effort_rows())
    def test_every_construction_holds_the_same_columns(self, rows):
        built = profile_of(rows)
        doc = {"efforts": [[{"x": e.x, "y": e.y} for e in g] for g in rows]}
        spec = make_spec(*([1.0] + [0.5] * (len(g) - 2) + [-1.0] for g in rows), 1.0)
        replaced = gc.StrategyProfile.zeros(spec)
        for p, e in zip(gc.players(spec), (e for g in rows for e in g)):
            replaced = replaced.replace(p, e.x, e.y)
        for other in (gc.profile_from_dict(doc), replaced):
            assert other == built and hash(other) == hash(built)
            assert _bits(other) == _bits(built)
        assert built.xs == tuple(tuple(e.x for e in g) for g in rows)
        assert built.ys == tuple(tuple(e.y for e in g) for g in rows)
        assert efforts(built) == rows
        assert all(type(e) is Effort for g in efforts(built) for e in g)
        assert built.sizes() == tuple(map(len, rows))

    def test_zeros_equal_every_other_all_zero_profile(self):
        zeros = gc.StrategyProfile.zeros(self.README_SPEC)
        rows = ((Effort(0.0, 0.0),) * 3,) * 2
        doc = {"efforts": [[{"x": 0, "y": 0}] * 3] * 2}
        moved_back = zeros.replace(gc.PlayerId(2, 2), 1.0, 2.0).replace(gc.PlayerId(2, 2), 0.0, 0.0)
        for other in (profile_of(rows), gc.profile_from_dict(doc), moved_back):
            assert other == zeros and hash(other) == hash(zeros)
            assert _bits(other) == _bits(zeros)
        assert zeros != zeros.replace(gc.PlayerId(1, 3), 0.0, 1.0)

    @pytest.mark.parametrize("name", ["xs", "ys", "efforts", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        profile = gc.StrategyProfile.zeros(self.README_SPEC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(profile, name, ((), ()))

    def test_replace_leaves_the_original_untouched(self):
        profile = _profile(self.README_SPEC, {(1, 1): (1.5, 0.0), (2, 3): (0.0, 2.25)})
        before = _bits(profile)
        moved = profile.replace(gc.PlayerId(1, 1), 0.5, 0.0)
        assert _bits(profile) == before
        assert effort(profile, gc.PlayerId(1, 1)) == Effort(1.5, 0.0)
        assert effort(moved, gc.PlayerId(1, 1)) == Effort(0.5, 0.0)

    def test_negative_zero_keeps_its_bits(self):
        profile = gc.StrategyProfile.zeros(self.README_SPEC).replace(gc.PlayerId(2, 2), -0.0, -0.0)
        assert profile.xs[1][1].hex() == profile.ys[1][1].hex() == "-0x0.0p+0"
        row = gc.profile_to_dict(profile)["efforts"][1][1]
        assert (row["x"].hex(), row["y"].hex()) == ("-0x0.0p+0", "-0x0.0p+0")
        assert _bits(gc.profile_from_dict(gc.profile_to_dict(profile))) == _bits(profile)


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

    @pytest.mark.parametrize("bad", [-1e-300, -math.inf, math.inf, math.nan])
    def test_profile_document_names_the_first_bad_effort(self, bad):
        ok = {"x": 1.0, "y": -0.0}
        doc = {"efforts": [[ok, ok], [ok, {"x": 2.0, "y": bad}, {"x": bad, "y": 0.0}]]}
        with pytest.raises(gc.ValidationError, match=rf"got x=2.0, y={bad}$"):
            gc.profile_from_dict(doc)

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
