import groupcontest as gc

# The package's public names.  A PR that adds or removes one edits this
# list, so the change shows in review.
PUBLIC_NAMES = [
    "AxisBestResponse",
    "ClassUnsatisfiable",
    "ContestError",
    "ContestSpec",
    "Deviation",
    "DomainError",
    "DynamicsResult",
    "DynamicsStatus",
    "EffectiveEffort",
    "EmptyGrid",
    "EquilibriumResult",
    "ForbiddenClass",
    "GroupSpec",
    "GroupTooSmall",
    "NonFiniteInput",
    "NonPositiveGridPoint",
    "NonPositiveTheta",
    "OrderingViolated",
    "PlayerId",
    "Refutation",
    "RefutationFailed",
    "Regime",
    "RegionGrid",
    "ShapeMismatch",
    "SignViolated",
    "StrategyProfile",
    "Thresholds",
    "UnknownPlayer",
    "ValidationError",
    "VerificationReport",
    "ZeroValuation",
    "best_deviation",
    "best_response_dynamics",
    "br_negative_x",
    "br_negative_y",
    "br_positive_x",
    "br_positive_y",
    "classify",
    "default_epsilon",
    "effective_efforts",
    "is_epsilon_nash",
    "p1_values",
    "payoff",
    "players",
    "profile_from_dict",
    "profile_to_dict",
    "refute_class",
    "region_csv",
    "region_sample",
    "solve",
    "spec_from_dict",
    "spec_to_dict",
    "thresholds",
    "validate_spec",
    "valuation",
    "win_probability_short",
]


class TestPublicSurface:
    def test_all_is_sorted_without_duplicates(self):
        assert gc.__all__ == sorted(set(gc.__all__))

    def test_all_is_the_pinned_list(self):
        assert len(PUBLIC_NAMES) == 56
        assert gc.__all__ == PUBLIC_NAMES

    def test_every_name_resolves(self):
        for name in gc.__all__:
            assert getattr(gc, name) is not None, name

    def test_star_import_binds_exactly_the_public_names(self):
        namespace = {}
        exec("from groupcontest import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC_NAMES
        assert all(namespace[name] is getattr(gc, name) for name in PUBLIC_NAMES)
