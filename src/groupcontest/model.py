"""Game data for two-group contests with within-group sabotage.

Two groups compete over a prize that is a public good for some members
(positive valuation) and a public bad for others (negative valuation).
Each player chooses a constructive effort x >= 0 and a sabotage effort
y >= 0; a group's effective effort is the sum of its constructive
efforts minus theta times the sum of its sabotage efforts.

A strategy profile holds float columns, x and y per group, as the
deviation search and the dynamics read them.  All types here are
immutable values and all functions are pure, so everything is safe to
share freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain


class ContestError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContestError):
    """A candidate contest spec violates one of its invariants."""


class NonPositiveTheta(ValidationError):
    pass


class GroupTooSmall(ValidationError):
    pass


class ZeroValuation(ValidationError):
    pass


class OrderingViolated(ValidationError):
    pass


class SignViolated(ValidationError):
    pass


class ShapeMismatch(ContestError):
    """A strategy profile does not match the spec's group sizes."""


class UnknownPlayer(ContestError):
    """A player id points outside the spec's groups."""


@dataclass(frozen=True)
class GroupSpec:
    """One group's prize valuations, ordered from highest to lowest.

    A valid group has at least two players, valuations strictly
    decreasing at both ends (interior ties allowed), a strictly
    positive top valuation and a strictly negative bottom one.
    """

    valuations: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.valuations)


@dataclass(frozen=True)
class ContestSpec:
    """Exogenous data of the game: two groups plus the sabotage
    effectiveness theta (> 0, dimensionless)."""

    group1: GroupSpec
    group2: GroupSpec
    theta: float

    def group(self, i: int) -> GroupSpec:
        if i == 1:
            return self.group1
        if i == 2:
            return self.group2
        raise UnknownPlayer(f"group must be 1 or 2, got {i}")

    def sizes(self) -> tuple[int, int]:
        return (self.group1.size, self.group2.size)

    def max_abs_valuation(self) -> float:
        """The largest |valuation| of a validated spec (top > 0 > bottom)."""
        g1, g2 = self.group1.valuations, self.group2.valuations
        return max(g1[0], -g1[-1], g2[0], -g2[-1])


@dataclass(frozen=True)
class PlayerId:
    """Identifies a player as (group, index) with index counted from 1
    in valuation order, matching the ordering inside GroupSpec."""

    group: int
    index: int


@dataclass(frozen=True)
class StrategyProfile:
    """Endogenous data of the game: one tuple of x and one of y per
    group, in player order, compared and hashed as such."""

    xs: tuple[tuple[float, ...], tuple[float, ...]]
    ys: tuple[tuple[float, ...], tuple[float, ...]]

    @classmethod
    def zeros(cls, spec: ContestSpec) -> StrategyProfile:
        columns = tuple((0.0,) * n for n in spec.sizes())
        return cls(columns, columns)

    def _position(self, player: PlayerId) -> tuple[int, int]:
        """The player's group and index in the columns, both from 0."""
        g, k = player.group - 1, player.index - 1
        if g not in (0, 1) or not 0 <= k < len(self.xs[g]):
            raise UnknownPlayer(f"{player} is outside a profile of sizes {self.sizes()}")
        return g, k

    def replace(self, player: PlayerId, x: float, y: float) -> StrategyProfile:
        """Return a copy with one player's efforts swapped out."""
        g, k = self._position(player)
        xs, ys = list(self.xs), list(self.ys)
        xs[g] = xs[g][:k] + (x,) + xs[g][k + 1:]
        ys[g] = ys[g][:k] + (y,) + ys[g][k + 1:]
        return StrategyProfile(tuple(xs), tuple(ys))

    def sizes(self) -> tuple[int, int]:
        return (len(self.xs[0]), len(self.xs[1]))


@dataclass(frozen=True)
class EffectiveEffort:
    """Group-level effective efforts z_i = X_i - theta*Y_i."""

    z1: float
    z2: float


def valuation(spec: ContestSpec, player: PlayerId) -> float:
    group = spec.group(player.group)
    if not 1 <= player.index <= group.size:
        raise UnknownPlayer(
            f"player index {player.index} outside group {player.group} "
            f"of size {group.size}"
        )
    return group.valuations[player.index - 1]


def _validate_group(i: int, group: GroupSpec) -> None:
    vals = group.valuations
    n = len(vals)
    if n < 2:
        raise GroupTooSmall(f"group {i} has {n} player(s); need at least 2")
    for k, v in enumerate(vals, start=1):
        if v == 0 or not math.isfinite(v):
            raise ZeroValuation(f"group {i} player {k} has valuation {v}")
    # Strictly decreasing at both ends, weakly decreasing in between.
    for k in range(n - 1):
        a, b = vals[k], vals[k + 1]
        strict = k == 0 or k == n - 2
        if (a <= b) if strict else (a < b):
            raise OrderingViolated(
                f"group {i}: valuations must satisfy "
                f"v1 > v2 >= ... >= v(n-1) > vn; "
                f"violated at positions {k + 1}, {k + 2} ({a} vs {b})"
            )
    if vals[0] <= 0 or vals[-1] >= 0:
        raise SignViolated(
            f"group {i}: top valuation must be positive and bottom negative "
            f"(got {vals[0]} and {vals[-1]})"
        )


def validate_spec(raw: ContestSpec) -> ContestSpec:
    """Check every spec invariant, returning the spec unchanged if all
    hold and raising the first violated one otherwise.

    Valuations are required pre-sorted descending; unsorted input is
    rejected rather than silently sorted, so player indices in all
    outputs keep their meaning.
    """
    if not (isinstance(raw.theta, (int, float)) and math.isfinite(raw.theta)) or raw.theta <= 0:
        raise NonPositiveTheta(f"theta must be a positive finite real, got {raw.theta}")
    _validate_group(1, raw.group1)
    _validate_group(2, raw.group2)
    return raw


def _check_shape(spec: ContestSpec, profile: StrategyProfile) -> None:
    if spec.sizes() != profile.sizes():
        raise ShapeMismatch(
            f"profile shape {profile.sizes()} does not match spec {spec.sizes()}"
        )


def _group_z(theta: float, xs, ys) -> float:
    """A group's effective effort: the one spelling of the group sum."""
    return sum(xs) - theta * sum(ys)


def effective_efforts(spec: ContestSpec, profile: StrategyProfile) -> EffectiveEffort:
    """Compute both groups' effective efforts by ``_group_z``."""
    _check_shape(spec, profile)
    (x1, x2), (y1, y2), theta = profile.xs, profile.ys, spec.theta
    return EffectiveEffort(_group_z(theta, x1, y1), _group_z(theta, x2, y2))


# --- canonical JSON documents -------------------------------------------
#
# Contest spec: {"theta": <number>,
#                "groups": [{"valuations": [...]}, {"valuations": [...]}]}
# Strategy profile: {"efforts": [[{"x": ..., "y": ...}, ...], [...]]}
# Exactly two groups, valuations in descending order.


def _number(value, what: str) -> float:
    """A JSON number as a float.  Booleans and strings are refused, and
    so are integers beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is an integer beyond the float range") from None


def spec_from_dict(obj: dict) -> ContestSpec:
    """Build (and validate) a ContestSpec from its JSON document form."""
    try:
        theta = _number(obj["theta"], "theta")
        groups = obj["groups"]
        if len(groups) != 2:
            raise ValidationError(f"expected exactly 2 groups, got {len(groups)}")
        g1, g2 = (
            GroupSpec(tuple(_number(v, "valuation") for v in g["valuations"]))
            for g in groups
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed contest spec document: {exc}") from exc
    return validate_spec(ContestSpec(g1, g2, theta))


def profile_from_dict(obj: dict) -> StrategyProfile:
    try:
        groups = obj["efforts"]
        if len(groups) != 2:
            raise ValidationError(f"expected efforts for exactly 2 groups, got {len(groups)}")
        pairs = [
            [(_number(e["x"], "effort x"), _number(e["y"], "effort y")) for e in group]
            for group in groups
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed profile document: {exc}") from exc
    xs = tuple(tuple(x for x, _ in group) for group in pairs)
    ys = tuple(tuple(y for _, y in group) for group in pairs)
    for x, y in zip(chain(*xs), chain(*ys)):
        if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):  # also refuses nan
            raise ValidationError(f"efforts must be finite and nonnegative, got x={x}, y={y}")
    return StrategyProfile(xs, ys)


def profile_to_dict(profile: StrategyProfile) -> dict:
    return {
        "efforts": [
            [{"x": x, "y": y} for x, y in zip(xs, ys)] for xs, ys in zip(profile.xs, profile.ys)
        ]
    }
