"""Closed-form best response on a player's effort axis.

``axis_best_response`` maximizes one player's payoff along her relevant
effort axis, holding fixed the rest of her group's effective effort
(``z_minus``) and the other group's (``z_other``): constructive effort x
for a positive valuation, sabotage y for a negative one.  On that axis
her payoff has one kink, where her group's effective effort crosses 0
(x = -z_minus, or y = z_minus / theta).  On the side where her group and
the rival pull the same way, the payoff is strictly concave, with its
peak where

* positive valuation: own group's effective effort is
  sqrt(v * z_other) - z_other;
* negative valuation: own group's effective effort is
  |z_other| - sqrt(theta*|v|*|z_other|), i.e. y =
  (sqrt(theta*|v|*|z_other|) - |z_other| + z_minus) / theta;

and on the other side the odds are flat at 0 or 1, or the payoff is
convex, so only its ends matter.  The best response is therefore the best
of three points: staying out (0), the kink, and the concave piece's peak.
Each is scored through the contest success function, and ties keep the
quiet endpoint.

z_other = 0 is rejected: against an idle rival the supremum is a limit
(any positive effective effort wins outright) and is not attained, and
that situation never arises at an equilibrium.  In floats the same holds
inside the rounding band: the peak can round onto the kink, where the
odds are still flat, and only a limit point just past it pays.  This
module is the one home of a player's axis: ``_axis_moves`` (the
candidates and that point) and ``_group_values`` (the band) serve
``verify``'s search and the rule, which runs them on the player's group
with one teammate whose effort is z_minus and scores the points itself.

The rule holds at any unit scale: the peak comes from ``_stationary``
(shared with ``verify``'s search and sampler), which scales its
arguments by a power of two, and a peak beyond the float range comes
back as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .csf import win_probability_short
from .model import ContestError, _group_z


# z_minus + x strays from the rounded group sum by at most about one ulp of
# the group's gross effort per nonzero effort in it (adding 0.0 is exact),
# plus a few for the residual and the move.  Scores use z_minus + x only
# where |z_other| exceeds that by ROUNDING_BAND, keeping their error below
# about |v| * 2**-44.
ROUNDING_BAND = 2.0**44


class DomainError(ContestError):
    """Arguments for which a best response is not defined."""


@dataclass(frozen=True)
class AxisBestResponse:
    """A maximizing effort level; ``tie`` marks a second, distinct
    candidate whose float score equals the best, so two efforts whose
    true payoffs differ by less than the rounding of v * p tie too."""

    effort: float
    tie: bool = False


def _stationary(v: float, theta: float, z_minus: float, z_other: float) -> float:
    """The concave piece's peak on the player's axis, or 0 if there is
    none: sqrt(v*z_other) - z_other - z_minus for v > 0 (theta unused),
    its mirror (sqrt(theta*|v|*|z_other|) - |z_other| + z_minus) / theta
    for v < 0, clamped at 0.  The peak is homogeneous of degree 1 in
    (v, z_minus, z_other), so it runs on arguments scaled by a power of
    two to at most 1, where v*z_other cannot overflow or underflow, and
    scales back exactly.  Where
    that scaling underflows v or z_other to 0, the square root of their
    product is taken as a product of square roots in the original units."""
    if not (z_other > 0 if v > 0 else z_other < 0):
        return 0.0
    e = math.frexp(max(abs(v), abs(z_minus), abs(z_other)))[1]
    v1, m1, o1 = math.ldexp(v, -e), math.ldexp(z_minus, -e), math.ldexp(z_other, -e)
    if v1 == 0 or o1 == 0:
        root = math.sqrt(abs(v)) * math.sqrt(abs(z_other))
        if v > 0:
            return max(0.0, root - z_other - z_minus)
        return max(0.0, (math.sqrt(theta) * root - abs(z_other) + z_minus) / theta)
    if v > 0:
        effort = max(0.0, math.sqrt(v1 * o1) - o1 - m1)
    else:
        effort = max(0.0, (math.sqrt(theta * abs(v1) * abs(o1)) - abs(o1) + m1) / theta)
    try:
        return math.ldexp(effort, e)
    except OverflowError:  # beyond the float range
        return math.inf


def _on_axis(v: float, e: float) -> tuple[float, float]:
    """(x, y) of effort e on the axis of a player valued v: x if v > 0, else y."""
    return (e, 0.0) if v > 0 else (0.0, e)


def _moved_z(theta: float, columns, k: int, x: float, y: float) -> float:
    """The group's effective effort after its player k moves to (x, y),
    without rebuilding the profile: the builtin sum over a copy of each of
    ``columns`` (the group's x and y efforts) with the move written in (a
    copy sums faster than a chain of slices).  That is ``_group_z`` over
    the same sequence as ``effective_efforts`` on the deviated profile,
    so the result is bit for bit its z."""
    xs, ys = list(columns[0]), list(columns[1])
    xs[k - 1], ys[k - 1] = x, y
    return _group_z(theta, xs, ys)


def _group_values(theta, gx, gy):
    """A group's (z, gross, band) from its columns: z by ``_group_z``, the
    gross effort, the builtin sum of x + theta * y, and the |z_other| above
    which the group lies outside the rounding band: the gross effort and
    the number of nonzero efforts bound the rounding in z."""
    # Where every y is +-0.0, sum(gy) is +0.0 and each x + theta * y is x, or
    # +0.0 for x = -0.0, which the sum (from +0.0) adds alike: gross is z.
    z, n, idle_y = _group_z(theta, gx, gy), len(gx), gy.count(0.0)
    gross = z if idle_y == n else sum([x + theta * y for x, y in zip(gx, gy)])
    terms = 2 * n - gx.count(0.0) - idle_y
    return z, gross, ROUNDING_BAND * (terms + 4) * math.ulp(gross)


def _axis_moves(theta, v, columns, k, z_minus, peak, exact):
    """Player k's candidate efforts on its axis, scored after its current
    one: 0, then the kink and ``peak`` where positive and new; unless
    ``exact`` (the rival outside the group's rounding band), also the limit
    point kink + d, d doubled from one ulp of v or the kink until
    ``_moved_z`` over ``columns`` is past 0, while kink + d is finite."""
    kink = max(0.0, -z_minus) if v > 0 else max(0.0, z_minus / theta)
    moves = [0.0]
    for e in (kink, peak):
        if e > 0 and e not in moves:
            moves.append(e)
    if not exact:
        d = math.ulp(max(abs(v), kink))
        while math.isfinite(kink + d):
            past = _moved_z(theta, columns, k, *_on_axis(v, kink + d))
            if (past > 0) if v > 0 else (past < 0):
                moves.append(kink + d)
                break
            d *= 2.0
    return moves


def axis_best_response(theta: float, v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best effort on the valuation's axis: x for v > 0 (theta unused),
    y for v < 0.

    Scores the points of ``_axis_moves`` (0, the kink, the concave peak
    and, inside the rounding band, the limit point past the kink), in that
    order, as v * win_probability_short(z, z_other) - e at own group's
    effective effort z after the move, and keeps the first that pays
    most, so a tie with 0 keeps 0.  A peak beyond the float range comes
    back as inf, unscored; a kink or limit point there pays less than
    staying out and is skipped.
    """
    if v == 0 or z_other == 0 or (v < 0 and (theta is None or not 0 < theta < math.inf)):
        raise DomainError(
            f"need v != 0, z_other != 0 and, for v < 0, a finite theta > 0; "
            f"got theta={theta}, v={v}, z_other={z_other}"
        )
    peak = _stationary(v, theta, z_minus, z_other)
    if peak == math.inf:
        return AxisBestResponse(peak)
    theta = theta if v < 0 else 1.0
    columns = ([z_minus, 0.0], [0.0, 0.0])  # the teammate, then the player
    exact = abs(z_other) > _group_values(theta, *columns)[2]
    slope = 1.0 if v > 0 else -theta  # own group's effective effort per unit

    def score(e):
        z, rival = z_minus + slope * e, z_other
        if math.isinf(z):  # the odds are scale-free: take them 2**600 times smaller
            z = math.ldexp(z_minus, -600) + slope * math.ldexp(e, -600)
            rival = math.ldexp(z_other, -600)
        return v * win_probability_short(z, rival) - e

    best, best_value, tie = 0.0, score(0.0), False
    for e in dict.fromkeys(_axis_moves(theta, v, columns, 2, z_minus, peak, exact)):
        if 0 < e < math.inf:
            value = score(e)
            if value > best_value:
                best, best_value, tie = e, value, False
            elif value == best_value:
                tie = True
    return AxisBestResponse(best, tie)


# The benchmark's tracer finds the best-response layer by this name.
br_positive_x = axis_best_response
