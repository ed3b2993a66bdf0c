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
that situation never arises at an equilibrium.  The same holds in floats
where z_other is within rounding of 0 beside z_minus (``verify``'s
rounding band): the peak can round onto the kink, where the odds are
still flat, and only a limit point just past it pays.
``verify.best_deviation`` reports that point; this rule does not.

The rule holds at any unit scale: the peak comes from ``_stationary``
(shared with ``verify``'s search and sampler), which scales its
arguments by a power of two, and a peak beyond the float range comes
back as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .csf import win_probability_short
from .model import ContestError


class DomainError(ContestError):
    """Arguments for which a best response is not defined."""


@dataclass(frozen=True)
class AxisBestResponse:
    """A maximizing effort level; ``tie`` marks the knife-edge case
    where a second, distinct effort attains the same payoff."""

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


def axis_best_response(theta: float, v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best effort on the valuation's axis: x for v > 0 (theta unused),
    y for v < 0.

    Scores 0, the kink and the concave peak, in that order, as
    v * win_probability_short(z, z_other) - e at own group's effective
    effort z after the move, and keeps the first that pays most, so a
    tie with 0 keeps 0.  A peak beyond the float range comes back as inf,
    unscored; a kink there pays less than staying out and is skipped.
    """
    if v == 0 or z_other == 0 or (v < 0 and not 0 < theta < math.inf):
        raise DomainError(
            f"need v != 0, z_other != 0 and, for v < 0, a finite theta > 0; "
            f"got theta={theta}, v={v}, z_other={z_other}"
        )
    peak = _stationary(v, theta, z_minus, z_other)
    if peak == math.inf:
        return AxisBestResponse(peak)
    slope = 1.0 if v > 0 else -theta  # own group's effective effort per unit

    def score(e):
        z, rival = z_minus + slope * e, z_other
        if math.isinf(z):  # the odds are scale-free: take them 2**600 times smaller
            z = math.ldexp(z_minus, -600) + slope * math.ldexp(e, -600)
            rival = math.ldexp(z_other, -600)
        return v * win_probability_short(z, rival) - e

    best, best_value, tie = 0.0, score(0.0), False
    for e in dict.fromkeys((max(0.0, -z_minus / slope), peak)):
        if 0 < e < math.inf:
            value = score(e)
            if value > best_value:
                best, best_value, tie = e, value, False
            elif value == best_value:
                tie = True
    return AxisBestResponse(best, tie)


# The benchmark's tracer finds the best-response layer by this name.
br_positive_x = axis_best_response
