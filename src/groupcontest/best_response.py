"""Closed-form single-axis best responses.

Each function maximizes one player's payoff along her relevant effort
axis, holding fixed the rest of her group's effective effort
(``z_minus``) and the other group's (``z_other``).  There are four
player-class/sign-regime combinations:

* positive valuation, both groups' efforts ending positive: the payoff
  is strictly concave in x, with interior solution
  sqrt(v * z_other) - z_other - z_minus (clamped at 0);
* negative valuation, rest-of-group and rival positive: the payoff is
  strictly convex in y up to the point where own sabotage wipes out the
  rest of the group, so the optimum is an endpoint: stay out (y = 0) or
  neutralize the group (y = z_minus / theta);
* negative valuation, both groups ending negative: strictly concave in
  y, interior solution (sqrt(theta*|v|*|z_other|) - |z_other| + z_minus)
  / theta (clamped at 0);
* positive valuation, rest-of-group and rival negative: convex again,
  endpoints x = 0 or x = |z_minus|.

Callers own the regime bookkeeping: these functions do not check that
the resulting group effort actually lands in the assumed sign regime.
z_other = 0 is rejected because the interior conditions are singular
there (and that situation never arises at an equilibrium).

The rules hold at any unit scale: both interior solutions come from
``_stationary`` (shared with ``verify``'s search and sampler), which
scales its arguments by a power of two, and an effort beyond the float
range comes back as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ContestError


class DomainError(ContestError):
    """Arguments violate the sign regime a best-response rule assumes."""


@dataclass(frozen=True)
class AxisBestResponse:
    """A maximizing effort level; ``tie`` marks the knife-edge case
    where a second, distinct effort attains the same payoff."""

    effort: float
    tie: bool = False


def _stationary(v: float, theta: float, z_minus: float, z_other: float) -> float:
    """The concave piece's peak on the player's axis, or 0 if there is
    none: ``br_positive_x`` for v > 0 (theta unused), ``br_negative_y``
    for v < 0.  The peak is homogeneous of degree 1 in (v, z_minus,
    z_other), so it runs on arguments scaled by a power of two to at
    most 1, where v*z_other cannot overflow or underflow, and scales
    back exactly.  Where
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


def br_positive_x(v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best constructive effort of a positive-valuation player when the
    rival group's effective effort is positive.

    Unique maximizer of v*(z_minus + x)/(z_minus + x + z_other) - x over
    x >= 0: the stationary point sets the total (own + rival) effective
    effort to sqrt(v * z_other).
    """
    if v <= 0 or z_other <= 0:
        raise DomainError(f"need v > 0 and z_other > 0, got v={v}, z_other={z_other}")
    return AxisBestResponse(_stationary(v, 1.0, z_minus, z_other))


def br_positive_y(theta: float, v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best sabotage effort of a negative-valuation player whose group
    would otherwise end positive.

    The payoff is strictly convex on [0, z_minus/theta), so only the
    endpoints matter: y = 0 yields v*z_minus/(z_minus + z_other), while
    y = z_minus/theta (own group neutralized) yields -z_minus/theta.
    Sabotage pays exactly when theta*|v| > z_minus + z_other; at
    equality both endpoints tie and the quiet one is returned.  Where
    both sides overflow, their halves are compared: halving is exact
    there.
    """
    if theta <= 0 or v >= 0 or z_minus <= 0 or z_other <= 0:
        raise DomainError(
            f"need theta > 0, v < 0, z_minus > 0, z_other > 0; "
            f"got theta={theta}, v={v}, z_minus={z_minus}, z_other={z_other}"
        )
    stake = theta * abs(v)
    hurdle = z_minus + z_other
    if stake == hurdle == math.inf:
        stake, hurdle = theta * (0.5 * abs(v)), 0.5 * z_minus + 0.5 * z_other
    if stake < hurdle:
        return AxisBestResponse(0.0)
    if stake > hurdle:
        return AxisBestResponse(z_minus / theta)
    return AxisBestResponse(0.0, tie=True)


def br_negative_y(theta: float, v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best sabotage effort of a negative-valuation player when the
    rival group's effective effort is negative.

    Unique maximizer of v*(1 - z_i/(z_i + z_other)) - y with
    z_i = z_minus - theta*y: the stationary point puts own group's
    effective effort at |z_other| - sqrt(theta*|v|*|z_other|).
    """
    if theta <= 0 or v >= 0 or z_other >= 0:
        raise DomainError(
            f"need theta > 0, v < 0, z_other < 0; got theta={theta}, v={v}, z_other={z_other}"
        )
    return AxisBestResponse(_stationary(v, theta, z_minus, z_other))


def br_negative_x(v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best constructive effort of a positive-valuation player whose
    group would otherwise end negative.

    Convex payoff again, so an endpoint: x = 0 (let the group lose)
    yields v*(1 - z_minus/(z_minus + z_other)), x = |z_minus| (cancel
    the group's sabotage) yields v - |z_minus|.  Fighting back pays
    exactly when v > |z_minus + z_other|; ties resolve to 0.
    """
    if v <= 0 or z_minus >= 0 or z_other >= 0:
        raise DomainError(
            f"need v > 0, z_minus < 0, z_other < 0; "
            f"got v={v}, z_minus={z_minus}, z_other={z_other}"
        )
    hurdle = abs(z_minus + z_other)
    if v < hurdle:
        return AxisBestResponse(0.0)
    if v > hurdle:
        return AxisBestResponse(abs(z_minus))
    return AxisBestResponse(0.0, tie=True)

