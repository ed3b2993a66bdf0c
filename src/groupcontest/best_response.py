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


def br_positive_x(v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best constructive effort of a positive-valuation player when the
    rival group's effective effort is positive.

    Unique maximizer of v*(z_minus + x)/(z_minus + x + z_other) - x over
    x >= 0: the stationary point sets the total (own + rival) effective
    effort to sqrt(v * z_other).
    """
    if v <= 0 or z_other <= 0:
        raise DomainError(f"need v > 0 and z_other > 0, got v={v}, z_other={z_other}")
    effort = max(0.0, math.sqrt(v * z_other) - z_other - z_minus)
    return AxisBestResponse(effort)


def br_positive_y(theta: float, v: float, z_minus: float, z_other: float) -> AxisBestResponse:
    """Best sabotage effort of a negative-valuation player whose group
    would otherwise end positive.

    The payoff is strictly convex on [0, z_minus/theta), so only the
    endpoints matter: y = 0 yields v*z_minus/(z_minus + z_other), while
    y = z_minus/theta (own group neutralized) yields -z_minus/theta.
    Sabotage pays exactly when theta*|v| > z_minus + z_other; at
    equality both endpoints tie and the quiet one is returned.
    """
    if theta <= 0 or v >= 0 or z_minus <= 0 or z_other <= 0:
        raise DomainError(
            f"need theta > 0, v < 0, z_minus > 0, z_other > 0; "
            f"got theta={theta}, v={v}, z_minus={z_minus}, z_other={z_other}"
        )
    stake = theta * abs(v)
    hurdle = z_minus + z_other
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
    effort = (math.sqrt(theta * abs(v) * abs(z_other)) - abs(z_other) + z_minus) / theta
    return AxisBestResponse(max(0.0, effort))


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

