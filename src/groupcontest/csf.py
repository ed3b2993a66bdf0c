"""Contest success function and player payoffs.

Group 1's winning probability is defined by five sign cases on the
effective efforts (z1, z2):

    z1 > 0,  z2 >= 0:  p1 = z1 / (z1 + z2)
    z1 >= 0, z2 < 0:   p1 = 1
    z1 <= 0, z2 > 0:   p1 = 0
    z1 < 0,  z2 <= 0:  p1 = |z2| / (|z1| + |z2|)
    z1 = 0,  z2 = 0:   p1 = 1/2

and group 2 wins with the complementary probability.  A negative
effective effort counts through its absolute value: a group whose
sabotage outweighs its constructive effort is, as a whole, trying not
to win.  The same map can be written in one line,
p1 = (max(z1, 0) - min(0, z2)) / (|z1| + |z2|), which is what the
vectorized helper uses.

Pure functions on immutable values; unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ContestError,
    ContestSpec,
    EffectiveEffort,
    PlayerId,
    StrategyProfile,
    effective_efforts,
    valuation,
)


class NonFiniteInput(ContestError):
    """win_probability was handed a NaN or infinite effective effort."""


@dataclass(frozen=True)
class WinProbabilities:
    """Both groups' winning probabilities; p1 + p2 = 1 by construction."""

    p1: float
    p2: float


def win_probability(z1: float, z2: float) -> WinProbabilities:
    """Evaluate the five-case contest success function at (z1, z2)."""
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise NonFiniteInput(f"effective efforts must be finite, got ({z1}, {z2})")
    if z1 > 0 and z2 >= 0:
        p1 = z1 / (z1 + z2)
    elif z1 >= 0 and z2 < 0:
        p1 = 1.0
    elif z1 <= 0 and z2 > 0:
        p1 = 0.0
    elif z1 < 0 and z2 <= 0:
        p1 = abs(z2) / (abs(z1) + abs(z2))
    else:  # z1 == z2 == 0
        p1 = 0.5
    return WinProbabilities(p1, 1.0 - p1)


def win_probability_short(z1: float, z2: float) -> float:
    """One-line form of the same map; must agree with win_probability
    on every input (exercised by the branch-agreement tests)."""
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise NonFiniteInput(f"effective efforts must be finite, got ({z1}, {z2})")
    scale = abs(z1) + abs(z2)
    if scale == 0:
        return 0.5
    return (max(z1, 0.0) - min(0.0, z2)) / scale


def p1_values(z1, z2) -> np.ndarray:
    """Vectorized winning probability of the group listed first.

    Accepts scalars or arrays (broadcast together).  The deviation
    search scores a large group's candidates with it in one call.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    scale = np.abs(z1) + np.abs(z2)
    num = np.maximum(z1, 0.0) - np.minimum(0.0, z2)
    out = np.full(np.broadcast(z1, z2).shape, 0.5)
    np.divide(num, scale, out=out, where=scale > 0)
    return out


def payoff(spec: ContestSpec, profile: StrategyProfile, player: PlayerId) -> float:
    """Expected payoff v * p_own - x - y for one player.

    Well defined for any nonnegative profile, including players that
    exert both effort types at once.
    """
    return _payoff(spec, profile, player, effective_efforts(spec, profile))


def _payoff(
    spec: ContestSpec, profile: StrategyProfile, player: PlayerId, eff: EffectiveEffort
) -> float:
    """``payoff`` given the profile's effective efforts ``eff``."""
    v = valuation(spec, player)
    e = profile.effort(player)
    return _payoff_at(v, player.group, eff.z1, eff.z2, e.x, e.y)


def _payoff_at(v: float, group: int, z1: float, z2: float, x: float, y: float) -> float:
    """Payoff v * p_own - x - y of a ``group`` player exerting (x, y)
    when the groups' effective efforts are (z1, z2)."""
    probs = win_probability(z1, z2)
    p_own = probs.p1 if group == 1 else probs.p2
    return v * p_own - x - y
