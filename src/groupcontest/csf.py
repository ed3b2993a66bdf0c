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
to win.

The package evaluates the map in one line,
p1 = (max(0, z1) - min(0, z2)) / (|z1| + |z2|), which gives the five
cases' floats bit for bit: in the corner cases the numerator is 0 or
equals the denominator.  ``win_probability_short`` is the scalar form
and ``p1_values`` the array form.  Where |z1| + |z2| overflows, both
run on (z1/2, z2/2): the map is scale-free, and halving is exact there
because both magnitudes are then at least 2**970.

Pure functions on immutable values; unrestricted concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    ContestError,
    ContestSpec,
    PlayerId,
    StrategyProfile,
    effective_efforts,
    valuation,
)


class NonFiniteInput(ContestError):
    """The success function was handed a NaN or infinite effective effort."""


def win_probability_short(z1: float, z2: float) -> float:
    """Group 1's winning probability at (z1, z2), all five sign cases in
    one expression (the branch-agreement tests pin it to the five-case
    definition bit for bit).  Where |z1| + |z2| overflows it runs on the
    halved inputs: the map is scale-free and halving is exact there.
    A non-finite input makes the scale non-finite too, so finite inputs
    pay for no check."""
    scale = abs(z1) + abs(z2)
    if not scale < math.inf:
        if not (math.isfinite(z1) and math.isfinite(z2)):
            raise NonFiniteInput(f"effective efforts must be finite, got ({z1}, {z2})")
        z1, z2 = 0.5 * z1, 0.5 * z2
        scale = abs(z1) + abs(z2)
    if scale == 0:
        return 0.5
    # Both conditionals map -0.0 to +0.0.
    return ((z1 if z1 > 0.0 else 0.0) - (z2 if z2 < 0.0 else 0.0)) / scale


def p1_values(z1, z2) -> np.ndarray:
    """Vectorized ``win_probability_short``, bit for bit, overflow rule
    included.

    Accepts scalars or arrays (broadcast together), and raises
    ``NonFiniteInput`` if any element is NaN or infinite.  The deviation
    search scores a large group's candidates with it in one call.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    with np.errstate(over="ignore"):
        scale = np.abs(z1) + np.abs(z2)
    finite = np.isfinite(scale)
    if not finite.all():
        # Non-finite inputs make the scale non-finite, as overflow does.
        if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
            raise NonFiniteInput("effective efforts must be finite")
        half = np.where(finite, 1.0, 0.5)
        z1, z2 = half * z1, half * z2
        scale = np.abs(z1) + np.abs(z2)
    # np.maximum keeps its second argument on ties, max its first: both
    # map z1 = -0.0 to +0.0.
    num = np.maximum(z1, 0.0) - np.minimum(0.0, z2)
    out = np.full(scale.shape, 0.5)
    np.divide(num, scale, out=out, where=scale > 0)
    return out


def payoff(spec: ContestSpec, profile: StrategyProfile, player: PlayerId) -> float:
    """Expected payoff v * p_own - x - y for one player.

    Well defined for any nonnegative profile, including players that
    exert both effort types at once.
    """
    eff = effective_efforts(spec, profile)
    v = valuation(spec, player)  # raises UnknownPlayer
    g, k = profile._position(player)
    return _payoff_at(v, player.group, eff.z1, eff.z2, profile.xs[g][k], profile.ys[g][k])


def _payoff_at(v: float, group: int, z1: float, z2: float, x: float, y: float) -> float:
    """Payoff v * p_own - x - y of a ``group`` player exerting (x, y)
    when the groups' effective efforts are (z1, z2)."""
    p1 = win_probability_short(z1, z2)
    return v * (p1 if group == 1 else 1.0 - p1) - x - y
