"""Existence thresholds, regime classification, and closed-form equilibria.

For a valid spec there are two theta thresholds, always strictly
ordered.  At or below the lower one a unique pure equilibrium without
sabotage exists (only the two highest-valuation players are active); at
or above the upper one a unique pure equilibrium with sabotage exists
(only the two lowest-valuation players are active, both sabotaging);
strictly between them no pure equilibrium exists at all.

``region_sample`` evaluates one existence condition over a product of
two parameter grids as a single numpy broadcast and returns the margins
as a read-only array, so a plot can draw the boundary curve directly;
``region_csv`` renders them row by row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    ContestError,
    ContestSpec,
    EffectiveEffort,
    PlayerId,
    StrategyProfile,
    effective_efforts,
)


class EmptyGrid(ContestError):
    pass


class NonPositiveGridPoint(ContestError):
    pass


class Regime(enum.Enum):
    NO_SABOTAGE = "NoSabotageEquilibrium"
    SABOTAGE = "SabotageEquilibrium"
    NO_PURE = "NoPureEquilibrium"


@dataclass(frozen=True)
class Thresholds:
    """The two theta cutoffs; theta_no_sabotage < theta_sabotage always."""

    theta_no_sabotage: float
    theta_sabotage: float


@dataclass(frozen=True)
class EquilibriumResult:
    regime: Regime
    profile: StrategyProfile | None
    effective: EffectiveEffort | None
    boundary: bool


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """An existence-region sweep over the product of two axis grids.

    ``axis1`` (n1 points) and ``axis2`` (n2 points) are the grids in the
    order given, and ``margin[i, j]`` is the margin at
    (``axis1[i]``, ``axis2[j]``); the point lies in the region iff its
    margin is >= 0.  All three are read-only float64 arrays, and the
    grid has n1*n2 points; renderings list them in row-major order,
    axis1 outer and axis2 inner.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return self.margin.size


def _centred(*values: float) -> list[float]:
    """The values divided by the power of two that centres their binary
    exponents on 0 (keeping the largest below 2**1023).  The division is
    exact, so scale-free closed forms give bit-identical results at
    ordinary scales, and no product of two values overflows or
    underflows to 0 at extreme ones."""
    exponents = [math.frexp(v)[1] for v in values]
    e = max((max(exponents) + min(exponents)) // 2, max(exponents) - 1023)
    return [math.ldexp(v, -e) for v in values]


def thresholds(spec: ContestSpec) -> Thresholds:
    """Compute both existence cutoffs from the four extreme valuations.

    No sabotage requires theta <= v11*v21 / ((v11+v21) * max(|v1n|,|v2n|));
    all-sabotage requires theta >= |v1n+v2n| * max(v11,v21) / (v1n*v2n),
    the product in the denominator being positive since both bottom
    valuations are negative.  Both cutoffs are scale-free, so they are
    evaluated on centred valuations.
    """
    top1, top2, bot1, bot2 = _centred(
        spec.group1.valuations[0],
        spec.group2.valuations[0],
        spec.group1.valuations[-1],
        spec.group2.valuations[-1],
    )
    # A denominator underflows to 0 only if the valuations span more than
    # the float range; the cutoff then lies outside that range too, below
    # it if the tops are what vanished.
    den = (top1 + top2) * max(abs(bot1), abs(bot2))
    low = top1 * top2 / den if den else (math.inf if top1 + top2 else 0.0)
    den = bot1 * bot2
    high = abs(bot1 + bot2) * max(top1, top2) / den if den else math.inf
    return Thresholds(low, high)


def classify(spec: ContestSpec) -> tuple[Regime, bool]:
    """Regime tag for the spec's theta, plus a flag set when theta sits
    exactly on the binding threshold (weak inequalities include it)."""
    cut = thresholds(spec)
    if spec.theta <= cut.theta_no_sabotage:
        return Regime.NO_SABOTAGE, spec.theta == cut.theta_no_sabotage
    if spec.theta >= cut.theta_sabotage:
        return Regime.SABOTAGE, spec.theta == cut.theta_sabotage
    return Regime.NO_PURE, False


def solve(spec: ContestSpec) -> EquilibriumResult:
    """Construct the closed-form equilibrium for the spec's regime, or
    report that no pure equilibrium exists.

    Without sabotage the active efforts are
    x11 = v11^2*v21/(v11+v21)^2 and x21 = v11*v21^2/(v11+v21)^2; with
    sabotage, y1n = -v1n^2*v2n/(v1n+v2n)^2 and y2n = -v1n*v2n^2/(v1n+v2n)^2
    (both positive since the bottom valuations are negative).
    """
    regime, boundary = classify(spec)
    if regime is Regime.NO_PURE:
        return EquilibriumResult(regime, None, None, False)

    # Efforts are linear in the valuations: solve at magnitude <= 1, where
    # the cubic numerators cannot overflow, and scale back exactly.
    profile = StrategyProfile.zeros(spec)
    if regime is Regime.NO_SABOTAGE:
        a, b = spec.group1.valuations[0], spec.group2.valuations[0]
    else:
        a, b = spec.group1.valuations[-1], spec.group2.valuations[-1]
    e = math.frexp(max(abs(a), abs(b)))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    denom = (a + b) ** 2
    if regime is Regime.NO_SABOTAGE:
        profile = profile.replace(PlayerId(1, 1), math.ldexp(a * a * b / denom, e), 0.0)
        profile = profile.replace(PlayerId(2, 1), math.ldexp(a * b * b / denom, e), 0.0)
    else:
        y1 = math.ldexp(-a * a * b / denom, e)
        y2 = math.ldexp(-a * b * b / denom, e)
        profile = profile.replace(PlayerId(1, spec.group1.size), 0.0, y1)
        profile = profile.replace(PlayerId(2, spec.group2.size), 0.0, y2)
    return EquilibriumResult(regime, profile, effective_efforts(spec, profile), boundary)


def _axis(values: Iterable[float]) -> np.ndarray:
    """A read-only float64 copy of one axis grid, checked point by point."""
    axis = np.fromiter(values, dtype=np.float64)
    if axis.size == 0:
        raise EmptyGrid("both axis grids must be non-empty")
    bad = ~(np.isfinite(axis) & (axis > 0))
    if bad.any():
        raise NonPositiveGridPoint(
            f"grid points must be finite and positive, got {axis[bad][0]}"
        )
    axis.flags.writeable = False
    return axis


def region_sample(
    figure: int,
    fixed: float,
    axis1_grid: Iterable[float],
    axis2_grid: Iterable[float],
    theta: float | None = None,
) -> RegionGrid:
    """Evaluate one figure's existence condition over a product grid.

    Figure 1 sweeps the two top valuations against a fixed adjusted
    bottom stake w: margin = a1*a2/(a1+a2) - w.  Figure 2 sweeps the two
    bottom valuation magnitudes against a fixed top valuation t at a
    given theta: margin = theta*m1*m2/(m1+m2) - t.

    Grid points must be finite and positive (``NonPositiveGridPoint``),
    and ``fixed`` and ``theta`` finite (``ContestError``); the grids
    need not be sorted.  Returns a ``RegionGrid`` holding read-only
    copies of both grids and the (n1, n2) margins.  The margins come
    from one broadcast that applies the scalar formula's operations in
    the same order, so each is the float that formula gives at its
    point; products beyond the float range give inf or nan margins, as
    they would in scalar arithmetic.
    """
    if figure not in (1, 2):
        raise ContestError(f"figure must be 1 or 2, got {figure}")
    if figure == 2 and not (theta is not None and 0 < theta < math.inf):
        raise ContestError("figure 2 requires a finite positive theta")
    if not math.isfinite(fixed):
        raise ContestError(f"the fixed stake must be finite, got {fixed}")
    a1, a2 = _axis(axis1_grid), _axis(axis2_grid)
    scale = 1.0 if figure == 1 else theta
    with np.errstate(over="ignore", invalid="ignore"):
        margin = scale * a1[:, None] * a2[None, :] / (a1[:, None] + a2[None, :]) - fixed
    margin.flags.writeable = False
    return RegionGrid(a1, a2, margin)


_FLAGS = np.array(["false", "true"], dtype=object)  # in_region, indexed by margin >= 0


def region_csv(grid: RegionGrid) -> str:
    """Render a sweep as CSV: a header row, then one line per point in
    the grid's row-major order.  Floats carry 9 significant digits
    (``.9g``), in_region prints as true/false.

    Each axis value is formatted once; a row is one ``%`` operation on
    a template that holds its axis strings and takes its margins and
    flags.
    """
    cells = [f"{a2:.9g},%.9g,%s\n" for a2 in grid.axis2.tolist()]
    flags = _FLAGS[(grid.margin >= 0).astype(np.intp)].tolist()
    lines = ["axis1,axis2,margin,in_region\n"]
    for a1, margins, row_flags in zip(grid.axis1.tolist(), grid.margin.tolist(), flags):
        prefix = f"{a1:.9g},"
        values = [None] * (2 * len(margins))
        values[0::2] = margins
        values[1::2] = row_flags
        lines.append((prefix + prefix.join(cells)) % tuple(values))
    return "".join(lines)
