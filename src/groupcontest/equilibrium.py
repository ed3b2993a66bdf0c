"""Existence thresholds, regime classification, and closed-form equilibria.

For a valid spec there are two theta thresholds, always strictly
ordered.  At or below the lower one a unique pure equilibrium without
sabotage exists (only the two highest-valuation players are active); at
or above the upper one a unique pure equilibrium with sabotage exists
(only the two lowest-valuation players are active, both sabotaging);
strictly between them no pure equilibrium exists at all.

``region_sample`` evaluates one existence condition over a product of
two parameter grids as a single numpy broadcast and returns the margins
as a read-only array, so a plot can draw the boundary curve directly.
``region_csv`` renders them in blocks of at most 2**15 points, each
spelt as numpy byte planes whose text is that of ``'%.9g'``; the few
margins the planes cannot decide exactly (nan, inf, zeros, exponents
far from 0, values whose scaled digits land on a half) are formatted
by ``'%.9g'`` itself.
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


# --- CSV rendering ------------------------------------------------------------
#
# ``'%.9g' % v`` costs ~370 ns a float in CPython, most of the time of a
# 300x300 sweep's CSV, so margins are spelt by numpy instead.

# Slots: sign, the "0.000" that starts 1e-4 <= |v| < 1, nine digits each
# followed by a dot slot (but the last), and "e+dd".  Any '%.9g' spelling
# fits.
_G9_SLOTS = 27
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # 10**0..10**22, exact
_CHUNK = np.arange(1000)
_CHUNK_DIGIT = [(_CHUNK // 10 ** (2 - i) % 10 + ord("0")).astype(np.uint8) for i in range(3)]
_CHUNK_ZEROS = ((_CHUNK % 10 == 0).astype(np.int8) + (_CHUNK % 100 == 0) + (_CHUNK % 1000 == 0))
_CSV_BLOCK = 1 << 15  # points rendered at once; bounds the planes' memory
_IN_REGION = np.array([b",false\n", b",true\n"])


def _g9_planes(values: np.ndarray) -> np.ndarray:
    """``'%.9g' % v`` for each float64 ``v`` as uint8 byte planes of shape
    (_G9_SLOTS, n): column j read top to bottom, NULs dropped, spells
    values[j].

    With e = floor(log10|v|), y = |v| * 10**(8-e) is one correctly
    rounded multiply or divide by an exact power of ten when |8-e| <= 22.
    Rounding is monotone and the half-integers below 2**52 are floats, so
    where y is not a half-integer the exact product lies strictly between
    the same two half-integers as y: it rounds to d = rint(y), without a
    tie.  Where d also has nine digits, d and e are the digits and
    exponent '%.9g' prints.  Every other value (nan, +-inf, +-0,
    |8-e| > 22, y a half-integer, and an exponent estimate that was off
    or rounded up to 10**9) is formatted by '%.9g' itself.
    """
    mag = np.abs(values)
    fast = np.isfinite(mag) & (mag != 0)
    mag = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.intp)
    fast &= np.abs(8 - e) <= 22
    y = mag * _POW10.take(8 - e, mode="clip") / _POW10.take(e - 8, mode="clip")
    d = np.rint(y)
    fast &= (np.abs(y - d) < 0.5) & (d >= 1e8) & (d < 1e9)
    digits = np.where(fast, d, 1e8).astype(np.intp)
    thousands = digits // 1000
    top = thousands // 1000
    chunks = (top, thousands - 1000 * top, digits - 1000 * thousands)  # 3 digits each
    zeros = _CHUNK_ZEROS[chunks[2]]  # trailing zeros of d, a chunk at a time
    zeros = np.where(zeros == 3, 3 + _CHUNK_ZEROS[chunks[1]], zeros)
    significant = 9 - np.where(zeros == 6, 6 + _CHUNK_ZEROS[top], zeros)

    # Layout as format(v, '.9g'): fixed notation for -4 <= e < 9, else
    # d.ddde+XX; trailing zeros and a bare '.' are dropped.
    e = np.where(fast, e, 0).astype(np.int8)
    fixed = (e >= -4) & (e < 9)
    small = fixed & (e < 0)
    sci = ~fixed
    whole = np.where(fixed & ~small, e + 1, 0)  # digits before the dot
    shown = np.maximum(significant, whole)
    dot = np.where(sci, 1, whole)  # the dot follows this digit, if a digit does
    planes = np.empty((_G9_SLOTS, values.size), dtype=np.uint8)
    np.multiply(np.signbit(values), np.uint8(ord("-")), out=planes[0])
    np.multiply(small, np.uint8(ord("0")), out=planes[1])
    np.multiply(small, np.uint8(ord(".")), out=planes[2])
    for j in range(3):
        np.multiply(small & (e < -1 - j), np.uint8(ord("0")), out=planes[3 + j])
    for i in range(9):
        digit = _CHUNK_DIGIT[i % 3][chunks[i // 3]]
        np.multiply(shown > i, digit, out=planes[6 + 2 * i])
        if i < 8:
            np.multiply((dot == i + 1) & (significant > i + 1), np.uint8(ord(".")),
                        out=planes[7 + 2 * i])
    exponent = np.abs(e).astype(np.uint8)
    np.multiply(sci, np.uint8(ord("e")), out=planes[23])
    np.multiply(sci, np.where(e < 0, np.uint8(ord("-")), np.uint8(ord("+"))), out=planes[24])
    np.multiply(sci, exponent // 10 + np.uint8(ord("0")), out=planes[25])
    np.multiply(sci, exponent % 10 + np.uint8(ord("0")), out=planes[26])

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.9g" % v for v in values[slow].tolist()], dtype=f"S{_G9_SLOTS}")
        planes[:, slow] = text.view(np.uint8).reshape(slow.size, _G9_SLOTS).T
    return planes


def _axis_fields(axis: np.ndarray) -> np.ndarray:
    """Each axis value as ``'%.9g,'`` bytes, NUL-padded to one width."""
    return np.array([f"{v:.9g}," for v in axis.tolist()], dtype="S")


def _csv_records(first: np.ndarray, second: np.ndarray, margin: np.ndarray,
                 start: int) -> np.ndarray:
    """The CSV lines of the grid points ``start, start + 1, ...`` in
    row-major order, whose margins are ``margin``, as NUL-padded uint8
    records of one width, one row per point: the two axis fields, the
    margin's column of its ``_g9_planes`` and the in_region flag."""
    row = np.arange(start, start + margin.size) // second.size
    col = np.arange(start, start + margin.size) - row * second.size
    token = _g9_planes(margin)
    token = token[token.any(axis=1)]  # drop the slots no margin uses
    w1, w2 = first.itemsize, second.itemsize
    flag = _IN_REGION.itemsize
    records = np.empty((margin.size, w1 + w2 + len(token) + flag), dtype=np.uint8)
    records[:, :w1].view(first.dtype)[:, 0] = first[row]
    records[:, w1:w1 + w2].view(second.dtype)[:, 0] = second[col]
    records[:, w1 + w2:-flag] = token.T
    records[:, -flag:].view(_IN_REGION.dtype)[:, 0] = _IN_REGION[(margin >= 0).view(np.int8)]
    return records


def region_csv(grid: RegionGrid) -> str:
    """Render a sweep as CSV: a header row, then one line per point in
    the grid's row-major order.  Floats carry 9 significant digits
    (``.9g``), in_region prints as true/false.

    Each axis value is formatted once.  The points are rendered in
    blocks of at most ``_CSV_BLOCK``, so the working set stays one
    block: a block's margins are spelt by ``_g9_planes`` (``'%.9g'``
    as numpy byte planes), each point becomes one NUL-padded record,
    and deleting the NULs leaves the block's text.
    """
    first, second = _axis_fields(grid.axis1), _axis_fields(grid.axis2)
    margin = grid.margin.reshape(-1)
    parts = ["axis1,axis2,margin,in_region\n"]
    for start in range(0, margin.size, _CSV_BLOCK):
        records = _csv_records(first, second, margin[start:start + _CSV_BLOCK], start)
        parts.append(records.tobytes().translate(None, b"\0").decode("ascii"))
        del records  # not held through the next block or the join
    return "".join(parts)
