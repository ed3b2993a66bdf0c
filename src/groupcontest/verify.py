"""Independent certification and refutation of strategy profiles.

``best_deviation`` finds one player's best unilateral move exactly, from
closed-form candidates.  Exerting both effort types is strictly
dominated (cutting x by d = min(x, theta*y) and y by d/theta keeps the
group's effective effort and lowers the cost), and winning odds never
fall as own-group effort rises, so a positive-valuation player only
builds and a negative-valuation one only sabotages.  On that axis the
payoff has one kink, where own-group effective effort crosses 0; on
either side the success function is c/(c + z) or c/(c - z), so each
piece peaks at an endpoint or at the concave piece's stationary point
(``_stationary``, shared with ``axis_best_response``).  The candidates
are the current effort, 0, the kink and that stationary point, scored as
plain floats.

Where the rival group's effective effort is 0 the odds jump as own-group
effort leaves 0, so the supremum lies just past the kink and is never
attained.  The search then reports the limit point kink + d, with d
doubled from one ulp of the valuation or the kink until the group sum,
rounded as ``effective_efforts`` rounds it, lands strictly past 0
(large efforts that cancel inside the group round smaller steps away).
The same goes when the rival's effort is within rounding of 0
(``ROUNDING_BAND``); there all candidates are scored from rounded group
sums.  The payoff is undefined where a group sum leaves the float range,
so a candidate whose sums would is cut back to the largest effort that
keeps them finite (``_edge``): its piece still rises there, or, below a
kink out of reach, peaks at its ends.  The winner's improvement is
recomputed exactly, as the payoff function computes it on the deviated
profile, or is 0.0 when the winner is the current effort: a finite
certificate over an infinite action space.  Rounded group sums, in the
band and for the improvement, come from ``_moved_z``: the builtin sum
over the group's efforts with the move swapped in, the very sum
``effective_efforts`` takes on the deviated profile.

``refute_class`` mechanizes the deviation arguments that rule out whole
families of profiles (mixed-sign effective efforts, some zero effective
effort, wrong-axis effort, free riding violations): it samples seeded
random profiles inside a forbidden family and exhibits a strictly
improving deviation for every one of them.

``best_response_dynamics`` iterates best deviations from an initial
profile, reporting convergence, cycling, or exhaustion; it is an
empirical probe of the no-equilibrium gap, not a solver.

All functions are pure.  A search reads a profile in one place, and a
group's values, (z, gross, band), come from one function,
``_group_values``, whose z is ``model._group_z``: the one spelling of
the group sum.  One player's search is ``_search_player``: candidates,
limit point, cut-backs, scores and exact gain, from its group's values,
the rival's z and the odds.  It returns the points scored and the
gaining move, if any, as plain floats, and builds no record.
``best_deviation`` calls it once and builds its one row, so calls for
distinct players may run in parallel.  The pick layer, ``_search_moves``,
takes each searched group's values once and returns each gaining
player's move and exact gain; the row layer, ``_search_rows``, builds
the rows of ``is_epsilon_nash``, whose verdict comes from the gains.
Idle players' rows, staying at (+0.0, +0.0), are shared immutable values
from one bounded cache, and every other row takes its player's id from
the idle row at its position, so the ids of a report agree by
construction.  A search builds a row only for a busy player (any other
effort, -0.0 included) and for an improving one, and no id once groups
of its sizes have been seen.

``best_response_dynamics`` builds no rows.  It keeps one list per group
column, live, and writes each move into its player's two entries; the
profile of tuples is built once, at return.  Simultaneous play runs the
pick layer once an iteration.  Round-robin play, inherently sequential,
calls ``_search_player`` per player on the live columns.  It takes each
group's ``_group_values`` once per run and again after each of the
group's moves: a staying player costs O(1) apart from in-band
candidates, a move O(n).  After an iteration the profile becomes a
tuple of floats, kept with its largest effort as key.  The largest
change from the previous tuple is the step just taken, for the
convergence check; the cycle check compares in full only earlier tuples
whose key is within ``CYCLE_TOL`` of the new one's, an exact prune.

A search takes one of two paths.  Outside the rounding band, every
whole group of ``ARRAY_MIN_PLAYERS`` or more players is scored in one
float64 matrix, the groups' columns side by side, with the scalar loop's
candidates, IEEE operations and tie rule, so every report is the loop's
bit for bit.  Other groups, and one player's search, run the loop,
which is faster there: ``scripts/crossover.py`` (in-process, shared
2-vCPU VM) puts both groups of a closed-form profile at 2.1x the loop's
time at 10 players a group, even between 20 (1.1-1.2x) and 25 (0.93x)
and 0.19x at 200, and a mixed group searched alone even between 40
(1.1-1.3x) and 60 (0.94-0.97x).
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import sub

import numpy as np

from .best_response import _stationary
from .csf import _payoff_at, p1_values, win_probability_short
from .model import (
    ContestError,
    ContestSpec,
    PlayerId,
    StrategyProfile,
    _check_shape,
    _group_z,
    valuation,
)

FIXED_POINT_TOL = 1e-9
CONVERGENCE_TOL = 1e-8
CYCLE_TOL = 1e-6
# z_minus + x strays from the rounded group sum by at most about one ulp of
# the group's gross effort per nonzero effort in it (adding 0.0 is exact),
# plus a few for the residual and the move.  Scores use z_minus + x only
# where |z_other| exceeds that by ROUNDING_BAND, keeping their error below
# about |v| * 2**-44.
ROUNDING_BAND = 2.0**44
# Whole groups of at least this many players outside the rounding band are
# searched on arrays; the scalar loop is faster below it (inside the measured
# crossover, see the module docstring).
ARRAY_MIN_PLAYERS = 30
# Below this, the group's gross effort plus a move (theta times it for y)
# keeps every sum the search takes finite; above it ``_edge`` checks them.
# A y move is held to min(1, theta) times it: for theta < 1 the plain sum
# of the y column, up to gross / theta, must stay finite too.
SUM_EDGE = 2.0**1023


class ClassUnsatisfiable(ContestError):
    """The spec cannot realize the requested forbidden class."""


class RefutationFailed(ContestError):
    """A generated forbidden-class profile admitted no improving
    deviation.  Every class carries a constructive counter-move, so
    this indicates an implementation bug, not an open question."""


@dataclass(frozen=True)
class Deviation:
    """Best unilateral move for one player: the exact maximizer, or the
    limit point just past the kink where the supremum is not attained.
    ``improvement`` is the exact payoff gain, recomputed through the
    payoff function, and 0.0 when staying put is best.  Rows of idle
    players, staying at (+0.0, +0.0), are shared immutable values."""

    player: PlayerId
    new_x: float
    new_y: float
    improvement: float


@dataclass(frozen=True)
class VerificationReport:
    """``candidate_count`` is the number of points scored over all
    players' searches, at most five per player."""

    is_epsilon_nash: bool
    epsilon: float
    deviations: tuple[Deviation, ...]
    candidate_count: int

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "is_epsilon_nash": self.is_epsilon_nash,
            "players": [
                {
                    "group": d.player.group,
                    "index": d.player.index,
                    "best_improvement": d.improvement,
                    "deviation": {"x": d.new_x, "y": d.new_y},
                }
                for d in self.deviations
            ],
        }


class ForbiddenClass(enum.Enum):
    OPPOSITE_SIGNS = "OppositeSigns"
    SOME_ZERO_Z = "SomeZeroZ"
    STRADDLE_OR_WRONG_SIGN = "StraddleOrWrongSign"
    FREE_RIDER_VIOLATION = "FreeRiderViolation"


@dataclass(frozen=True)
class Refutation:
    """One sampled forbidden profile together with the strictly
    improving deviation that rules it out."""

    profile: StrategyProfile
    deviation: Deviation


class DynamicsStatus(enum.Enum):
    CONVERGED = "Converged"
    CYCLING = "Cycling"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of ``best_response_dynamics``.

    ``status``: Converged, Cycling or MaxIters.
    ``profile``: the last profile reached.
    ``iterations``: the iterations run, each updating every player once.
    ``period``: for Cycling only, the number of iterations since the
    earlier profile that the last one recurred to (at least 2); None
    otherwise.
    ``last_delta``: the last iteration's step, the largest change of any
    one effort between the last two profiles.
    """

    status: DynamicsStatus
    profile: StrategyProfile
    iterations: int
    period: int | None
    last_delta: float


def default_epsilon(spec: ContestSpec) -> float:
    """Scale-aware certification slack: payoffs are linear in the
    valuations, so the tolerance follows their magnitude."""
    return 1e-6 * spec.max_abs_valuation()


def _on_axis(v: float, e: float) -> tuple[float, float]:
    """(x, y) of effort e on the axis of a player valued v: x if v > 0, else y."""
    return (e, 0.0) if v > 0 else (0.0, e)


def _busy(x: float, y: float) -> bool:
    """Whether (x, y) is any effort but (+0.0, +0.0), -0.0 included."""
    return bool(x or y) or math.copysign(1.0, x) < 0 or math.copysign(1.0, y) < 0


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


def _edge(theta, columns, k, v, z_minus, e):
    """The largest effort in [0, e] on player k's axis at which both group
    sums the search takes, z_minus +- effort and ``_moved_z``, are finite.
    Efforts are nonnegative, so both sums are monotone in the effort and
    finite at 0: a bisection over the floats' bit patterns finds it."""
    def finite(f):
        x, y = _on_axis(v, f)
        z, moved = z_minus + x - theta * y, _moved_z(theta, columns, k, x, y)
        return math.isfinite(z) and math.isfinite(moved)

    if finite(e):
        return e
    lo, hi = 0, int(np.float64(e).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if finite(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


# Rows of players staying at (+0.0, +0.0), one shared row each.  Every other
# row takes its player's id from the idle row at its position.  An entry is as
# large as its group; callers mostly repeat one or two group sizes.
@lru_cache(maxsize=16)
def _idle_rows(group: int, size: int) -> tuple[Deviation, ...]:
    return tuple(Deviation(PlayerId(group, k), 0.0, 0.0, 0.0) for k in range(1, size + 1))


def _search_array(theta, parts):
    """The scalar loop's exact-mode search of whole groups, stacked as the
    columns of float64 arrays, with the same candidates, cut-backs and
    IEEE operations.  Each part is a group's (valuations, x, y) rows, its
    columns, z, z_other, p_now, gross effort and the busy and picks lists
    that the search extends, as the scalar loop does.  Returns the number
    of points scored."""
    sizes = [read.shape[1] for read, *_ in parts]
    starts = [0, *accumulate(sizes)]
    v, cx, cy = np.concatenate([read for read, *_ in parts], axis=1)
    z, z_other, p_now, own_gross = np.repeat(np.array([p[2:6] for p in parts]).T, sizes, axis=1)
    m = z - (cx - theta * cy)  # the residuals, as the scalar loop takes them
    pos = v > 0
    moves = np.zeros((3, len(v)))  # rows: the candidates 0, the kink, the stationary point
    kink, stat = moves[1], moves[2]
    with np.errstate(all="ignore"):
        np.maximum(0.0, np.where(pos, -m, m / theta), out=kink)
        # z_other != 0 outside the rounding band, so in each group one sign
        # class has a concave piece: builders against a building rival,
        # saboteurs against a sabotaging one.  Scaled as in ``_stationary``,
        # with c = 1 or theta and s = +-1 by the valuation's sign, it is each
        # rule's peak bit for bit, since x - (-y) is x + y exactly.
        has = pos == (z_other > 0)
        vs, ms, zs = v[has], m[has], z_other[has]
        e = np.frexp(np.maximum(np.maximum(np.abs(vs), np.abs(ms)), np.abs(zs)))[1]
        v1, m1, o1 = np.ldexp(vs, -e), np.ldexp(ms, -e), np.ldexp(zs, -e)
        c, s = np.where(pos[has], 1.0, [[theta], [-1.0]])
        peak = np.maximum(0.0, (np.sqrt(c * v1 * o1) - s * o1 - s * m1) / c)
        stat[has] = np.ldexp(peak, e)
        if not (v1.all() and o1.all()):  # the common scaling underflows
            for i in np.flatnonzero(has)[(v1 == 0) | (o1 == 0)].tolist():
                stat[i] = _stationary(float(v[i]), theta, float(m[i]), float(z_other[i]))
        stat[stat == kink] = 0.0  # a stationary point at the kink is scored once
        ok = moves[1:] > 0  # the kinks and stationary points that are candidates
        y_edge = min(1.0, theta) * SUM_EDGE
        if not max(p[5] for p in parts) + max(1.0, theta) * moves.max() <= y_edge:
            edge = np.where(pos, SUM_EDGE, y_edge)
            far = ok & ~(own_gross + np.where(pos, 1.0, theta) * moves[1:] <= edge)
            for r, i in np.argwhere(far).tolist():
                j = bisect_right(starts, i) - 1  # column i is player i - starts[j] + 1 of part j
                moves[r + 1, i] = _edge(theta, parts[j][1], i - starts[j] + 1,
                                        float(v[i]), float(m[i]), float(moves[r + 1, i]))
        # Row 0 scores the current effort, rows 1-3 the candidates.
        score = np.empty((4, len(v)))
        score[0] = v * p_now - cx - cy
        z_moved = m + np.where(pos, 1.0, -theta) * moves
        np.subtract(v * p1_values(z_moved, z_other), moves, out=score[1:])
    np.copyto(score[2:], -np.inf, where=~ok)
    # No score is nan: the efforts and, once ``_edge`` has run, the moved
    # group sums are finite, so each score is finite or -inf.  argmax then
    # takes the first maximum, which is the scalar loop's strict ``>`` in
    # scoring order: ties keep the player at its current effort.
    best = score.argmax(axis=0)
    took = np.flatnonzero(best)
    # +0.0 is the only float whose bits are all zero.
    busy = np.flatnonzero(cx.view(np.int64) | cy.view(np.int64))
    t, b = took.searchsorted(starts).tolist(), busy.searchsorted(starts).tolist()
    picks = list(zip(took.tolist(), moves[best[took] - 1, took].tolist()))
    busy = busy.tolist()
    for j, (*_, busy_j, picks_j) in enumerate(parts):  # at each part's own positions
        busy_j += [i - starts[j] for i in busy[b[j]:b[j + 1]]]
        picks_j += [(i - starts[j], e) for i, e in picks[t[j]:t[j + 1]]]
    return 2 * len(v) + int(np.count_nonzero(ok))


def _gain(theta, group, v, columns, k, z, z_other, p_now, e):
    """Player k's move to effort e on its axis as (x, y, gain) if it gains,
    else None: the payoff as ``_payoff_at`` takes it at the group sum with
    the move swapped in (``_moved_z``), less the current payoff at the
    group's odds.  A move to the current effort gains nothing."""
    x, y = columns[0][k - 1], columns[1][k - 1]
    if (move := _on_axis(v, e)) == (x, y):
        return None
    moved = _moved_z(theta, columns, k, *move)
    z1, z2 = (moved, z_other) if group == 1 else (z_other, moved)
    p_own = p_now if group == 1 else 1.0 - win_probability_short(z_other, z)
    gain = _payoff_at(v, group, z1, z2, *move) - (v * p_own - x - y)
    return (*move, gain) if gain > 0.0 else None


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


def _search_player(theta, group, v, columns, k, own, z_other, p_now):
    """The scalar search of player k of ``group``, valued v, whose efforts
    are the k-th of ``columns``, from its group's ``_group_values`` (own),
    z_other and the odds win_probability_short(z, z_other).  Returns the
    number of points scored and the best move as ``_gain`` gives it."""
    (z, gross, band), x, y = own, columns[0][k - 1], columns[1][k - 1]
    z_minus = z - (x - theta * y)
    exact = abs(z_other) > band
    # Candidate efforts on the valuation's axis.
    kink = max(0.0, -z_minus) if v > 0 else max(0.0, z_minus / theta)
    moves = [0.0]
    for e in (kink, _stationary(v, theta, z_minus, z_other)):
        if e > 0 and e not in moves:
            moves.append(e)
    if not exact:
        # The limit point: step past the kink until the rounded group
        # sum is past 0, unless the kink is out of the float range.
        d = math.ulp(max(abs(v), kink))
        while math.isfinite(kink + d):
            past = _moved_z(theta, columns, k, *_on_axis(v, kink + d))
            if (past > 0) if v > 0 else (past < 0):
                moves.append(kink + d)
                break
            d *= 2.0
    edge = SUM_EDGE if v > 0 else min(1.0, theta) * SUM_EDGE
    for j, e in enumerate(moves):
        if not gross + (e if v > 0 else theta * e) <= edge:
            moves[j] = _edge(theta, columns, k, v, z_minus, e)
    # The current effort is scored first, so ties keep the player put.
    best, best_value = None, v * p_now - x - y
    for e in moves:
        if exact:
            z_e = z_minus + e if v > 0 else z_minus - theta * e
        else:
            z_e = _moved_z(theta, columns, k, *_on_axis(v, e))
        value = v * win_probability_short(z_e, z_other) - e
        if value > best_value:
            best, best_value = e, value
    move = None if best is None else _gain(theta, group, v, columns, k, z, z_other, p_now, best)
    return 1 + len(moves), move


def _search_moves(spec: ContestSpec, xs, ys, groups):
    """The pick layer of a profile's search, over its columns ``xs`` and
    ``ys`` (per group, any sequences of floats), of the whole groups in
    ``groups``.  Returns per group the (position, x, y, gain) of each
    player whose best move gains and the positions of the busy players
    (an effort other than +0.0, -0.0 included), and the number of points
    scored.  Group values come from ``_group_values``, so each z is
    ``effective_efforts``' bit for bit.  Every group of
    ``ARRAY_MIN_PLAYERS`` or more outside the rounding band goes into one
    ``_search_array`` call, whose picks ``_gain`` turns into moves; the
    players of other groups go to ``_search_player`` one by one."""
    theta = spec.theta
    values = [_group_values(theta, gx, gy) for gx, gy in zip(xs, ys)]
    found, wide, later, count = [], [], [], 0
    for group in groups:
        valuations = spec.group(group).valuations
        columns = gx, gy = xs[group - 1], ys[group - 1]
        own, z_other = values[group - 1], values[2 - group][0]
        z, gross, band = own
        p_now = win_probability_short(z, z_other)
        busy, picks = [], []
        found.append((picks, busy))
        if abs(z_other) > band and (n := len(gx)) >= ARRAY_MIN_PLAYERS:
            # ``struct.pack`` reads tuples of floats about 3x faster than np.array.
            rows = np.frombuffer(struct.pack(f"{3 * n}d", *valuations, *gx, *gy)).reshape(3, n)
            wide.append((rows, columns, z, z_other, p_now, gross, busy, picks))
            later.append((group, valuations, columns, z, z_other, p_now, picks))
            continue
        for i, v in enumerate(valuations):
            if _busy(gx[i], gy[i]):
                busy.append(i)
            scored, move = _search_player(theta, group, v, columns, i + 1, own, z_other, p_now)
            count += scored
            if move:
                picks.append((i, *move))
    if wide:
        count += _search_array(theta, wide)
        for group, valuations, columns, z, z_other, p_now, picks in later:
            moves = [(i, _gain(theta, group, valuations[i], columns, i + 1, z, z_other, p_now, e))
                     for i, e in picks]
            picks[:] = [(i, *move) for i, move in moves if move]
    return found, count


def _search_rows(profile: StrategyProfile, found) -> list[Deviation]:
    """The row layer over ``_search_moves``' result ``found`` for both
    groups: exact best deviations of every player.  Idle players take the
    shared rows, busy ones a row at their effort, gaining ones a row at
    their move."""
    rows = []
    for group, (gains, busy) in enumerate(found, start=1):
        xs, ys = profile.xs[group - 1], profile.ys[group - 1]
        idle = _idle_rows(group, len(xs))
        deviations = list(idle)
        for i, x, y, gain in gains:
            deviations[i] = Deviation(idle[i].player, x, y, gain)
        for i in busy:
            if deviations[i] is idle[i]:  # not moved by a gaining pick
                deviations[i] = Deviation(idle[i].player, xs[i], ys[i], 0.0)
        rows += deviations
    return rows


def best_deviation(
    spec: ContestSpec, profile: StrategyProfile, player: PlayerId
) -> Deviation:
    """Search one player's deviations, holding all others fixed."""
    _check_shape(spec, profile)
    v = valuation(spec, player)  # raises UnknownPlayer
    theta, group, k = spec.theta, player.group, player.index
    own, other = ((profile.xs[g], profile.ys[g]) for g in (group - 1, 2 - group))
    values, z_other = _group_values(theta, *own), _group_z(theta, *other)
    _, move = _search_player(theta, group, v, own, k, values, z_other,
                             win_probability_short(values[0], z_other))
    row = _idle_rows(group, len(own[0]))[k - 1]
    x, y, gain = move or (own[0][k - 1], own[1][k - 1], 0.0)
    return Deviation(row.player, x, y, gain) if move or _busy(x, y) else row


def is_epsilon_nash(
    spec: ContestSpec,
    profile: StrategyProfile,
    epsilon: float | None = None,
) -> VerificationReport:
    """Search every player's best deviation, as best_deviation does;
    certify the profile as an epsilon-Nash equilibrium iff nobody
    improves by more than epsilon.

    epsilon defaults to 1e-6 times the largest valuation magnitude and
    must be finite and positive.
    """
    if epsilon is None:
        epsilon = default_epsilon(spec)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ContestError(f"epsilon must be finite and positive, got {epsilon}")
    _check_shape(spec, profile)
    found, count = _search_moves(spec, profile.xs, profile.ys, (1, 2))
    # Only a gaining player's row improves on 0.0, and epsilon > 0.
    certified = all(gain <= epsilon for gains, _ in found for *_, gain in gains)
    deviations = _search_rows(profile, found)
    return VerificationReport(certified, epsilon, tuple(deviations), count)


# --- forbidden-class sampling -------------------------------------------


def _log_uniform(rng: np.random.Generator, logs) -> float:
    """An effort drawn log-uniformly between bounds whose logs are ``logs``,
    by ``rng.uniform``'s own arithmetic, low + (high - low) * u."""
    log_lo, log_hi = logs
    return float(np.exp(log_lo + (log_hi - log_lo) * rng.random()))


def _draw(rng: np.random.Generator, items):
    """One of ``items``, uniformly: the draw ``rng.choice`` makes, from the
    same stream, without turning ``items`` into an array."""
    return items[int(rng.integers(len(items)))]


def _generate_forbidden(
    spec: ContestSpec, forbidden: ForbiddenClass, rng: np.random.Generator, logs,
    ids, positive, negative,
) -> tuple[StrategyProfile, list[PlayerId]]:
    """Draw one profile inside the forbidden class; also return the
    players that the class's counter-argument targets, checked first.
    ``ids``, ``positive`` and ``negative`` map each group to its players,
    its positive ones and its negative ones, in valuation order."""
    profile = StrategyProfile.zeros(spec)
    theta = spec.theta

    if forbidden is ForbiddenClass.OPPOSITE_SIGNS:
        i = int(rng.integers(1, 3))
        j = 3 - i
        builder = _draw(rng, positive[i])
        saboteur = _draw(rng, negative[j])
        profile = profile.replace(builder, _log_uniform(rng, logs), 0.0)
        profile = profile.replace(saboteur, 0.0, _log_uniform(rng, logs))
        return profile, [builder, saboteur]

    if forbidden is ForbiddenClass.SOME_ZERO_Z:
        i = int(rng.integers(1, 3))
        j = 3 - i
        suspects: list[PlayerId] = []
        if rng.random() < 0.5:
            # Zero by offset rather than idleness: top player builds,
            # bottom player sabotages it away exactly.
            t = _log_uniform(rng, logs)
            profile = profile.replace(ids[i][0], theta * t, 0.0)
            profile = profile.replace(ids[i][-1], 0.0, t)
        sign = _draw(rng, ("positive", "zero", "negative"))
        if sign == "positive":
            active = ids[j][0]
            profile = profile.replace(active, _log_uniform(rng, logs), 0.0)
            suspects = [active]
        elif sign == "negative":
            active = ids[j][-1]
            profile = profile.replace(active, 0.0, _log_uniform(rng, logs))
            suspects = [active]
        return profile, suspects

    if forbidden is ForbiddenClass.STRADDLE_OR_WRONG_SIGN:
        i = int(rng.integers(1, 3))
        kind = _draw(rng, ("sabotaging_winner", "building_loser", "straddler"))
        if kind == "sabotaging_winner":
            culprit = _draw(rng, positive[i])
            profile = profile.replace(culprit, 0.0, _log_uniform(rng, logs))
        elif kind == "building_loser":
            culprit = _draw(rng, negative[i])
            profile = profile.replace(culprit, _log_uniform(rng, logs), 0.0)
        else:
            culprit = _draw(rng, positive[i])
            profile = profile.replace(
                culprit, _log_uniform(rng, logs), _log_uniform(rng, logs)
            )
        # Background activity in the other group keeps the sample generic.
        j = 3 - i
        if rng.random() < 0.5:
            profile = profile.replace(ids[j][0], _log_uniform(rng, logs), 0.0)
        return profile, [culprit]

    # FreeRiderViolation: a non-extreme player is active and her own
    # first-order condition holds exactly, so the group's extreme player
    # strictly gains by joining in - the free-riding argument's target.
    builder_violators = positive[1][1:] + positive[2][1:]  # non-top positive players
    saboteur_violators = negative[1][:-1] + negative[2][:-1]  # non-bottom negative players
    if not builder_violators and not saboteur_violators:
        raise ClassUnsatisfiable(
            "free riding needs a group with two players of the same sign"
        )
    use_builders = bool(builder_violators) and (
        not saboteur_violators or rng.random() < 0.5
    )
    violator = _draw(rng, builder_violators if use_builders else saboteur_violators)
    g = violator.group
    j = 3 - g
    v = valuation(spec, violator)
    if use_builders:
        z_rival = rng.uniform(0.15, 0.5) * v
        z_own = _stationary(v, theta, 0.0, z_rival)  # violator's stationary point
        profile = profile.replace(violator, z_own, 0.0)
        profile = profile.replace(ids[j][0], z_rival, 0.0)
        target = ids[g][0]
    else:
        z_rival = rng.uniform(0.15, 0.5) * theta * abs(v)
        profile = profile.replace(ids[j][-1], 0.0, z_rival / theta)
        y_own = _stationary(v, theta, 0.0, -z_rival)
        profile = profile.replace(violator, 0.0, y_own)
        target = ids[g][-1]
    return profile, [target]


def refute_class(
    spec: ContestSpec,
    forbidden: ForbiddenClass,
    samples: int,
    seed: int,
) -> list[Refutation]:
    """Sample ``samples`` profiles inside a forbidden class and refute
    each with a strictly improving deviation (threshold 1e-9 times the
    largest valuation magnitude).  Fully reproducible from the seed.

    Each sample searches the players its class's argument names first,
    then the rest of the roster in player order: the threshold is
    absolute, so a suspect valued far below the largest valuation can
    gain less than it while another player gains more."""
    if samples < 1:
        raise ContestError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    s = spec.max_abs_valuation()
    tol, logs = 1e-9 * s, (np.log(s / 8.0), np.log(s / 2.0))
    ids = {g: [PlayerId(g, k) for k in range(1, n + 1)] for g, n in zip((1, 2), spec.sizes())}
    positive = {g: [p for p in ids[g] if valuation(spec, p) > 0] for g in ids}
    negative = {g: [p for p in ids[g] if valuation(spec, p) < 0] for g in ids}
    roster = ids[1] + ids[2]
    records = []
    for _ in range(samples):
        profile, suspects = _generate_forbidden(spec, forbidden, rng, logs, ids, positive, negative)
        refuting = None
        for p in chain(suspects, (p for p in roster if p not in suspects)):
            d = best_deviation(spec, profile, p)
            if d.improvement > tol:
                refuting = d
                break
        if refuting is None:
            raise RefutationFailed(
                f"no improving deviation found for a {forbidden.value} sample"
            )
        records.append(Refutation(profile, refuting))
    return records


# --- best-response dynamics ----------------------------------------------


def best_response_dynamics(
    spec: ContestSpec,
    initial: StrategyProfile,
    max_iters: int,
    order: str = "round_robin",
) -> DynamicsResult:
    """Iterate best deviations from ``initial``.

    Each iteration updates every player once: ``round_robin`` applies
    moves immediately in player order, ``simultaneous`` computes all
    moves against the same profile and applies them together.  A
    profile where no player can improve by more than 1e-9 is a fixed
    point: the iteration stops as Converged once it reaches one, with
    the two successive profiles also required to agree within 1e-8 in
    the max norm.  Both conditions matter - under simultaneous play,
    near-standstill profiles can still hide large improvements that the
    players keep canceling for each other, and those must not count as
    converged.  Cycling means the latest profile recurred (within 1e-6)
    with period >= 2.
    """
    if max_iters < 1:
        raise ContestError(f"max_iters must be >= 1, got {max_iters}")
    if order not in ("round_robin", "simultaneous"):
        raise ContestError(f"order must be round_robin or simultaneous, got {order!r}")
    _check_shape(spec, initial)
    theta = spec.theta
    roster = [(g, k, v) for g in (0, 1) for k, v in enumerate(spec.group(g + 1).valuations, 1)]
    # The live columns: each move is written into its player's entries.
    xs, ys = [list(c) for c in initial.xs], [list(c) for c in initial.ys]
    columns = tuple(zip(xs, ys))
    # Each group's values, taken again after each of its round-robin moves,
    # so they are current at the start of every iteration.
    values = [_group_values(theta, *c) for c in columns]
    # Each profile as a row of its columns, keyed by its largest effort.
    row = (*xs[0], *xs[1], *ys[0], *ys[1])
    history = [(max(row), row)]
    status, period = DynamicsStatus.MAX_ITERS, None

    for iteration in range(1, max_iters + 1):
        gain = 0.0
        if order == "round_robin":
            for g, k, v in roster:
                own, z_other = values[g], values[1 - g][0]
                _, move = _search_player(theta, g + 1, v, columns[g], k, own, z_other,
                                         win_probability_short(own[0], z_other))
                if move:
                    xs[g][k - 1], ys[g][k - 1], d = move
                    gain = max(gain, d)
                    values[g] = _group_values(theta, *columns[g])
        else:
            # Every search reads the columns before any move is written.
            found, _ = _search_moves(spec, xs, ys, (1, 2))
            gain = max((d for gains, _ in found for *_, d in gains), default=0.0)
            if gain > FIXED_POINT_TOL:
                for g, (gains, _) in enumerate(found):
                    for i, x, y, _ in gains:
                        xs[g][i], ys[g][i] = x, y

        row = (*xs[0], *xs[1], *ys[0], *ys[1])
        top, step = max(row), max(map(abs, map(sub, history[-1][1], row)))
        if gain <= FIXED_POINT_TOL and step <= CONVERGENCE_TOL:
            status = DynamicsStatus.CONVERGED
            break
        # The newest earlier profile within CYCLE_TOL, the previous one aside.
        # Max is 1-Lipschitz in the max norm and rounding is monotone, so only
        # rows whose largest effort is within CYCLE_TOL are compared in full.
        period = next((back for back, (top_t, row_t) in enumerate(reversed(history[:-1]), 2)
                       if abs(top_t - top) <= CYCLE_TOL
                       and max(map(abs, map(sub, row_t, row))) <= CYCLE_TOL), None)
        if period:
            status = DynamicsStatus.CYCLING
            break
        history.append((top, row))
    profile = StrategyProfile(tuple(map(tuple, xs)), tuple(map(tuple, ys)))
    return DynamicsResult(status, profile, iteration, period, float(step))
