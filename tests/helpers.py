"""Shared test utilities: spec builders and the player roster and spec
document that only tests need (``players``, ``spec_to_dict``), seeded
random spec generation, hypothesis strategies, a per-player view of a
profile (the library's ``StrategyProfile`` holds only its x and y
columns), a per-player residual oracle (the library's
``EffectiveEffort`` holds only the two group sums), the five-case
contest success function that the one-line form must match bit for
bit, independent grid-search oracles for the best-response rule and
for a player's best deviation, the player-by-player deviation search
that the group-at-once one must match bit for bit, the row-by-row
dynamics loop that the move-by-move one must match bit for bit, and the
point-by-point region sweep that the array-backed one must match.

The grid oracles maximize the payoff through the five-case success
function by brute force on a dense effort grid (augmented with the exact
piece endpoints, where the payoff has a kink) and never call the closed
forms they check.  The regime formulas ``objective_*`` stay for the
curvature tests, on draws inside their regime.
"""

from __future__ import annotations

import math
import struct
from itertools import chain
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest.csf import payoff, win_probability_short
from groupcontest.model import effective_efforts, valuation
from groupcontest.verify import (
    CONVERGENCE_TOL,
    CYCLE_TOL,
    FIXED_POINT_TOL,
    ROUNDING_BAND,
    Deviation,
    DynamicsStatus,
)


def make_spec(vals1, vals2, theta) -> gc.ContestSpec:
    return gc.validate_spec(
        gc.ContestSpec(
            gc.GroupSpec(tuple(float(v) for v in vals1)),
            gc.GroupSpec(tuple(float(v) for v in vals2)),
            float(theta),
        )
    )


def players(spec: gc.ContestSpec):
    """Iterate players group 1 then group 2, in valuation order."""
    for i in (1, 2):
        for k in range(1, spec.group(i).size + 1):
            yield gc.PlayerId(i, k)


def spec_to_dict(spec: gc.ContestSpec) -> dict:
    """The spec's JSON document, as ``spec_from_dict`` reads it."""
    return {
        "theta": spec.theta,
        "groups": [
            {"valuations": list(spec.group1.valuations)},
            {"valuations": list(spec.group2.valuations)},
        ],
    }


def random_spec(
    rng: np.random.Generator,
    theta: float = 1.0,
    min_size: int = 2,
    max_size: int = 4,
    vmin: float = 0.1,
    vmax: float = 10.0,
) -> gc.ContestSpec:
    """Random valid spec: each group gets at least one positive and one
    negative valuation, magnitudes log-uniform, sorted descending."""

    def group() -> tuple[float, ...]:
        n = int(rng.integers(min_size, max_size + 1))
        n_pos = int(rng.integers(1, n))
        n_neg = n - n_pos
        pos = np.sort(np.exp(rng.uniform(np.log(vmin), np.log(vmax), n_pos)))[::-1]
        neg = -np.sort(np.exp(rng.uniform(np.log(vmin), np.log(vmax), n_neg)))
        # Widen the extremes a bit so the strict end inequalities hold
        # with a margin even if two draws land close together.
        pos[0] *= 1.05
        neg[-1] *= 1.05
        return tuple(float(v) for v in pos) + tuple(float(v) for v in neg)

    return make_spec(group(), group(), theta)


def random_profile(
    rng: np.random.Generator, spec: gc.ContestSpec, scale: float = 1.0
) -> gc.StrategyProfile:
    profile = gc.StrategyProfile.zeros(spec)
    for p in players(spec):
        profile = profile.replace(
            p, float(rng.uniform(0, scale)), float(rng.uniform(0, scale))
        )
    return profile


def profile_distance(a: gc.StrategyProfile, b: gc.StrategyProfile) -> float:
    return max(
        max(abs(ea.x - eb.x), abs(ea.y - eb.y))
        for ga, gb in zip(efforts(a), efforts(b))
        for ea, eb in zip(ga, gb)
    )


# --- per-player view of a profile ---------------------------------------------


class Effort(NamedTuple):
    """One player's effort pair: constructive x and sabotage y."""

    x: float
    y: float


def effort(profile, player) -> Effort:
    """The player's pair, read from the profile's columns."""
    g, k = profile._position(player)  # raises UnknownPlayer
    return Effort(profile.xs[g][k], profile.ys[g][k])


def efforts(profile) -> tuple[tuple[Effort, ...], tuple[Effort, ...]]:
    """One ``Effort`` a player, one tuple a group."""
    return tuple(tuple(map(Effort, gx, gy)) for gx, gy in zip(profile.xs, profile.ys))


def profile_of(rows) -> gc.StrategyProfile:
    """The profile of one row of (x, y) pairs a group, ``Effort`` values
    or plain pairs."""
    return gc.StrategyProfile(
        tuple(tuple(x for x, _ in g) for g in rows), tuple(tuple(y for _, y in g) for g in rows)
    )


# --- residual oracle ---------------------------------------------------------


class Residual(NamedTuple):
    """One player's view of the group sums: her group's effective effort
    ``z``, the rest of her group's ``z_minus`` = z - (x - theta*y), and
    the rival group's ``z_other``."""

    z: float
    z_minus: float
    z_other: float


def residual(spec, profile, player) -> Residual:
    """The player's ``Residual``, from the sums ``effective_efforts`` takes."""
    eff = effective_efforts(spec, profile)
    z, z_other = (eff.z1, eff.z2) if player.group == 1 else (eff.z2, eff.z1)
    e = effort(profile, player)
    return Residual(z, z - (e.x - spec.theta * e.y), z_other)


# --- five-case contest success function ----------------------------------


def win_probability_five(z1: float, z2: float) -> float:
    """Group 1's winning probability by the five sign cases, as defined."""
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise gc.NonFiniteInput(f"effective efforts must be finite, got ({z1}, {z2})")
    if z1 > 0 and z2 >= 0:
        return z1 / (z1 + z2)
    if z1 >= 0 and z2 < 0:
        return 1.0
    if z1 <= 0 and z2 > 0:
        return 0.0
    if z1 < 0 and z2 <= 0:
        return abs(z2) / (abs(z1) + abs(z2))
    return 0.5  # z1 == z2 == 0


def _payoff(spec, profile, player, eff) -> float:
    """Payoff v * p_own - x - y of one player given the profile's
    effective efforts ``eff``, through the five-case form."""
    v = valuation(spec, player)
    e = effort(profile, player)
    p1 = win_probability_five(eff.z1, eff.z2)
    return v * (p1 if player.group == 1 else 1.0 - p1) - e.x - e.y


# --- hypothesis strategies -------------------------------------------------


@st.composite
def group_valuations(draw, max_size: int = 4):
    n_pos = draw(st.integers(1, max_size - 1))
    n_neg = draw(st.integers(1, max_size - n_pos))
    magnitudes = st.floats(0.01, 100.0)
    pos = draw(st.lists(magnitudes, min_size=n_pos, max_size=n_pos, unique=True))
    neg = draw(st.lists(magnitudes, min_size=n_neg, max_size=n_neg, unique=True))
    return tuple(sorted(pos, reverse=True)) + tuple(-v for v in sorted(neg))


@st.composite
def specs(draw, theta=st.floats(0.01, 100.0)):
    return make_spec(draw(group_valuations()), draw(group_valuations()), draw(theta))


# Efforts stay clear of the subnormal float range so that exact
# power-of-two scaling laws hold for them.
efforts_st = st.one_of(st.just(0.0), st.floats(1e-200, 50.0))


@st.composite
def specs_with_profiles(draw, effort=efforts_st):
    spec = draw(specs())
    profile = gc.StrategyProfile.zeros(spec)
    for p in players(spec):
        profile = profile.replace(p, draw(effort), draw(effort))
    return spec, profile


# Dyadic rationals: every value, product, and small sum is exactly
# representable, so identities that hold in exact arithmetic hold
# bit-for-bit in floats too.
dyadic_efforts = st.integers(0, 2**20).map(lambda n: n / 1024.0)
dyadic_thetas = st.integers(1, 2**10).map(lambda n: n / 64.0)


# --- independent grid oracles ---------------------------------------------


def grid_argmax(objective, hi: float, step: float = 1e-4, extra=()) -> tuple[float, float]:
    """Maximize ``objective`` over [0, hi] by brute force; ``extra``
    adds exact kink locations to the sampled grid."""
    xs = np.arange(0.0, hi + step, step)
    if len(extra):
        xs = np.concatenate([xs, np.asarray(extra, dtype=float)])
    vals = objective(xs)
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def objective_positive_x(v, z_minus, z_other):
    def f(xs):
        zi = z_minus + xs
        return v * zi / (zi + z_other) - xs

    return f


def objective_positive_y(theta, v, z_minus, z_other):
    def f(ys):
        zi = z_minus - theta * ys
        return np.where(zi > 0, v * zi / (zi + z_other), 0.0) - ys

    return f


def objective_negative_y(theta, v, z_minus, z_other):
    def f(ys):
        zi = z_minus - theta * ys
        return v * (1.0 - zi / (zi + z_other)) - ys

    return f


def objective_negative_x(v, z_minus, z_other):
    def f(xs):
        zi = z_minus + xs
        return np.where(zi < 0, v * (1.0 - zi / (zi + z_other)), v) - xs

    return f


def objective_group(v, z_other):
    def f(zs):
        return v * zs / (zs + z_other) - zs

    return f


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_best_response_case(rng: np.random.Generator, op: str) -> dict:
    """Random parameters for one best-response rule, kept inside the
    rule's sign regime and away from poles of its objective."""
    mag = lambda: _log_uniform(rng, 0.05, 0.5)
    theta = float(rng.uniform(0.3, 1.5))
    if op == "positive_x":
        z_other = mag()
        return {
            "v": mag() * 4.0,
            "z_minus": float(rng.uniform(-0.4 * z_other, 0.4)),
            "z_other": z_other,
        }
    if op == "positive_y":
        return {"theta": theta, "v": -mag(), "z_minus": mag(), "z_other": mag()}
    if op == "negative_y":
        z_other = -mag()
        return {
            "theta": theta,
            "v": -mag(),
            "z_minus": float(rng.uniform(-0.3, 0.45 * abs(z_other))),
            "z_other": z_other,
        }
    if op == "negative_x":
        return {"v": mag() * 4.0, "z_minus": -mag(), "z_other": -mag()}
    if op == "group":
        return {"v": mag() * 4.0, "z_other": mag()}
    raise ValueError(op)


def payoff_on_axis(v, z_minus, z_other, theta=None):
    """The payoff v * p_own - e of efforts e on the valuation's axis (x
    for v > 0, y for v < 0), through the five-case success function."""
    slope = 1.0 if v > 0 else -theta

    def f(es):
        z1, z2 = np.broadcast_arrays(z_minus + slope * es, z_other)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_own = np.select(
                [(z1 > 0) & (z2 >= 0), (z1 >= 0) & (z2 < 0), (z1 <= 0) & (z2 > 0),
                 (z1 < 0) & (z2 <= 0)],
                [z1 / (z1 + z2), 1.0, 0.0, np.abs(z2) / (np.abs(z1) + np.abs(z2))],
                0.5,
            )
        return v * p_own - es

    return f


def oracle_for_case(op: str, params: dict) -> tuple[float, float, object]:
    """Grid-maximize the case's payoff: the five-case payoff on the axis
    for the best-response rule, the one-body objective for ``group``.
    Returns the oracle's best effort, its payoff, and the objective for
    re-evaluation."""
    span = 4.0 * sum(abs(x) for k, x in params.items() if k != "theta")
    f = objective_group(**params) if op == "group" else payoff_on_axis(**params)
    if op == "positive_y":
        extra = (params["z_minus"] / params["theta"],)
    elif op == "negative_x":
        extra = (abs(params["z_minus"]),)
    else:
        extra = ()
    effort, value = grid_argmax(f, span, extra=extra)
    return effort, value, f


def group_best_effective_effort(v: float, z_other: float) -> float:
    """Effective effort a group would pick against a positive rival
    effort z_other if it maximized v*z/(z + z_other) - z as one body
    with valuation v > 0.  Increasing in v, which is why only the
    highest-valuation member stays active in the no-sabotage outcome.
    """
    if v <= 0 or z_other <= 0:
        raise gc.DomainError(f"need v > 0 and z_other > 0, got v={v}, z_other={z_other}")
    return max(0.0, math.sqrt(v * z_other) - z_other)


def _axis_rule(p: dict) -> float:
    return gc.axis_best_response(p.get("theta"), p["v"], p["z_minus"], p["z_other"]).effort


# One rule answers every sign case; each case draws its own parameters.
CLOSED_FORMS = {
    "positive_x": _axis_rule,
    "positive_y": _axis_rule,
    "negative_y": _axis_rule,
    "negative_x": _axis_rule,
    "group": lambda p: group_best_effective_effort(p["v"], p["z_other"]),
}

BR_OPS = tuple(CLOSED_FORMS)


# --- dense deviation-search oracle ------------------------------------------

ORACLE_AXIS_POINTS = 2049
ORACLE_GUARD_POINTS = 33


def grid_deviation(spec, profile, player) -> tuple[float, float, float]:
    """Brute-force best deviation of one player: a dense grid along each
    effort axis plus a coarse two-axis grid, augmented with the current
    effort and the kinks where own-group effective effort crosses 0,
    each with its one-step neighbors.  Uses no closed-form best
    response.  Candidates are scored in bulk; the winner's improvement
    is recomputed exactly through the payoff function.  Returns
    (x, y, improvement), with improvement 0.0 when nothing beats the
    current effort."""
    v = gc.valuation(spec, player)
    theta = spec.theta
    _, z_minus, z_other = residual(spec, profile, player)
    current = effort(profile, player)
    reach = 4.0 * (spec.max_abs_valuation() + abs(z_minus) + abs(z_other))

    def axis(special, hi):
        step = hi / (ORACLE_AXIS_POINTS - 1)
        base = np.concatenate([np.linspace(0.0, hi, ORACLE_AXIS_POINTS), special])
        points = np.concatenate([base, base + step, base - step])
        return np.maximum(points[np.isfinite(points)], 0.0)

    xs = axis([current.x, -z_minus], reach)
    ys = axis([current.y, z_minus / theta], reach / min(theta, 1.0))
    guard = np.linspace(0.0, reach, ORACLE_GUARD_POINTS)
    gx, gy = (g.ravel() for g in np.meshgrid(guard, guard))
    cand_x = np.concatenate([xs, np.zeros_like(ys), gx])
    cand_y = np.concatenate([np.zeros_like(xs), ys, gy])
    values = v * gc.p1_values(z_minus + cand_x - theta * cand_y, z_other) - cand_x - cand_y
    i = int(np.argmax(values))
    x, y = float(cand_x[i]), float(cand_y[i])
    deviated = profile.replace(player, x, y)
    improvement = gc.payoff(spec, deviated, player) - gc.payoff(spec, profile, player)
    if improvement <= 0.0:
        return current.x, current.y, 0.0
    return x, y, improvement


# --- player-by-player deviation-search oracle --------------------------------
#
# The exact search as it ran one player at a time, kept verbatim: the
# group-at-once search must reproduce its deviations, candidate counts
# and verdicts bit for bit.


def _stationary(v: float, theta: float, z_minus: float, z_other: float) -> float:
    """The concave piece's peak on the player's axis, or 0 if there is
    none: sqrt(v*z_other) - z_other - z_minus for v > 0 and its mirror
    (sqrt(theta*|v|*|z_other|) - |z_other| + z_minus) / theta for v < 0,
    each clamped at 0.  Both are homogeneous of degree 1 in (v, z_minus,
    z_other), so they run on arguments scaled by a power of two to at
    most 1, where v*z_other cannot overflow or underflow, and scale back
    exactly."""
    e = math.frexp(max(abs(v), abs(z_minus), abs(z_other)))[1]
    v1, m1, o1 = (math.ldexp(t, -e) for t in (v, z_minus, z_other))
    if v > 0 and z_other > 0:
        effort = max(0.0, math.sqrt(v1 * o1) - o1 - m1)
    elif v < 0 and z_other < 0:
        effort = max(0.0, (math.sqrt(theta * abs(v1) * abs(o1)) - abs(o1) + m1) / theta)
    else:
        return 0.0
    try:
        return math.ldexp(effort, e)
    except OverflowError:  # beyond the float range: cut back below
        return math.inf


def _own_z(spec, profile, player, x, y) -> float:
    """Own-group effective effort after a move, rounded as in ``payoff``."""
    return residual(spec, profile.replace(player, x, y), player).z


def _largest_where(holds, e: float) -> float:
    """The largest float in [0, e] at which ``holds``, a predicate that is
    true at 0 and stays false once false, by bisection over the bit
    patterns of the nonnegative floats."""
    if holds(e):
        return e
    bits = lambda f: struct.unpack("<q", struct.pack("<d", f))[0]
    value = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
    lo, hi = 0, bits(e)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(value(mid)) else (lo, mid)
    return value(lo)


def scalar_search(spec, profile, player):
    """Exact best deviation of one player and the number of points
    scored."""
    v = valuation(spec, player)
    theta = spec.theta
    eff = effective_efforts(spec, profile)
    group = efforts(profile)[player.group - 1]
    # The group's gross effort and nonzero efforts bound the rounding in z.
    own_gross = sum(e.x + theta * e.y for e in group)
    terms = sum((e.x != 0) + (e.y != 0) for e in group)
    z, z_minus, z_other = residual(spec, profile, player)
    current = effort(profile, player)

    # The current effort is scored first, so ties keep the player put.
    best_x, best_y = current.x, current.y
    best_value = v * win_probability_short(z, z_other) - best_x - best_y

    move = (lambda e: (e, 0.0)) if v > 0 else (lambda e: (0.0, e))
    kink = max(0.0, -z_minus) if v > 0 else max(0.0, z_minus / theta)
    levels = [0.0]
    for e in (kink, _stationary(v, theta, z_minus, z_other)):
        if e > 0 and e not in levels:
            levels.append(e)
    exact = abs(z_other) > ROUNDING_BAND * (terms + 4) * math.ulp(own_gross)
    if not exact:
        # The limit point: step past the kink until the rounded group sum
        # is past 0, unless the kink is out of the float range.
        d = math.ulp(max(abs(v), kink))
        while math.isfinite(kink + d):
            z = _own_z(spec, profile, player, *move(kink + d))
            if (z > 0) if v > 0 else (z < 0):
                levels.append(kink + d)
                break
            d *= 2.0

    def sums_finite(e):
        x, y = move(e)
        return math.isfinite(z_minus + x - theta * y) and math.isfinite(
            _own_z(spec, profile, player, x, y)
        )

    # The payoff is undefined beyond the float range: each candidate is cut
    # back to the largest effort at which both group sums stay finite.
    moves = [move(_largest_where(sums_finite, e)) for e in levels]
    if exact:
        candidates = [(x, y, z_minus + x - theta * y) for x, y in moves]
    else:
        candidates = [(x, y, _own_z(spec, profile, player, x, y)) for x, y in moves]

    for x, y, z in candidates:
        value = v * win_probability_short(z, z_other) - x - y
        if value > best_value:
            best_x, best_y, best_value = x, y, value
    count = 1 + len(candidates)

    stay = Deviation(player, current.x, current.y, 0.0)
    if best_x == current.x and best_y == current.y:
        return stay, count
    deviated = profile.replace(player, best_x, best_y)
    improvement = payoff(spec, deviated, player) - _payoff(spec, profile, player, eff)
    if improvement <= 0.0:
        return stay, count
    return Deviation(player, best_x, best_y, improvement), count


def deviation_hex(d) -> str:
    """A deviation with every float written exactly."""
    return (
        f"{d.player.group}:{d.player.index}:{d.new_x.hex()}:{d.new_y.hex()}"
        f":{d.improvement.hex()}"
    )


# --- row-by-row dynamics oracle ---------------------------------------------


class ReferenceRun(NamedTuple):
    """What ``reference_dynamics`` returns: ``best_response_dynamics``'s
    fields plus every profile it passed through."""

    status: DynamicsStatus
    profile: gc.StrategyProfile
    iterations: int
    period: int | None
    last_delta: float
    trajectory: tuple[gc.StrategyProfile, ...]


def reference_dynamics(spec, initial, max_iters: int, order: str) -> ReferenceRun:
    """``best_response_dynamics`` as it was before it read moves from the
    search's pick layer: every search builds its report rows (one
    ``best_deviation`` a player in round-robin play, ``is_epsilon_nash``'s
    rows in simultaneous play) and the checks go through ``np.max``.  It
    keeps every profile, and takes ``last_delta`` from the last two, one
    Python float pair at a time."""
    roster = list(players(spec))
    current = initial
    trajectory = [initial]
    history = np.concatenate(initial.xs + initial.ys)[np.newaxis]
    status, period = DynamicsStatus.MAX_ITERS, None

    for iteration in range(1, max_iters + 1):
        gain = 0.0
        if order == "round_robin":
            for p in roster:
                d = gc.best_deviation(spec, current, p)
                gain = max(gain, d.improvement)
                if d.improvement > 0.0:
                    current = current.replace(p, d.new_x, d.new_y)
        else:
            moves = gc.is_epsilon_nash(spec, current).deviations
            gain = max(d.improvement for d in moves)
            if gain > FIXED_POINT_TOL:
                for d in moves:
                    if d.improvement > 0.0:
                        current = current.replace(d.player, d.new_x, d.new_y)

        trajectory.append(current)
        if iteration == len(history):
            history = np.concatenate((history, np.empty_like(history)))
        vec = np.concatenate(current.xs + current.ys, out=history[iteration])
        delta = float(np.max(np.abs(vec - history[iteration - 1])))
        if gain <= FIXED_POINT_TOL and delta <= CONVERGENCE_TOL:
            status = DynamicsStatus.CONVERGED
            break
        gaps = np.max(np.abs(history[: iteration - 1] - vec), axis=1)
        hits = np.nonzero(gaps <= CYCLE_TOL)[0]
        if hits.size:
            status, period = DynamicsStatus.CYCLING, iteration - int(hits[-1])
            break
    a, b = trajectory[-2], trajectory[-1]
    last_delta = max(
        abs(ea - eb) for ea, eb in zip(chain(*a.xs, *a.ys), chain(*b.xs, *b.ys))
    )
    return ReferenceRun(status, current, iteration, period, last_delta, tuple(trajectory))


# --- seeded profile corpus ---------------------------------------------------

PROFILE_KINDS = ("mixed", "sparse", "closed_form", "perturbed", "zeroed", "offset", "in_band")


def corpus_group(rng: np.random.Generator, n: int, scale: float) -> list[float]:
    """n valid valuations of magnitude 0.1 to 10 times ``scale``,
    sometimes with an interior tie."""
    n_pos = int(rng.integers(1, n))
    mags = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    vals = sorted(mags[:n_pos], reverse=True) + sorted(-mags[n_pos:], reverse=True)
    vals[0] *= 1.05
    vals[-1] *= 1.05
    if n >= 4 and rng.random() < 0.3:
        j = int(rng.integers(1, n - 2))
        vals[j + 1] = vals[j]
    return [float(v) * scale for v in vals]


def corpus_case(rng: np.random.Generator, max_size: int = 30):
    """A spec at valuation scale 2**k, k in [-600, 600], with a profile
    of one of ``PROFILE_KINDS``: all players mixing x and y, a few
    players active on their own axis (also where a closed form was
    asked for and none exists), the closed-form equilibrium or every
    effort of it times 1.5, or mixed with one group idle, offset to an
    effective effort of exactly 0, or offset to within rounding of 0."""
    s = math.ldexp(1.0, int(rng.integers(-600, 601)))
    theta = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    n1, n2 = (int(n) for n in rng.integers(2, max_size + 1, 2))
    spec = make_spec(corpus_group(rng, n1, s), corpus_group(rng, n2, s), theta)
    kind = PROFILE_KINDS[int(rng.integers(len(PROFILE_KINDS)))]
    profile = gc.StrategyProfile.zeros(spec)
    solved = gc.solve(spec).profile
    if kind in ("closed_form", "perturbed") and solved is not None:
        profile = solved
        if kind == "perturbed":
            for p in players(spec):
                e = effort(profile, p)
                profile = profile.replace(p, 1.5 * e.x, 1.5 * e.y)
        return spec, profile
    if kind in ("sparse", "closed_form", "perturbed"):
        roster = list(players(spec))
        for j in rng.choice(len(roster), size=min(3, len(roster)), replace=False):
            p = roster[int(j)]
            e = s * float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            profile = profile.replace(p, e, 0.0) if gc.valuation(spec, p) > 0 else (
                profile.replace(p, 0.0, e / theta))
        return spec, profile
    for p in players(spec):
        x, y = (s * float(rng.uniform(0, 2)) if rng.random() < 0.6 else 0.0 for _ in "xy")
        profile = profile.replace(p, x, y)
    if kind != "mixed":
        g = int(rng.integers(1, 3))
        for k in range(1, spec.group(g).size + 1):
            profile = profile.replace(gc.PlayerId(g, k), 0.0, 0.0)
        if kind != "zeroed":
            t = s * float(rng.uniform(0.01, 2))
            slack = t * float(rng.uniform(1e-6, 1e-3)) if kind == "in_band" else 0.0
            profile = profile.replace(gc.PlayerId(g, 1), theta * t + slack, 0.0)
            profile = profile.replace(gc.PlayerId(g, spec.group(g).size), 0.0, t)
    return spec, profile


# --- point-by-point region-sweep oracle -------------------------------------


class RegionRow(NamedTuple):
    """One grid point of a region sweep, in Python floats."""

    axis1: float
    axis2: float
    in_region: bool
    margin: float


def region_rows(figure, fixed, axis1_grid, axis2_grid, theta=None) -> list:
    """One ``RegionRow`` per grid point, axis1 outer and axis2 inner,
    each margin computed by the scalar formula in Python floats."""
    scale = 1.0 if figure == 1 else theta
    rows = []
    for a1 in axis1_grid:
        for a2 in axis2_grid:
            margin = scale * a1 * a2 / (a1 + a2) - fixed
            rows.append(RegionRow(a1, a2, margin >= 0, margin))
    return rows


def region_rows_csv(rows) -> str:
    """CSV of region rows, one f-string per row."""
    lines = ["axis1,axis2,margin,in_region"]
    for s in rows:
        lines.append(
            f"{s.axis1:.9g},{s.axis2:.9g},{s.margin:.9g},"
            f"{'true' if s.in_region else 'false'}"
        )
    return "\n".join(lines) + "\n"
