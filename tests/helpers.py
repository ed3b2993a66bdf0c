"""Shared test utilities: spec builders, seeded random spec generation,
hypothesis strategies, independent grid-search oracles for the
single-axis best-response rules and for a player's best deviation, and
the point-by-point region sweep that the array-backed one must match.

The oracles maximize the exact payoff of each regime by brute force on
a dense effort grid (augmented with the exact piece endpoints, where
the payoff has a kink) and never call the closed forms they check.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest.equilibrium import RegionSample


def make_spec(vals1, vals2, theta) -> gc.ContestSpec:
    return gc.validate_spec(
        gc.ContestSpec(
            gc.GroupSpec(tuple(float(v) for v in vals1)),
            gc.GroupSpec(tuple(float(v) for v in vals2)),
            float(theta),
        )
    )


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
    for p in gc.players(spec):
        profile = profile.replace(
            p, float(rng.uniform(0, scale)), float(rng.uniform(0, scale))
        )
    return profile


def profile_distance(a: gc.StrategyProfile, b: gc.StrategyProfile) -> float:
    return max(
        max(abs(ea.x - eb.x), abs(ea.y - eb.y))
        for ga, gb in zip(a.efforts, b.efforts)
        for ea, eb in zip(ga, gb)
    )


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
    for p in gc.players(spec):
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


def oracle_for_case(op: str, params: dict) -> tuple[float, float, object]:
    """Grid-maximize the matching exact objective; returns the oracle's
    best effort, its payoff, and the objective for re-evaluation."""
    span = 4.0 * sum(abs(x) for k, x in params.items() if k != "theta")
    if op == "positive_x":
        f = objective_positive_x(**params)
        extra = ()
    elif op == "positive_y":
        f = objective_positive_y(**params)
        extra = (params["z_minus"] / params["theta"],)
    elif op == "negative_y":
        f = objective_negative_y(**params)
        extra = ()
    elif op == "negative_x":
        f = objective_negative_x(**params)
        extra = (abs(params["z_minus"]),)
    elif op == "group":
        f = objective_group(**params)
        extra = ()
    else:
        raise ValueError(op)
    effort, value = grid_argmax(f, span, extra=extra)
    return effort, value, f


CLOSED_FORMS = {
    "positive_x": lambda p: gc.br_positive_x(p["v"], p["z_minus"], p["z_other"]).effort,
    "positive_y": lambda p: gc.br_positive_y(
        p["theta"], p["v"], p["z_minus"], p["z_other"]
    ).effort,
    "negative_y": lambda p: gc.br_negative_y(
        p["theta"], p["v"], p["z_minus"], p["z_other"]
    ).effort,
    "negative_x": lambda p: gc.br_negative_x(p["v"], p["z_minus"], p["z_other"]).effort,
    "group": lambda p: gc.group_best_effective_effort(p["v"], p["z_other"]),
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
    eff = gc.effective_efforts(spec, profile)
    z_minus = eff.z_minus(player)
    z_other = eff.z_other(player.group)
    current = profile.effort(player)
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


# --- point-by-point region-sweep oracle -------------------------------------


def region_rows(figure, fixed, axis1_grid, axis2_grid, theta=None) -> list:
    """One ``RegionSample`` per grid point, axis1 outer and axis2 inner,
    each margin computed by the scalar formula in Python floats."""
    scale = 1.0 if figure == 1 else theta
    rows = []
    for a1 in axis1_grid:
        for a2 in axis2_grid:
            margin = scale * a1 * a2 / (a1 + a2) - fixed
            rows.append(RegionSample(a1, a2, margin >= 0, margin))
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
