"""The four benchmark workloads: seeded inputs, one operation, its answer check.

Every workload runs one kind of operation at one size, so its op times
form a single mode.  Inputs come only from the workload seed; the
package sees nothing but the generated specs, profiles and argv lists.
The package is reached through names in ``groupcontest.__all__``, the
JSON-document constructors and ``groupcontest.cli.run``, always looked up
at call time so the tracer's wrappers take effect.

A check returns an error message for a wrong answer and ``None`` for a
right one.  Every expected verdict holds by construction with a wide
margin, so a correct program answers every op right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import groupcontest as gc
from groupcontest import cli

SMALL_REFUTE_SAMPLES = 8
SMALL_CLASSES = ("OPPOSITE_SIGNS", "SOME_ZERO_Z", "STRADDLE_OR_WRONG_SIGN")
LARGE_PLAYERS = 200
PERTURB = 1.5
REFUTE_MARGIN = 1000.0  # a perturbed profile must gain more than this times epsilon
README_VALUATIONS = ([4.0, 1.0, -1.0], [4.0, 2.0, -1.0])
LADDER_STEPS = 7
DYNAMICS_MAX_ITERS = 1000
DYNAMICS_TOL = 1e-6
REGION_STEPS = 300
REGION_AXIS = f"0.1:5:{REGION_STEPS}"
REGION_FIXED = 8  # distinct --fixed values, cycled
MARGIN_REL_TOL = 1e-12


def _spec(theta: float, valuations) -> gc.ContestSpec:
    return gc.spec_from_dict({
        "theta": float(theta),
        "groups": [{"valuations": [float(v) for v in g]} for g in valuations],
    })


def _regime_spec(valuations, no_sabotage: bool):
    """Spec with theta at half the lower cutoff (no sabotage) or twice
    the upper one (sabotage), far from either boundary."""
    cut = gc.thresholds(_spec(1.0, valuations))
    theta = cut.theta_no_sabotage / 2 if no_sabotage else 2 * cut.theta_sabotage
    return _spec(theta, valuations)


def _group(rng: np.random.Generator, positives: int, negatives: int) -> list[float]:
    """Descending valuations with a fixed sign pattern: ``positives``
    players above zero (the top one included) and ``negatives`` below.
    Fixing the pattern across seeds keeps the deviation search's
    candidate count the same for every seed."""
    top = rng.uniform(2.0, 8.0)
    bottom = -rng.uniform(2.0, 8.0)
    pos = np.sort(rng.uniform(0.05, 0.95, positives - 1) * top)[::-1]
    neg = np.sort(rng.uniform(0.05, 0.95, negatives - 1) * -bottom)
    return [top, *pos, *(-neg), bottom]


def _perturbed(profile):
    """The profile with every active effort scaled by PERTURB, rebuilt
    through the JSON document so it passes the package's own checks."""
    doc = gc.profile_to_dict(profile)
    for group in doc["efforts"]:
        for e in group:
            e["x"] *= PERTURB
            e["y"] *= PERTURB
    return gc.profile_from_dict(doc)


def _check_refuted(report) -> str | None:
    best = max(d.improvement for d in report.deviations)
    if report.is_epsilon_nash or best <= REFUTE_MARGIN * report.epsilon:
        return f"perturbed profile not refuted (best improvement {best:.3g})"
    return None


class CertifySmall:
    """solve + two is_epsilon_nash + refute_class(8) on one 3+3 spec."""

    name = "certify_small"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        no_sabotage = i % 2 == 0
        valuations = (_group(rng, 2, 1), _group(rng, 1, 2))
        spec = _regime_spec(valuations, no_sabotage)
        forbidden = getattr(gc.ForbiddenClass, SMALL_CLASSES[i % len(SMALL_CLASSES)])
        regime = gc.Regime.NO_SABOTAGE if no_sabotage else gc.Regime.SABOTAGE
        closed = gc.solve(spec).profile
        return spec, _perturbed(closed), forbidden, int(rng.integers(2**31)), regime

    def op(self, inp):
        spec, perturbed, forbidden, refute_seed, _ = inp
        result = gc.solve(spec)
        return (
            result,
            gc.is_epsilon_nash(spec, result.profile),
            gc.is_epsilon_nash(spec, perturbed),
            gc.refute_class(spec, forbidden, SMALL_REFUTE_SAMPLES, refute_seed),
        )

    def check(self, inp, out) -> str | None:
        result, certified, perturbed, refutations = out
        if result.regime is not inp[4]:
            return f"solve gave {result.regime}, expected {inp[4]}"
        if not certified.is_epsilon_nash:
            return "closed-form profile not certified"
        if (msg := _check_refuted(perturbed)) is not None:
            return msg
        if len(refutations) != SMALL_REFUTE_SAMPLES or any(
            r.deviation.improvement <= 0 for r in refutations
        ):
            return f"refute_class did not refute all {SMALL_REFUTE_SAMPLES} samples"
        return None


class CertifyLarge:
    """One is_epsilon_nash at 200 players per group, alternating the
    closed-form (certified) and perturbed (refuted) profile of one
    no-sabotage and one sabotage spec."""

    name = "certify_large"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        half = LARGE_PLAYERS // 2
        self.pool = []
        for no_sabotage in (True, False):
            valuations = (_group(rng, half, half), _group(rng, half, half))
            spec = _regime_spec(valuations, no_sabotage)
            closed = gc.profile_from_dict(gc.profile_to_dict(gc.solve(spec).profile))
            self.pool.append((spec, closed, True))
            self.pool.append((spec, _perturbed(closed), False))

    def inputs(self, i: int):
        return self.pool[i % len(self.pool)]

    def op(self, inp):
        spec, profile, _ = inp
        return gc.is_epsilon_nash(spec, profile)

    def check(self, inp, report) -> str | None:
        if inp[2]:
            return None if report.is_epsilon_nash else "closed-form profile not certified"
        return _check_refuted(report)


class DynamicsGap:
    """Round-robin best_response_dynamics from seeded jitter on the
    README spec at a fixed ladder of seven thetas spanning the gap."""

    name = "dynamics_gap"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        cut = gc.thresholds(_spec(1.0, README_VALUATIONS))
        self.low, self.high = cut.theta_no_sabotage, cut.theta_sabotage
        ladder = np.geomspace(self.low / 2, 2 * self.high, LADDER_STEPS)
        self.specs = [_spec(t, README_VALUATIONS) for t in ladder]
        self.solved = [
            None if (r := gc.solve(s)).profile is None else _flat(r.profile)
            for s in self.specs
        ]
        self.scale = 1e-3 * max(abs(v) for g in README_VALUATIONS for v in g)

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        return gc.profile_from_dict({"efforts": [
            [{"x": float(rng.uniform(0, self.scale)), "y": float(rng.uniform(0, self.scale))}
             for _ in g]
            for g in README_VALUATIONS
        ]})

    def op(self, initial):
        return [gc.best_response_dynamics(s, initial, DYNAMICS_MAX_ITERS) for s in self.specs]

    def check(self, inp, results) -> str | None:
        for spec, solved, r in zip(self.specs, self.solved, results):
            converged = r.status is gc.DynamicsStatus.CONVERGED
            if self.low < spec.theta < self.high:
                if converged:
                    return f"dynamics converged inside the gap at theta={spec.theta:.6g}"
            elif not converged:
                return f"dynamics ended {r.status.value} at theta={spec.theta:.6g}"
            elif np.max(np.abs(_flat(r.profile) - solved)) > DYNAMICS_TOL:
                return f"dynamics converged away from solve at theta={spec.theta:.6g}"
        return None


def _flat(profile) -> np.ndarray:
    return np.array([
        (e["x"], e["y"]) for g in gc.profile_to_dict(profile)["efforts"] for e in g
    ])


class RegionCli:
    """In-process ``groupcontest region --figure 1`` over a 300x300 grid,
    stdout captured; the seed picks --fixed values in a narrow band."""

    name = "region_cli"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        spec_path = workdir / "region_spec.json"
        spec_path.write_text(json.dumps({
            "theta": 0.5,
            "groups": [{"valuations": list(g)} for g in README_VALUATIONS],
        }))
        self.fixed = [f"{w:.6f}" for w in rng.uniform(0.95, 1.05, REGION_FIXED)]
        self.argvs = [
            ["region", "--spec", str(spec_path), "--figure", "1", "--fixed", w,
             "--axis1", REGION_AXIS, "--axis2", REGION_AXIS]
            for w in self.fixed
        ]
        self.verified: dict[int, bytes] = {}

    def inputs(self, i: int):
        return i % REGION_FIXED

    def op(self, k):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(self.argvs[k])
        return code, buf.getvalue()

    def check(self, k, out) -> str | None:
        code, text = out
        if code != 0:
            return f"cli.run exited {code}"
        digest = hashlib.sha256(text.encode()).digest()
        if k in self.verified:
            # CLI output is byte-deterministic; a text with this digest was checked line by line.
            return None if digest == self.verified[k] else "output differs from a verified run"
        msg = _check_region_csv(text, float(self.fixed[k]))
        if msg is None:
            self.verified[k] = digest
        return msg


def _rounding_slack(x: np.ndarray) -> np.ndarray:
    """Largest error of rendering x with 9 significant digits."""
    mag = np.abs(x)
    exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    return np.where(mag > 0, 0.5 * 10.0 ** (exp - 8) * (1 + 1e-6), 0.0)


def _check_region_csv(text: str, w: float) -> str | None:
    header, _, body = text.partition("\n")
    if header != "axis1,axis2,margin,in_region":
        return f"bad header {header!r}"
    rows = REGION_STEPS**2
    if body.count("\n") != rows or not body.endswith("\n"):
        return f"expected {rows} rows, got {body.count(chr(10))}"
    if body.count(",true\n") + body.count(",false\n") != rows:
        return "in_region is not true or false on every row"
    flat = body.replace("true", "1").replace("false", "0").replace("\n", ",")[:-1]
    values = np.fromstring(flat, sep=",")
    if values.size != 4 * rows:
        return "rows do not hold four numbers each"
    a1, a2, margin, flags = values.reshape(rows, 4).T
    grid = np.linspace(0.1, 5.0, REGION_STEPS)
    e1, e2 = np.repeat(grid, REGION_STEPS), np.tile(grid, REGION_STEPS)
    term = e1 * e2 / (e1 + e2)
    expected = term - w
    for got, want, scale in ((a1, e1, e1), (a2, e2, e2), (margin, expected, np.maximum(term, w))):
        if np.any(np.abs(got - want) > _rounding_slack(want) + MARGIN_REL_TOL * scale):
            return "a field differs from the figure-1 formula"
    if not np.array_equal(flags == 1, margin >= 0):
        return "in_region does not match margin >= 0"
    return None


WORKLOADS = {w.name: w for w in (CertifySmall, CertifyLarge, DynamicsGap, RegionCli)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
