"""Command-line front end.

Reads a contest-spec JSON document, dispatches to the solver, the
classifier, the verifier, the best-response rule, the
existence-region sweeps, or best-response dynamics, and emits JSON (CSV
for region sweeps).  All numeric output is rounded to 9 significant
digits so identical inputs produce byte-identical output.

Exit codes: 0 on success, 1 on validation/domain errors (diagnostic on
stderr, naming the violated invariant), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import best_response as br
from .csf import win_probability_short
from .equilibrium import RegionGrid, classify, region_csv, region_sample, solve, thresholds
from .model import (
    ContestError,
    ContestSpec,
    StrategyProfile,
    profile_from_dict,
    profile_to_dict,
    spec_from_dict,
)
from .verify import best_response_dynamics, is_epsilon_nash


# Largest region sweep, in grid points: about 160 MB of CSV or 440 MB of JSON.
MAX_REGION_POINTS = 4_000_000


class UsageError(ContestError):
    pass


class SpecFileUnreadable(ContestError):
    pass


class MalformedJson(ContestError):
    pass


class NonFiniteOutput(ContestError):
    """A value to print is nan or infinite, which JSON cannot spell."""


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileUnreadable(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long numbers, too deep nesting
        raise MalformedJson(f"{path} is not valid JSON: {exc}") from exc


def _round9(obj):
    """Round every float in a JSON-ish structure to 9 significant digits,
    refusing nan and the infinities."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteOutput(f"the output holds {obj}, which JSON cannot spell")
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round9(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_round9(obj), indent=2))


def _region_json(grid: RegionGrid) -> str:
    """What ``_emit`` prints for the sweep as a list of {axis1, axis2,
    margin, in_region} objects, rendered from the arrays row by row as
    ``region_csv`` renders its rows.  ``_round9`` refuses non-finite
    floats, and a finite float's JSON spelling is its ``repr``."""
    cells = [
        f'    "axis2": {_round9(a2)!r},\n    "margin": %s,\n    "in_region": %s\n  }}'
        for a2 in grid.axis2.tolist()
    ]
    rows = []
    for a1, margins in zip(grid.axis1.tolist(), grid.margin.tolist()):
        prefix = f'  {{\n    "axis1": {_round9(a1)!r},\n'
        values = [None] * (2 * len(margins))
        values[0::2] = map(repr, _round9(margins))
        values[1::2] = ["true" if m >= 0 else "false" for m in margins]
        rows.append((prefix + (",\n" + prefix).join(cells)) % tuple(values))
    return "[\n" + ",\n".join(rows) + "\n]\n"


def _parse_grid(text: str) -> tuple[float, float, int]:
    """Parse MIN:MAX:STEPS, the ends and point count of an inclusive
    evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid must be MIN:MAX:STEPS, got {text!r}") from exc
    if steps < 1:
        raise UsageError(f"grid needs at least one step, got {steps}")
    return lo, hi, steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcontest",
        description="Solve, classify, and verify two-group sabotage contests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, metavar="PATH",
                       help="contest-spec JSON document")
        p.add_argument("--format", choices=["json", "csv"],
                       default="csv" if name == "region" else "json")
        return p

    p = add("solve", "compute the closed-form equilibrium, if one exists")
    p.add_argument("--slack", action="store_true",
                   help="include distances from theta to both thresholds")

    p = add("classify", "report the existence regime and both thresholds")
    p.add_argument("--slack", action="store_true",
                   help="include distances from theta to both thresholds")

    p = add("verify", "check a profile for profitable deviations")
    p.add_argument("--profile", required=True, metavar="PATH")
    p.add_argument("--epsilon", type=float, default=None,
                   help="certification slack (default 1e-6 * max valuation)")

    p = add("br", "single-axis best response for explicit regime context")
    p.add_argument("--v", type=float, required=True, help="player valuation")
    p.add_argument("--z-minus", type=float, required=True,
                   help="rest of own group's effective effort")
    p.add_argument("--z-other", type=float, required=True,
                   help="other group's effective effort")
    p.add_argument("--theta", type=float, default=None,
                   help="sabotage effectiveness (needed for sabotage responses)")

    p = add("region", "existence-region sweep as CSV (or JSON)")
    p.add_argument("--figure", type=int, choices=[1, 2], required=True)
    p.add_argument("--fixed", type=float, required=True,
                   help="fixed stake: w for figure 1, t for figure 2")
    p.add_argument("--axis1", required=True, metavar="MIN:MAX:STEPS")
    p.add_argument("--axis2", required=True, metavar="MIN:MAX:STEPS")

    p = add("dynamics", "iterate best responses from an initial profile")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="initial profile (default: zeros plus seeded jitter)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--order", choices=["simultaneous", "round-robin"],
                   default="round-robin")
    return parser


def _threshold_fields(spec: ContestSpec) -> tuple[dict, dict]:
    """Both cutoffs, and theta's distance to each."""
    cut = thresholds(spec)
    return (
        {"no_sabotage": cut.theta_no_sabotage, "sabotage": cut.theta_sabotage},
        {
            "slack_no_sabotage": abs(spec.theta - cut.theta_no_sabotage),
            "slack_sabotage": abs(spec.theta - cut.theta_sabotage),
        },
    )


def _cmd_solve(args, spec: ContestSpec) -> int:
    result = solve(spec)
    cuts, slacks = _threshold_fields(spec)
    out = {
        "regime": result.regime.value,
        "boundary": result.boundary,
        "theta": spec.theta,
        "thresholds": cuts,
        "profile": None,
        "effective": None,
        "win_probabilities": None,
    }
    if result.profile is not None:
        eff = result.effective
        p1 = win_probability_short(eff.z1, eff.z2)
        out["profile"] = profile_to_dict(result.profile)
        out["effective"] = {"z1": eff.z1, "z2": eff.z2}
        out["win_probabilities"] = {"p1": p1, "p2": 1.0 - p1}
    if args.slack:
        out.update(slacks)
    _emit(out)
    return 0


def _cmd_classify(args, spec: ContestSpec) -> int:
    regime, boundary = classify(spec)
    cuts, slacks = _threshold_fields(spec)
    out = {
        "regime": regime.value,
        "boundary": boundary,
        "theta": spec.theta,
        "thresholds": cuts,
        "slack": min(slacks.values()),
    }
    if args.slack:
        out.update(slacks)
    _emit(out)
    return 0


def _cmd_verify(args, spec: ContestSpec) -> int:
    profile = profile_from_dict(_load_json(args.profile))
    report = is_epsilon_nash(spec, profile, args.epsilon)
    _emit(report.to_json_dict())
    return 0


def _cmd_br(args, spec: ContestSpec) -> int:
    v, z_minus, z_other = args.v, args.z_minus, args.z_other
    for flag, value in (("--v", v), ("--z-minus", z_minus), ("--z-other", z_other),
                        ("--theta", args.theta)):
        if value is not None and not math.isfinite(value):
            raise ContestError(f"{flag} must be finite, got {value}")

    if v < 0 and z_other != 0 and args.theta is None:  # z_other = 0 is a DomainError
        raise UsageError("--theta is required for sabotage best responses")
    response = br.axis_best_response(args.theta, v, z_minus, z_other)
    name = f"br_{'positive' if z_other > 0 else 'negative'}_{'x' if v > 0 else 'y'}"
    if response.effort == math.inf:
        raise ContestError(f"{name} effort is beyond the float range")
    _emit({"operation": name, "effort": response.effort, "tie": response.tie})
    return 0


def _cmd_region(args, spec: ContestSpec) -> int:
    grid1, grid2 = _parse_grid(args.axis1), _parse_grid(args.axis2)
    points = grid1[2] * grid2[2]
    if points > MAX_REGION_POINTS:  # refused before anything is allocated
        raise UsageError(
            f"region grid has {points} points, more than the {MAX_REGION_POINTS} allowed"
        )
    # Non-finite ends give nan or inf points, which region_sample refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        axis1, axis2 = np.linspace(*grid1), np.linspace(*grid2)
    grid = region_sample(
        args.figure,
        args.fixed,
        axis1,
        axis2,
        theta=spec.theta if args.figure == 2 else None,
    )
    sys.stdout.write(region_csv(grid) if args.format == "csv" else _region_json(grid))
    return 0


def _jittered_initial(spec: ContestSpec, seed: int) -> StrategyProfile:
    """x then y of each player, in player order, uniform in [0, 1e-3 * max |v|]."""
    scale = 1e-3 * spec.max_abs_valuation()
    n1 = spec.group1.size
    draws = np.random.default_rng(seed).uniform(0, scale, 2 * sum(spec.sizes())).tolist()
    xs, ys = ((tuple(c[:n1]), tuple(c[n1:])) for c in (draws[0::2], draws[1::2]))
    return StrategyProfile(xs, ys)


def _cmd_dynamics(args, spec: ContestSpec) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.profile is not None:
        initial = profile_from_dict(_load_json(args.profile))
    else:
        initial = _jittered_initial(spec, args.seed)
    result = best_response_dynamics(
        spec, initial, args.max_iters, order=args.order.replace("-", "_")
    )
    _emit({
        "status": result.status.value,
        "iterations": result.iterations,
        "period": result.period,
        "last_delta": result.last_delta,
        "final_profile": profile_to_dict(result.profile),
    })
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "br": _cmd_br,
    "region": _cmd_region,
    "dynamics": _cmd_dynamics,
}


def run(argv: list[str]) -> int:
    """Parse argv, execute one command, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "csv" and args.command != "region":
            raise UsageError("--format csv is only available for region sweeps")
        spec = spec_from_dict(_load_json(args.spec))
        return _COMMANDS[args.command](args, spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ContestError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (as with ``| head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
