#!/usr/bin/env python3
"""Probe play across the three theta regimes with best-response dynamics.

For a symmetric two-player-per-group contest, sweep theta from well
below the no-sabotage cutoff to well above the sabotage cutoff and run
seeded dynamics at each value.  Where a pure equilibrium exists the
iteration converges to it; inside the gap it cycles, which is the
empirical face of the nonexistence result.  Outcomes in the gap are
exploratory: nothing is claimed about what players "really" do there.
"""

import argparse
import math
import sys
from itertools import chain

import numpy as np

from groupcontest import (
    ContestSpec,
    DynamicsStatus,
    GroupSpec,
    best_response_dynamics,
    classify,
    solve,
    thresholds,
    validate_spec,
)
from groupcontest.cli import _jittered_initial


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", type=float, default=1.0, help="common valuation magnitude")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--max-iters", type=int, default=1000)
    args = parser.parse_args()
    if not 0 < args.c < math.inf:
        parser.error(f"--c must be finite and positive, got {args.c}")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.max_iters < 1:
        parser.error(f"--max-iters must be at least 1, got {args.max_iters}")

    c = args.c
    base = validate_spec(ContestSpec(GroupSpec((c, -c)), GroupSpec((c, -c)), 1.0))
    cut = thresholds(base)
    print(f"cutoffs: no-sabotage <= {cut.theta_no_sabotage:.9g}, "
          f"sabotage >= {cut.theta_sabotage:.9g}")
    print(f"{'theta':>8} {'regime':>24} {'seed':>5} {'status':>10} {'iters':>6} {'period':>7}")

    failures = []  # (theta, seed, reason) of each run that converged wrongly
    for theta in np.geomspace(cut.theta_no_sabotage / 4, cut.theta_sabotage * 4, 9):
        spec = validate_spec(ContestSpec(base.group1, base.group2, float(theta)))
        regime, _ = classify(spec)
        for seed in range(args.seeds):
            result = best_response_dynamics(
                spec, _jittered_initial(spec, seed), args.max_iters, "round_robin"
            )
            period = result.period if result.period is not None else "-"
            print(f"{theta:8.4f} {regime.value:>24} {seed:5d} "
                  f"{result.status.value:>10} {result.iterations:6d} {period:>7}")
            if result.status is DynamicsStatus.CONVERGED:
                final, target = result.profile, solve(spec).profile
                if target is None:
                    failures.append((theta, seed, "converged, but no pure equilibrium exists"))
                    continue
                drift = max(
                    abs(a - b)
                    for a, b in zip(chain(*final.xs, *final.ys), chain(*target.xs, *target.ys))
                )
                if not drift < 1e-6 * c:
                    failures.append((theta, seed, f"converged {drift:.3g} away from the closed form"))

    for theta, seed, reason in failures:
        print(f"theta {theta:.9g} seed {seed}: {reason}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
