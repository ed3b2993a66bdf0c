#!/usr/bin/env python3
"""Measure where the array search starts to pay: array time / loop time per group size.

For each size n, build a spec shaped like the ``certify_large`` benchmark
workload (n players a group, half of them builders, the top valued 2 to 8
and the bottom -2 to -8, theta at half the lower cutoff) and two profiles:

* ``closed``: the closed-form equilibrium.  Both groups lie outside the
  rounding band, so both are searched, in one ``_search_array`` call.
* ``mixed``: group 1 mixing x and y (each uniform in [0, 2], 60 % of them
  nonzero) while group 2 builds 2**12 times harder.  Only group 1 lies
  outside the band, and only it is searched.

The profile search ``verify._search_moves``, which writes the report
rows, runs on each profile's groups with ``ARRAY_MIN_PLAYERS`` at 1 (the
arrays) and at 10**9 (the scalar loop, one ``_search_player`` call per
player), alternating, and the script prints
the median time of each per search and their ratio.  A ratio below 1
means the arrays are faster there.

    python3 scripts/crossover.py --sizes 10,20,30,40,60,100,200 --repeat 40

Exit 2 on bad arguments.
"""

import argparse
import statistics
import time

import numpy as np

from groupcontest import (
    ContestSpec, GroupSpec, StrategyProfile, solve, thresholds, validate_spec, verify,
)

MODES = (("arrays", 1), ("loop", 10**9))


def _group(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """n descending valuations: n - n // 2 builders, the top 2 to 8, and
    n // 2 saboteurs, the bottom -2 to -8."""
    top, bottom = rng.uniform(2.0, 8.0), -rng.uniform(2.0, 8.0)
    pos = np.sort(rng.uniform(0.05, 0.95, n - n // 2 - 1) * top)[::-1]
    neg = np.sort(rng.uniform(0.05, 0.95, n // 2 - 1) * -bottom)
    return tuple(float(v) for v in (top, *pos, *(-neg), bottom))


def _cases(n: int):
    """(name, spec, profile, groups searched) of both profiles at size n."""
    rng = np.random.default_rng([0, n])
    groups = GroupSpec(_group(rng, n)), GroupSpec(_group(rng, n))
    theta = thresholds(validate_spec(ContestSpec(*groups, 1.0))).theta_no_sabotage / 2
    spec = validate_spec(ContestSpec(*groups, theta))
    mixed = [[float(rng.uniform(0, 2)) if rng.random() < 0.6 else 0.0 for _ in range(n)]
             for _ in "xy"]
    big = tuple(float(x) * 2**12 for x in rng.uniform(0.5, 2.0, n))
    profile = StrategyProfile((tuple(mixed[0]), big), (tuple(mixed[1]), (0.0,) * n))
    return [("closed", spec, solve(spec).profile, (1, 2)), ("mixed", spec, profile, (1,))]


def _time(spec, profile, groups, threshold: int, calls: int) -> float:
    """Seconds per ``_search_moves`` call with ``ARRAY_MIN_PLAYERS`` set to threshold."""
    saved, verify.ARRAY_MIN_PLAYERS = verify.ARRAY_MIN_PLAYERS, threshold
    try:
        start = time.perf_counter()
        for _ in range(calls):
            verify._search_moves(spec, profile.xs, profile.ys, groups)
        return (time.perf_counter() - start) / calls
    finally:
        verify.ARRAY_MIN_PLAYERS = saved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,20,25,30,35,40,60,100,200",
                        help="comma-separated players per group, each at least 2")
    parser.add_argument("--repeat", type=int, default=40, help="alternating timing blocks")
    args = parser.parse_args()
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if min(sizes) < 2:
        parser.error(f"every size must be at least 2, got {args.sizes!r}")
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    print(f"{'n':>5} {'profile':>8} {'arrays_us':>10} {'loop_us':>10} {'ratio':>7}")
    for n in sizes:
        calls = max(1, 2000 // n)
        for name, spec, profile, groups in _cases(n):
            times = {mode: [] for mode, _ in MODES}
            for block in range(args.repeat):
                for mode, threshold in MODES[:: 1 if block % 2 == 0 else -1]:
                    times[mode].append(_time(spec, profile, groups, threshold, calls))
            arrays, loop = (statistics.median(times[mode]) for mode, _ in MODES)
            print(f"{n:5d} {name:>8} {arrays * 1e6:10.1f} {loop * 1e6:10.1f} {arrays / loop:7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
