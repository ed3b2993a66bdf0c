#!/usr/bin/env python3
"""Run the benchmark A/B recipe: alternating pairs of a parent and a change.

    python3 scripts/ab_bench.py --parent REV --change REV --workload NAME \\
        --pairs 10 --seconds 25 --workdir DIR

``--workload`` names a workload of BENCHMARK.json; repeat it for several,
or give ``all`` for every one, in BENCHMARK.json's order.  Each side is
exported once, with ``git archive``, into its own directory under DIR,
which must lie outside the checkout; ``--change .`` exports the working
tree's tracked and unignored files.  The workloads then run one after
another.  Pair i of a workload runs the benchmark command of
BENCHMARK.json (``bench/run.py`` as it stands in each side's export)
with ``--seed i --trace 0`` on both sides, the parent first in odd pairs
and the change first in even ones.  The script prints each pair's
end-to-end metrics and, after a workload's last pair, its summary: per
metric each side's median and quartiles and how many pairs the change
won, read against the metric's ``better`` in BENCHMARK.json; ties count
for neither side.

Exit 1 if a run fails or its last stdout line is not the harness's JSON
result, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class RunFailed(Exception):
    """A benchmark run exited nonzero or printed no valid result."""


def _git(*args: str, env=None) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, check=True, env=env
    ).stdout


def export(rev: str, dest: Path) -> None:
    """Extract ``rev``, or for ``.`` the working tree's tracked and
    unignored files, into ``dest`` with ``git archive``."""
    if rev == ".":
        # A throwaway index holding the working tree gives git archive a tree.
        env = dict(os.environ, GIT_INDEX_FILE=str(dest.parent / f"{dest.name}.index"))
        _git("add", "--all", env=env)
        rev = _git("write-tree", env=env).decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev), check=True)


def parse_result(stdout: str, metrics: list[str]) -> dict[str, float]:
    """The end-to-end metrics from a run's last stdout line, the JSON
    result that ``bench/run.py`` prints."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {m: float(result["metrics"][m]["value"]) for m in metrics}
    except (IndexError, ValueError, TypeError, KeyError) as exc:
        raise RunFailed(f"malformed last line ({exc!r})") from None
    if result.get("correct") is not True:
        raise RunFailed(f"{result.get('failed')} wrong answers")
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(pairs: list[dict[str, dict[str, float]]], metrics: list[dict]) -> str:
    """Per metric: each side's median [q1, q3] over ``pairs`` (each a
    {side: {metric: value}}) and how many pairs the change won."""
    lines = [f"{'metric':12s} {'better':6s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'change/parent':>13s} {'won':>6s}"]
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        cols = []
        for side in SIDES:
            q1, median, q3 = _quartiles([p[side][name] for p in pairs])
            cols.append((median, f"{median:.6g} [{q1:.6g}, {q3:.6g}]"))
        won = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
        ratio = cols[1][0] / cols[0][0] if cols[0][0] else math.nan
        lines.append(f"{name:12s} {m['better']:6s} {cols[0][1]:>34s} {cols[1][1]:>34s} "
                     f"{ratio:13.4f} {won:>3d}/{len(pairs)}")
    return "\n".join(lines)


def parse_args(argv: list[str] | None, bench: dict) -> argparse.Namespace:
    """The checked arguments; ``workloads`` lists the workloads to run,
    each once, in BENCHMARK.json's order for ``all`` and in the order
    given otherwise."""
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side, or .")
    parser.add_argument("--workload", required=True, action="append", choices=[*names, "all"],
                        help="a workload to run, or all; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--workdir", required=True, type=Path,
                        help="an empty or missing directory outside the checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 < args.seconds < math.inf:
        parser.error(f"--seconds must be finite and positive, got {args.seconds}")
    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error(f"--workdir must lie outside the checkout {ROOT}")
    if workdir.exists() and any(workdir.iterdir()):
        parser.error(f"--workdir {workdir} is not empty")
    for side in SIDES:
        rev = getattr(args, side)
        try:
            if rev != ".":
                _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"--{side} {rev!r} is not a commit")
    args.workdir = workdir
    args.workloads = names if "all" in args.workload else list(dict.fromkeys(args.workload))
    return args


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    args.workdir.mkdir(parents=True, exist_ok=True)
    dirs = {side: args.workdir / side for side in SIDES}
    for side in SIDES:
        export(getattr(args, side), dirs[side])
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]
    for workload in args.workloads:
        print(f"workload {workload}\n{'pair':>4} {'side':6s} "
              + " ".join(f"{n:>12s}" for n in names), flush=True)
        pairs = []
        for seed in range(1, args.pairs + 1):
            pair = {}
            for side in SIDES if seed % 2 else SIDES[::-1]:
                child = subprocess.run(
                    [*bench["command"], "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=dirs[side], capture_output=True, text=True,
                )
                try:
                    if child.returncode != 0:
                        raise RunFailed(f"exit {child.returncode}")
                    pair[side] = parse_result(child.stdout, names)
                except RunFailed as exc:
                    print(f"{side} run of {workload} pair {seed} failed: {exc}\n{child.stderr}",
                          file=sys.stderr)
                    return 1
                print(f"{seed:4d} {side:6s} " + " ".join(f"{pair[side][n]:12.6g}" for n in names),
                      flush=True)
            pairs.append(pair)
        print(f"summary of {workload}, {len(pairs)} pairs\n{summary(pairs, metrics)}\n",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
