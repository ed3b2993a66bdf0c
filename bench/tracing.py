"""Opt-in tracing of the package's public functions, from outside.

``Tracer.install`` replaces each target function at every module binding
inside ``groupcontest`` (``groupcontest.verify.p1_values`` as well as
``groupcontest.csf.p1_values``) with a wrapper that records a span, and
``restore`` puts the originals back.  A target that no longer exists is
reported in ``absent`` instead of failing, so internals can move without
editing the benchmark.

Spans live in memory as ``[name, op, parent, start_ns, end_ns]`` and are
written when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nested,
so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "groupcontest"


def _p1_elements(result, enclosing):
    return {"elements": int(np.size(result))}


def _candidates(report, enclosing):
    count = getattr(report, "candidate_count", None)
    if count is None:
        return {}
    return {"max:candidates_per_player": count / len(report.deviations)}


def _refutations(result, enclosing):
    return {"refutations": len(result)}


def _refute_search(result, enclosing):
    return {"searches_in_refute": 1} if "verify.refute_class" in enclosing else {}


def _iterations(result, enclosing):
    return {"iterations": result.iterations}


def _csv_bytes(result, enclosing):
    return {"bytes": len(result)}  # the CSV is ASCII


# (span name, module, attribute path, counter callback).  A callback gets the
# call's result and the names of the spans enclosing it, and returns counter
# increments; a "max:" key keeps the largest value instead of the sum.
TARGETS = [
    ("model.effective_efforts", "model", "effective_efforts", None),
    ("model.profile_from_dict", "model", "profile_from_dict", None),
    ("model.StrategyProfile.replace", "model", "StrategyProfile.replace", None),
    ("csf.p1_values", "csf", "p1_values", _p1_elements),
    ("csf.payoff", "csf", "payoff", None),
    ("best_response", "best_response", "br_positive_x", None),
    ("best_response", "best_response", "br_positive_y", None),
    ("best_response", "best_response", "br_negative_x", None),
    ("best_response", "best_response", "br_negative_y", None),
    ("verify.is_epsilon_nash", "verify", "is_epsilon_nash", _candidates),
    ("verify.refute_class", "verify", "refute_class", _refutations),
    ("verify.best_deviation", "verify", "best_deviation", _refute_search),
    ("verify.best_response_dynamics", "verify", "best_response_dynamics", _iterations),
    ("equilibrium.region_sample", "equilibrium", "region_sample", None),
    ("equilibrium.region_csv", "equilibrium", "region_csv", _csv_bytes),
    ("cli.run", "cli", "run", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1  # -1 marks input generation, ops count from 0
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, clock(), 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if measure is not None and self.op >= 0:
                bucket = counters[name]
                enclosing = [spans[j][0] for j in stack]
                for key, value in measure(result, enclosing).items():
                    if key.startswith("max:"):
                        bucket[key] = max(bucket[key], value)
                    else:
                        bucket[key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        found = set()
        for name, module, path, measure in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            found.add(name)
            wrapper = self._wrap(name, original, measure)
            if outer:  # a method: one binding, on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        # A group of targets (best_response) is present if any member is.
        self.absent = {name for name, *_ in TARGETS} - found

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self):
        """Per span name, over op spans: call count and self time in ns."""
        child_ns = [0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        setup_calls: dict[str, int] = defaultdict(int)
        setup_ns: dict[str, int] = defaultdict(int)
        for (name, op, parent, start, end), inner in zip(self.spans, child_ns):
            if op >= 0:
                calls[name] += 1
                self_ns[name] += end - start - inner
            else:
                setup_calls[name] += 1
                setup_ns[name] += end - start - inner
        return calls, self_ns, setup_calls, setup_ns

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\top\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                out.write(f"{i}\t{op}\t{parent}\t{name}\t{start}\t{end}\n")
