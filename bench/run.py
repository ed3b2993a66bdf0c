"""Benchmark of the groupcontest solver and verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  One process, one caller,
one closed loop: each op starts when the previous one has returned and
its answer has been checked.  Op times cover the package call only; the
answer check and input generation run outside the timer.  The objects
left by set-up (numpy, the package, pooled inputs) are frozen out of the
garbage collector and a collection runs before each op, so every op
starts from a clean heap, as a fresh CLI process would, instead of
paying at random for earlier ops' garbage.

All times are scaled to reference speed (see ``reference.py``): on a
shared 2-vCPU virtual machine the speed swings by up to 1.7x for tens of
seconds, and the scaling cancels most of that while leaving changes to
the package visible.  The header line shows the reference kernel's
median time in the run.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh interpreters, each importing the package, generating its
inputs and running one warm-up op), ops per second, op p50 and p90,
ok_ratio (ops answered right over ops attempted; only wrong answers and
exceptions count against it) and peak RSS.

``--trace 1`` spends half the time untraced and half with the tracer
(``tracing.py``) wrapping the package's public functions, and prints the
per-layer metrics: calls, self time and work counts per op, the import
time of ``groupcontest.cli`` in fresh interpreters, and the traced over
untraced ops-per-second ratio.  The spans go to
``.bench_work/spans_<workload>.tsv.gz``.  Per-layer metrics are per
traced op unless noted: ``<layer>.calls``, ``<layer>.self_ms`` (span
minus child spans), ``csf.p1_values.elements`` (array elements
computed), ``verify.candidates_per_player`` (the largest
candidate_count / players over the is_epsilon_nash calls, a ratio of
exact counts), ``verify.refute_class.searches_per_refutation``,
``verify.best_response_dynamics.iterations`` and
``equilibrium.region_csv.bytes``.  ``model.profile_from_dict.self_ms`` is
per call, input generation included, because the workloads build their
profiles there.  A layer that a workload never calls reads 0.

Every metric is printed by name and unit, then the last stdout line is
one JSON object.  The exit code is 1 if any answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy stays on the calling thread: the loop has one caller and two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("certify_small", "certify_large", "dynamics_gap", "region_cli")
FRESH_STARTS = 7  # set-ups per run whose median is setup_s / cli.import_ms
SETUP_SAMPLES = 5  # reference samples that scale one set-up
CHILD_TIMEOUT_S = 120


def setup(workload: str, seed: int):
    """Import the package, generate inputs, run one warm-up op; return
    the workload and the set-up seconds and import milliseconds, both
    scaled to reference speed."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import groupcontest.cli  # noqa: F401  (the package and its CLI)

    import_ms = (time.perf_counter() - start) * 1e3
    import workloads

    w = workloads.make(workload, seed, WORKDIR)
    w.op(w.inputs(0))
    setup_s = time.perf_counter() - start
    import reference

    scale = reference.factor([reference.sample_ms() for _ in range(SETUP_SAMPLES)])
    return w, setup_s * scale, import_ms * scale


def fresh_setups(workload: str, seed: int, count: int) -> list[dict]:
    """Set up ``count`` times, each in a new interpreter, one at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    results = []
    for _ in range(count):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def loop(w, seconds: float, tracer=None):
    """Run ops until ``seconds`` have passed.  Return the op times (s)
    scaled to reference speed, the messages of wrong answers and the
    reference samples (ms), one taken before each op and one at the end."""
    import reference

    times: list[float] = []
    samples: list[float] = []
    wrong: list[str] = []
    end = time.perf_counter() + seconds
    i = 0
    while True:
        inp = w.inputs(i)
        gc.collect()
        samples.append(reference.sample_ms())
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = w.op(inp)
        except Exception as exc:  # a crashing op is a wrong answer, not a crashed run
            elapsed = time.perf_counter() - start
            msg = f"op {i} raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = -1
            try:
                msg = w.check(inp, out)
            except Exception as exc:
                msg = f"checking op {i} raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.op = -1
        times.append(elapsed)
        if msg is not None:
            wrong.append(msg)
        i += 1
        if time.perf_counter() >= end:
            break
    samples.append(reference.sample_ms())
    # Op i runs between samples i and i + 1; scale it by those and one more on each side.
    scaled = [t * reference.factor(samples[max(i - 1, 0):i + 3]) for i, t in enumerate(times)]
    return scaled, wrong, samples


def block_rate(times: list[float], block_s: float = 1.0) -> float:
    """Median over consecutive blocks of about ``block_s`` of op time of
    the ops completed per second; a noise burst then moves one block
    instead of the whole run's mean."""
    rates, n, total = [], 0, 0.0
    for t in times:
        n, total = n + 1, total + t
        if total >= block_s:
            rates.append(n / total)
            n, total = 0, 0.0
    return statistics.median(rates) if rates else len(times) / sum(times)


def end_to_end(times: list[float], setup_s: list[float], failed: int) -> dict:
    ms = [t * 1e3 for t in times]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (block_rate(times), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_ratio": ((len(times) - failed) / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, ops: int, import_ms: list[float], overhead: float,
              scale: float) -> dict:
    """Per-op layer metrics of the traced loop; times are scaled by
    ``scale``, the traced loop's reference factor."""
    calls, self_ns, setup_calls, setup_ns = tracer.totals()
    counters = tracer.counters
    out = {}

    def put(layer, metric, value, unit):
        if layer not in tracer.absent:
            out[f"{layer}.{metric}"] = (value, unit)

    for layer in ("model.effective_efforts", "model.StrategyProfile.replace",
                  "csf.p1_values", "csf.payoff", "best_response", "verify.best_deviation"):
        put(layer, "calls", calls[layer] / ops, "count")
    for layer in ("model.effective_efforts", "model.StrategyProfile.replace",
                  "csf.p1_values", "csf.payoff", "best_response", "verify.is_epsilon_nash",
                  "verify.refute_class", "verify.best_deviation",
                  "verify.best_response_dynamics", "equilibrium.region_sample",
                  "equilibrium.region_csv", "cli.run"):
        put(layer, "self_ms", self_ns[layer] / ops / 1e6 * scale, "ms")
    # Profiles are built while generating inputs, so this one is per call.
    pfd = "model.profile_from_dict"
    pfd_calls = calls[pfd] + setup_calls[pfd]
    put(pfd, "self_ms", (self_ns[pfd] + setup_ns[pfd]) / max(pfd_calls, 1) / 1e6 * scale, "ms")
    put("csf.p1_values", "elements", counters["csf.p1_values"]["elements"] / ops, "count")
    verdicts = counters["verify.is_epsilon_nash"]
    if calls["verify.is_epsilon_nash"] == 0 or "max:candidates_per_player" in verdicts:
        put("verify", "candidates_per_player",
            verdicts["max:candidates_per_player"], "count")
    refuted = counters["verify.refute_class"]["refutations"]
    searches = counters["verify.best_deviation"]["searches_in_refute"]
    put("verify.refute_class", "searches_per_refutation",
        searches / refuted if refuted else 0.0, "count")
    put("verify.best_response_dynamics", "iterations",
        counters["verify.best_response_dynamics"]["iterations"] / ops, "count")
    put("equilibrium.region_csv", "bytes",
        counters["equilibrium.region_csv"]["bytes"] / ops, "bytes")
    out["cli.import_ms"] = (statistics.median(import_ms), "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up timings (used per fresh start)")
    args = parser.parse_args(argv)

    try:
        w, setup_s, import_ms = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import groupcontest from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_ms": import_ms}))
        return 0
    fresh = fresh_setups(args.workload, args.seed, FRESH_STARTS - 1)
    setups = [setup_s] + [f["setup_s"] for f in fresh]
    imports = [import_ms] + [f["import_ms"] for f in fresh]
    gc.collect()
    gc.freeze()

    import reference

    if args.trace == 0:
        times, wrong, samples = loop(w, args.seconds)
        metrics = end_to_end(times, setups, len(wrong))
        attempted = len(times)
    else:
        import tracing
        import workloads

        times, wrong, _ = loop(w, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_w = workloads.make(args.workload, args.seed, WORKDIR)
            traced, traced_wrong, samples = loop(traced_w, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        overhead = block_rate(traced) / block_rate(times)
        metrics = per_layer(tracer, len(traced), imports, overhead,
                            reference.factor(samples))
        tracer.write(WORKDIR / f"spans_{args.workload}.tsv.gz")
        for name in sorted(tracer.absent):
            print(f"note: {name} not found; its metrics are absent", file=sys.stderr)
        attempted = len(times) + len(traced)
        wrong += traced_wrong

    for msg in wrong[:10]:
        print(f"WRONG: {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={attempted} wrong={len(wrong)} "
          f"fresh_setups={len(setups)} reference_ms median={statistics.median(samples):.4g} "
          f"(nominal {reference.NOMINAL_MS}, times below are scaled to it)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
