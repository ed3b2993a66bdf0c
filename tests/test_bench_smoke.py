"""Each benchmark workload builds, runs one operation and checks its
answer, without writing to the process's stdout: the benchmark's last
stdout line must be its JSON result.  Every function the tracer wraps
exists, so no per-layer metric goes missing from a traced run, and a
short run of the benchmark itself ends in a strict JSON result that
names every metric of ``BENCHMARK.json``.  The ``bench/`` modules are
imported from their files and left as they are (no bytecode is written
next to them)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _load_bench(name):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load_bench("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_op_is_right_and_silent(workloads, name, tmp_path, capfd):
    workload = workloads.make(name, 1, tmp_path)
    inp = workload.inputs(0)
    assert workload.check(inp, workload.op(inp)) is None
    assert capfd.readouterr().out == ""


def test_every_traced_function_exists():
    import groupcontest.cli  # noqa: F401  (the tracer patches loaded modules)

    tracer = _load_bench("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.restore()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# A traced run prints the per-layer metrics and an untraced one the
# end-to-end metrics; both end with one strict JSON line.  region_cli is the
# one workload that runs through ``cli.run``, certify_large the one that
# runs through ``verify._search_array``.
@pytest.mark.parametrize("name, trace, metrics", [
    ("dynamics_gap", 1, "per_layer"),
    ("certify_small", 1, "per_layer"),
    ("certify_large", 1, "per_layer"),
    ("region_cli", 1, "per_layer"),
    ("dynamics_gap", 0, "end_to_end"),
])
def test_benchmark_run_ends_in_a_strict_result(name, trace, metrics):
    argv = [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert {m["name"] for m in BENCHMARK[metrics]} <= set(result["metrics"])
