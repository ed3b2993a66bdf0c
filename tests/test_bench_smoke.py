"""Each benchmark workload builds, runs one operation and checks its
answer, without writing to the process's stdout: the benchmark's last
stdout line must be its JSON result.  Every function the tracer wraps
exists, so no per-layer metric goes missing from a traced run.  The
``bench/`` modules are imported from their files and left as they are
(no bytecode is written next to them)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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
