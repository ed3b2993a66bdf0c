"""Each benchmark workload builds, runs one operation and checks its
answer, without writing to the process's stdout: the benchmark's last
stdout line must be its JSON result.  ``bench/workloads.py`` is imported
from its file and left as it is (no bytecode is written next to it)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_op_is_right_and_silent(workloads, name, tmp_path, capfd):
    workload = workloads.make(name, 1, tmp_path)
    inp = workload.inputs(0)
    assert workload.check(inp, workload.op(inp)) is None
    assert capfd.readouterr().out == ""
