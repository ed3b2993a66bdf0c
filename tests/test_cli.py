import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from groupcontest import cli
from groupcontest.cli import run
from helpers import make_spec

NO_SABOTAGE = {
    "theta": 0.5,
    "groups": [{"valuations": [4, 1, -1]}, {"valuations": [4, 2, -1]}],
}
SYMMETRIC_GAP = {
    "theta": 1,
    "groups": [{"valuations": [1, -1]}, {"valuations": [1, -1]}],
}
SABOTAGE = {
    "theta": 2.5,
    "groups": [{"valuations": [1, -4]}, {"valuations": [1, -4]}],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    return _write


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_no_sabotage_output(self, capsys, write):
        code, out, _ = invoke(capsys, "solve", "--spec", write("s.json", NO_SABOTAGE))
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "NoSabotageEquilibrium"
        assert doc["profile"]["efforts"][0][0] == {"x": 1.0, "y": 0.0}
        assert doc["profile"]["efforts"][1][0] == {"x": 1.0, "y": 0.0}
        assert doc["thresholds"] == {"no_sabotage": 2.0, "sabotage": 8.0}
        assert doc["win_probabilities"]["p1"] == 0.5

    def test_gap_output(self, capsys, write):
        code, out, _ = invoke(capsys, "solve", "--spec", write("s.json", SYMMETRIC_GAP))
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "NoPureEquilibrium"
        assert doc["profile"] is None

    def test_validation_error_exit_code(self, capsys, write):
        bad = dict(NO_SABOTAGE, theta=-1)
        code, out, err = invoke(capsys, "solve", "--spec", write("bad.json", bad))
        assert code == 1
        assert "NonPositiveTheta" in err
        assert out == ""

    def test_unreadable_spec(self, capsys):
        code, _, err = invoke(capsys, "solve", "--spec", "/nonexistent/s.json")
        assert code == 1
        assert "SpecFileUnreadable" in err

    def test_malformed_json(self, capsys, write):
        code, _, err = invoke(capsys, "solve", "--spec", write("s.json", "{nope"))
        assert code == 1
        assert "MalformedJson" in err

    def test_deterministic_output(self, capsys, write):
        path = write("s.json", NO_SABOTAGE)
        _, first, _ = invoke(capsys, "solve", "--spec", path)
        _, second, _ = invoke(capsys, "solve", "--spec", path)
        assert first == second


class TestClassifyCommand:
    def test_symmetric_gap(self, capsys, write):
        code, out, _ = invoke(capsys, "classify", "--spec", write("s.json", SYMMETRIC_GAP))
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "NoPureEquilibrium"
        assert doc["thresholds"] == {"no_sabotage": 0.5, "sabotage": 2.0}
        assert doc["slack"] == 0.5

    def test_slack_flag(self, capsys, write):
        code, out, _ = invoke(
            capsys, "classify", "--spec", write("s.json", SYMMETRIC_GAP), "--slack"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["slack_no_sabotage"] == 0.5
        assert doc["slack_sabotage"] == 1.0

    def test_boundary_flag(self, capsys, write):
        spec = dict(SYMMETRIC_GAP, theta=0.5)
        _, out, _ = invoke(capsys, "classify", "--spec", write("s.json", spec))
        doc = json.loads(out)
        assert doc["regime"] == "NoSabotageEquilibrium"
        assert doc["boundary"] is True


class TestVerifyCommand:
    def test_solve_round_trips_through_verify(self, capsys, write):
        for spec in (NO_SABOTAGE, SABOTAGE):
            spec_path = write("s.json", spec)
            _, out, _ = invoke(capsys, "solve", "--spec", spec_path)
            profile_path = write("p.json", json.loads(out)["profile"])
            code, out, _ = invoke(
                capsys, "verify", "--spec", spec_path, "--profile", profile_path
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["is_epsilon_nash"] is True
            assert set(doc) == {"epsilon", "is_epsilon_nash", "players"}

    def test_explicit_epsilon(self, capsys, write):
        spec_path = write("s.json", SABOTAGE)
        profile = {"efforts": [[{"x": 0, "y": 0}, {"x": 0, "y": 1.3}],
                               [{"x": 0, "y": 0}, {"x": 0, "y": 1.0}]]}
        code, out, _ = invoke(
            capsys, "verify", "--spec", spec_path,
            "--profile", write("p.json", profile), "--epsilon", "1e-6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] == 1e-6
        assert doc["is_epsilon_nash"] is False

    def test_huge_opposite_efforts_report_the_gain(self, capsys, write):
        # |z1| + |z2| overflows; dropping 1e308 of building still wins.
        profile = {"efforts": [[{"x": 1e308, "y": 0}, {"x": 0, "y": 0}],
                               [{"x": 0, "y": 0}, {"x": 0, "y": 1e308}]]}
        code, out, _ = invoke(
            capsys, "verify", "--spec", write("s.json", SYMMETRIC_GAP),
            "--profile", write("p.json", profile),
        )
        assert code == 0
        top = json.loads(out)["players"][0]
        assert top["best_improvement"] == 1e308
        assert top["deviation"] == {"x": 0.0, "y": 0.0}

    def test_negative_zero_efforts_keep_their_sign(self, capsys, write):
        # Idle players at -0.0 report -0.0.  The digest was computed before
        # idle players' rows were shared.
        profile = {"efforts": [[{"x": 1.0, "y": 0}, {"x": -0.0, "y": 0}, {"x": 0, "y": -0.0}],
                               [{"x": 0.75, "y": 0}, {"x": 0, "y": 0}, {"x": -0.0, "y": -0.0}]]}
        code, out, _ = invoke(
            capsys, "verify", "--spec", write("s.json", NO_SABOTAGE),
            "--profile", write("p.json", profile),
        )
        assert code == 0
        assert '"x": -0.0' in out and '"y": -0.0' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "17078b12412649284d9818a59616c02807dc4b3985c6fba3496971c00451bcca"
        )

    def test_profile_required(self, capsys, write):
        code, _, _ = invoke(capsys, "verify", "--spec", write("s.json", SABOTAGE))
        assert code == 2

    def test_nonpositive_epsilon(self, capsys, write):
        spec_path = write("s.json", SABOTAGE)
        profile = {"efforts": [[{"x": 0, "y": 0}, {"x": 0, "y": 1}],
                               [{"x": 0, "y": 0}, {"x": 0, "y": 1}]]}
        code, _, err = invoke(
            capsys, "verify", "--spec", spec_path,
            "--profile", write("p.json", profile), "--epsilon", "-1",
        )
        assert code == 1
        assert "ContestError" in err


    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon(self, capsys, write, epsilon):
        profile = {"efforts": [[{"x": 0, "y": 0}, {"x": 0, "y": 1}],
                               [{"x": 0, "y": 0}, {"x": 0, "y": 1}]]}
        code, out, err = invoke(
            capsys, "verify", "--spec", write("s.json", SABOTAGE),
            "--profile", write("p.json", profile), f"--epsilon={epsilon}",
        )
        assert (code, out) == (1, "")
        assert "finite and positive" in err


class TestDocumentNumbers:
    HUGE = "1" + "0" * 400  # a JSON integer beyond the float range

    @pytest.mark.parametrize(
        "text",
        [
            '{"theta": %s, "groups": [{"valuations": [1, -1]}, {"valuations": [1, -1]}]}' % HUGE,
            '{"theta": 1, "groups": [{"valuations": [4, true, -1]}, {"valuations": [1, -1]}]}',
            '{"theta": "0.5", "groups": [{"valuations": [1, -1]}, {"valuations": [1, -1]}]}',
            '{"theta": 1, "groups": [{"valuations": ["4", -1]}, {"valuations": [1, -1]}]}',
        ],
        ids=["huge_theta", "boolean_valuation", "string_theta", "string_valuation"],
    )
    def test_spec_numbers_are_validation_errors(self, capsys, write, text):
        code, out, err = invoke(capsys, "classify", "--spec", write("s.json", text))
        assert (code, out) == (1, "")
        assert err.startswith("error: ValidationError:")

    @pytest.mark.parametrize("x", [HUGE, "true", '"1"'], ids=["huge", "boolean", "string"])
    def test_profile_numbers_are_validation_errors(self, capsys, write, x):
        zero = '{"x": 0, "y": 0}'
        text = f'{{"efforts": [[{{"x": {x}, "y": 0}}, {zero}], [{zero}, {zero}]]}}'
        code, out, err = invoke(
            capsys, "verify", "--spec", write("s.json", SYMMETRIC_GAP),
            "--profile", write("p.json", text),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ValidationError:")

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["long_integer", "deep_nesting"]
    )
    def test_unparseable_json_is_malformed(self, capsys, write, text):
        # Python refuses integers of more than 4300 digits and nesting
        # deeper than its recursion limit.
        code, out, err = invoke(capsys, "classify", "--spec", write("s.json", text))
        assert (code, out) == (1, "")
        assert err.startswith("error: MalformedJson:")


class TestBrokenPipe:
    def test_closed_pipe_leaves_no_traceback(self, write):
        # About 120 kB of output, more than a pipe buffers, so writing
        # outlives the reader.  Only the top players gain by moving.
        n = 400
        vals = [float(n - k) for k in range(n // 2)] + [-float(k + 1) for k in range(n // 2)]
        spec = {"theta": 1.0, "groups": [{"valuations": vals}, {"valuations": vals}]}
        group = [{"x": 1e6, "y": 0}] + [{"x": 0, "y": 0}] * (n - 1)
        profile = {"efforts": [group, group]}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "groupcontest", "verify", "--spec", write("s.json", spec),
             "--profile", write("p.json", profile)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and err == ""


class TestBrCommand:
    def test_dispatch_by_signs(self, capsys, write):
        spec_path = write("s.json", NO_SABOTAGE)
        cases = [
            (["--v", "4", "--z-minus", "0", "--z-other", "1"], "br_positive_x", 1.0),
            (["--v", "-10", "--theta", "2", "--z-minus", "4", "--z-other", "3"],
             "br_positive_y", 2.0),
            (["--v", "-4", "--theta", "1", "--z-minus", "0", "--z-other", "-1"],
             "br_negative_y", 1.0),
            (["--v", "10", "--z-minus", "-4", "--z-other", "-3"], "br_negative_x", 4.0),
        ]
        for flags, operation, effort in cases:
            code, out, _ = invoke(capsys, "br", "--spec", spec_path, *flags)
            assert code == 0
            doc = json.loads(out)
            assert doc["operation"] == operation
            assert doc["effort"] == effort

    def test_tie_reported(self, capsys, write):
        code, out, _ = invoke(
            capsys, "br", "--spec", write("s.json", NO_SABOTAGE),
            "--v", "-7", "--theta", "1", "--z-minus", "4", "--z-other", "3",
        )
        assert code == 0
        assert json.loads(out)["tie"] is True

    def test_theta_needed_for_sabotage_rules(self, capsys, write):
        code, _, err = invoke(
            capsys, "br", "--spec", write("s.json", NO_SABOTAGE),
            "--v", "-1", "--z-minus", "1", "--z-other", "1",
        )
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize("flags", [
        ["--v", "inf", "--z-minus", "0", "--z-other", "1"],
        ["--v", "4", "--z-minus", "nan", "--z-other", "1"],
        ["--v", "4", "--z-minus", "0", "--z-other=-inf"],
        ["--v", "-10", "--theta", "nan", "--z-minus", "4", "--z-other", "3"],
        ["--v", "4", "--theta", "inf", "--z-minus", "0", "--z-other", "1"],
    ])
    def test_non_finite_flags_are_refused(self, capsys, write, flags):
        code, out, err = invoke(capsys, "br", "--spec", write("s.json", NO_SABOTAGE), *flags)
        assert (code, out) == (1, "")
        assert "must be finite" in err

    def test_unsupported_signs(self, capsys, write):
        code, _, err = invoke(
            capsys, "br", "--spec", write("s.json", NO_SABOTAGE),
            "--v", "1", "--z-minus", "0", "--z-other", "0",
        )
        assert code == 1
        assert "DomainError" in err


class TestRegionCommand:
    def test_csv_output(self, capsys, write):
        code, out, _ = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE),
            "--figure", "1", "--fixed", "1", "--axis1", "1:2:2", "--axis2", "2:2:1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "axis1,axis2,margin,in_region"
        assert lines[1] == "1,2,-0.333333333,false"
        assert lines[2] == "2,2,0,true"

    def test_json_output(self, capsys, write):
        code, out, _ = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE),
            "--figure", "2", "--fixed", "1", "--axis1", "2:2:1", "--axis2", "2:2:1",
            "--format", "json",
        )
        assert code == 0
        [sample] = json.loads(out)
        # theta = 0.5 comes from the spec: 0.5 * 2 * 2 / 4 - 1 = -0.5
        assert sample == {"axis1": 2.0, "axis2": 2.0, "margin": -0.5, "in_region": False}

    def test_bad_grid_is_usage_error(self, capsys, write):
        code, _, _ = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE),
            "--figure", "1", "--fixed", "1", "--axis1", "1:2", "--axis2", "1:2:2",
        )
        assert code == 2

    def test_nonpositive_grid_is_validation_error(self, capsys, write):
        code, _, err = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE),
            "--figure", "1", "--fixed", "1", "--axis1", "0:2:3", "--axis2", "1:2:2",
        )
        assert code == 1
        assert "NonPositiveGridPoint" in err

    # SHA-256 of the output of the point-by-point sweeps and renderings
    # that came before the array-backed ones: descending, unequal and
    # 1e-300..1e308 grids, whose margins include nan where the products
    # overflow, and negative margins and exponent forms such as 7e+22.
    @pytest.mark.parametrize("spec, figure, fixed, axis1, axis2, fmt, digest", [
        (NO_SABOTAGE, "1", "1", "0.1:5:30", "0.1:5:30", "csv",
         "2698da28b5dbe64df7db88668c7907c113432e62195c4623361d5ea6ef8ce3d3"),
        (NO_SABOTAGE, "1", "1", "0.1:5:30", "0.1:5:30", "json",
         "a6cf648e5242e1e7582f200a92cfe7a0f04e7fbe46af2f7212bdaccd27dff4df"),
        (NO_SABOTAGE, "2", "0.8", "1e-300:1e308:7", "1e-300:1e300:5", "csv",
         "9a147907e512b039ee154b1edccac58eb99d3a2ca274bc649e7191b092f207d0"),
        (NO_SABOTAGE, "2", "0.8", "1e-300:1e308:7", "1e-300:1e300:5", "json",
         "5156fa6ff10e2cbc365d73b278caf24dd62f728a96737d69e555bdbb595cc266"),
        (NO_SABOTAGE, "1", "-3", "5:0.1:13", "0.5:3:4", "csv",
         "c59112ac999c45b8dadddad86312cca1b6fa14e1360eca59f10c558875ac9e4b"),
        (SABOTAGE, "2", "1e-300", "1:7:9", "1e-10:1e10:11", "csv",
         "3c7730be315aad436f4dc17ba35839fa7e7cabfc0026c7175fe4f7e28f66a223"),
        (NO_SABOTAGE, "1", "-3", "5:0.1:13", "0.5:3:4", "json",
         "7c96d0080103dae19ec9ff2362c2d7923f7ca864858a8ef710b964292ddaff81"),
        (SABOTAGE, "2", "1e-300", "1:7:9", "1e-10:1e10:11", "json",
         "519375d2a7154663ddf8bc03c58d6391e2959c123d22687e08c83d407d6e4473"),
        # Larger than one block of rendered points; the second has
        # 3-digit exponents and, at theta 1e10, margins that overflow.
        (NO_SABOTAGE, "1", "1", "0.1:5:300", "0.1:5:300", "csv",
         "c890b7e357d62dd64104d307c94baf59c1a23fdfb3653ce4b653b3f82b316df3"),
        (dict(SABOTAGE, theta=1e10), "2", "1", "1e-300:1e300:257", "1e-5:1e5:301", "csv",
         "b80b67c098c2c1a26a76dcc99a554f40431dd07f232de23fcfc3507dd0ee0b97"),
    ])
    def test_golden_output(self, capsys, write, spec, figure, fixed, axis1, axis2, fmt, digest):
        code, out, _ = invoke(
            capsys, "region", "--spec", write("s.json", spec), "--figure", figure,
            f"--fixed={fixed}", "--axis1", axis1, "--axis2", axis2, "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_memory_is_linear_in_output(self, write):
        argv = ["region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "1",
                "--fixed", "1", "--axis1", "0.1:5:200", "--axis2", "0.1:5:200",
                "--format", "json"]
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # No per-point objects: the peak is a small multiple of the text.
        assert peak < 6 * len(out.getvalue())

    def test_csv_memory_is_linear_in_output(self, write):
        argv = ["region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "1",
                "--fixed", "1", "--axis1", "0.1:5:300", "--axis2", "0.1:5:300"]
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # Blocks bound the rendering's working set: the peak is the text
        # twice (the blocks and their join) plus one block.
        assert peak < 3 * len(out.getvalue())

    @pytest.mark.parametrize("axis1, axis2, fixed", [
        ("nan:1:3", "1:inf:2", "1"),
        ("1:2:2", "1:2:2", "nan"),
        ("1:2:2", "1:2:2", "inf"),
    ])
    def test_non_finite_input_is_validation_error(self, capsys, write, axis1, axis2, fixed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            code, out, err = invoke(
                capsys, "region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "1",
                "--fixed", fixed, "--axis1", axis1, "--axis2", axis2,
            )
        assert code == 1 and out == ""
        assert "finite" in err

    # linspace is replaced, so a grid let past the budget fails the test
    # instead of allocating.
    @pytest.mark.parametrize("axis1, axis2", [
        ("1:2:1000000000000", "1:2:1"),
        ("1:2:1000000", "1:2:1000000"),
    ])
    def test_point_budget_refused_before_allocation(
        self, capsys, write, monkeypatch, axis1, axis2
    ):
        def no_linspace(*args, **kwargs):
            raise AssertionError("allocated a grid above the point budget")

        monkeypatch.setattr(cli.np, "linspace", no_linspace)
        code, out, err = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "1",
            "--fixed", "1", "--axis1", axis1, "--axis2", axis2,
        )
        assert code == 2 and out == ""
        assert str(cli.MAX_REGION_POINTS) in err

    def test_point_budget_boundary(self, capsys, write, monkeypatch):
        monkeypatch.setattr(cli, "MAX_REGION_POINTS", 6)
        argv = ["region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "1",
                "--fixed", "1", "--axis1", "1:2:2"]
        code, out, _ = invoke(capsys, *argv, "--axis2", "1:3:3")
        assert code == 0 and out.count("\n") == 1 + 6
        code, out, _ = invoke(capsys, *argv[:-1], "1:1:1", "--axis2", "1:7:7")
        assert code == 2 and out == ""


class TestDynamicsCommand:
    def test_converges_in_no_sabotage_regime(self, capsys, write):
        code, out, _ = invoke(
            capsys, "dynamics", "--spec", write("s.json", NO_SABOTAGE), "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Converged"
        assert doc["final_profile"]["efforts"][0][0]["x"] == pytest.approx(1.0, abs=1e-6)

    def test_gap_cycles(self, capsys, write):
        code, out, _ = invoke(
            capsys, "dynamics", "--spec", write("s.json", SYMMETRIC_GAP),
            "--seed", "0", "--max-iters", "200",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] in ("Cycling", "MaxIters")

    def test_initial_profile_from_file(self, capsys, write):
        profile = {"efforts": [[{"x": 1, "y": 0}, {"x": 0, "y": 0}],
                               [{"x": 1, "y": 0}, {"x": 0, "y": 0}]]}
        code, out, _ = invoke(
            capsys, "dynamics", "--spec", write("s.json", SABOTAGE),
            "--profile", write("p.json", profile), "--order", "round-robin",
        )
        assert code == 0
        assert json.loads(out)["status"] == "Converged"

    def test_deterministic_given_seed(self, capsys, write):
        spec_path = write("s.json", SYMMETRIC_GAP)
        args = ("dynamics", "--spec", spec_path, "--seed", "3", "--max-iters", "50")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_simultaneous_order(self, capsys, write):
        code, out, _ = invoke(
            capsys, "dynamics", "--spec", write("s.json", NO_SABOTAGE),
            "--seed", "2", "--order", "simultaneous",
        )
        assert code == 0
        assert json.loads(out)["status"] == "Converged"

    def test_negative_seed_is_usage_error(self, capsys, write):
        code, out, err = invoke(
            capsys, "dynamics", "--spec", write("s.json", NO_SABOTAGE), "--seed", "-1",
        )
        assert (code, out) == (2, "")
        assert "--seed" in err and "Traceback" not in err

    # The README spec below, inside and above the gap (cutoffs 2 and 8).
    # The digests were computed while profiles still held one ``Effort`` a
    # player.
    @pytest.mark.parametrize("theta, order, seed, digest", [
        (0.5, "round-robin", 1,
         "d802feb89f69b64e616ff321df8cc1a436a33aa86cf761f3a398eaa6fc4aa6b9"),
        (4.0, "round-robin", 0,
         "fa123588162d181eeaa93105819d2c9157adac9559dec51008f26313ce80b0f1"),
        (4.0, "simultaneous", 2,
         "f7db12ffad45701b4af1c2bf9a22160eaf952b0f1441469cce37f43ad5385e5f"),
        (16.0, "round-robin", 3,
         "a18e0a7ca8339256a771eee0833327451dec26a16453a4f613f978c1b95642d4"),
    ])
    def test_golden_output(self, capsys, write, theta, order, seed, digest):
        spec = dict(NO_SABOTAGE, theta=theta)
        code, out, _ = invoke(
            capsys, "dynamics", "--spec", write("s.json", spec), "--seed", str(seed),
            "--order", order, "--max-iters", "200",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of the float.hex of every jittered effort, players in order:
    # the seeded draws and their order fix the default dynamics start.
    def test_jittered_initial_golden_digest(self):
        def vals(n, top, bottom):
            return [top, *[top / 2] * (n - 2), bottom]

        lines = []
        for seed, (n1, n2, top) in enumerate([(2, 2, 1.0), (2, 60, 7.5), (60, 3, 0.25),
                                              (17, 41, 3e5)]):
            spec = make_spec(vals(n1, top, -1.0), vals(n2, 2 * top, -3.0), 1.0)
            profile = cli._jittered_initial(spec, seed)
            lines += [f"{e.x.hex()} {e.y.hex()}" for g in profile.efforts for e in g]
        assert len(lines) == 187
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3f7359bfd9fbf180759c6d947de7480d6a4b26608a26d8fff85bf6232798f3ae"
        )


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate", "--spec", "s.json")
        assert code == 2

    def test_missing_spec(self, capsys):
        code, _, _ = invoke(capsys, "solve")
        assert code == 2

    def test_csv_format_outside_region(self, capsys, write):
        code, _, err = invoke(
            capsys, "solve", "--spec", write("s.json", NO_SABOTAGE), "--format", "csv"
        )
        assert code == 2
        assert "region" in err


class TestRegionFiguresScript:
    @pytest.mark.parametrize("flags", [
        ["--points", "0"], ["--points", "-2"], ["--lo", "0"], ["--hi", "inf"], ["--lo", "nan"],
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, flags):
        script = os.path.join(os.path.dirname(__file__), "..", "scripts", "region_figures.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.run(
            [sys.executable, script, "--out", str(tmp_path / "out"), *flags],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == 2 and child.stdout == ""
        assert "error:" in child.stderr and "Traceback" not in child.stderr
        assert not (tmp_path / "out").exists()
