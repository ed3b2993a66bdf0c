import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcontest import cli
from groupcontest.cli import run
from helpers import efforts, make_spec

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


@pytest.fixture(scope="module")
def br_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("br") / "spec.json"
    path.write_text(json.dumps(NO_SABOTAGE))
    return str(path)


def _refuse_constant(name):
    raise AssertionError(f"stdout holds the non-JSON constant {name}")


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

    # The digests were computed before the peak moved onto power-of-two-scaled
    # arguments, and all but one before the four sign-regime rules became one
    # whole-axis rule: at ordinary scale every sign case, tie and clamp prints
    # the same bytes.
    @pytest.mark.parametrize("flags, digest", [
        ("--v 4 --z-minus 0 --z-other 1",
         "c748483a4fa88b443ad2150ec2933c585a1c962f1c8caf03eb06e9ebb9ff0aa1"),
        ("--v 10 --z-minus 0.5 --z-other 2",
         "3d655775b4d720ada7566627cd7a92410938ae245f7ae536dd3b081234dee78b"),
        ("--v 3 --z-minus -0.7 --z-other 0.3",
         "5f69045ac061d213e67be3a409602e91bb9e16f62c39842ff816f03ccdfb515f"),
        ("--v 1 --z-minus 2 --z-other 1",
         "f2784d177027e321122320476377b1876f01e42a7b1db32a71473035f4265dba"),
        ("--v 2.5e-3 --z-minus 1e-4 --z-other 7e-4",
         "3534d4b89c7e21241bc7ba130a33824bbd9250ac188bc8edfe95faff06c9fed4"),
        ("--v 1e10 --z-minus=-3e9 --z-other 2e9",
         "e2ae2e1b6c60fdccb686ddcd835584bf61e724f01e78c8357a63c1a35c28635e"),
        ("--v 3e100 --z-minus 1e99 --z-other 2e100",
         "b896e930c13b7ab07caca1ee8aa2ba71b1e8f795b259bd2484b0b23e27607c28"),
        ("--v -3 --theta 0.7 --z-minus -0.1 --z-other=-1.3",
         "e308b9583994bb88f3db03d015cd603f717bb8ebfb437c5f2d0196264a056ccd"),
        ("--v -10 --theta 2 --z-minus 4 --z-other 3",
         "a450b16bc5026748e04aa0c7119a417628ba9b03a4f87175e11de7ddecdf6345"),
        ("--v -1 --theta 2 --z-minus 4 --z-other 3",
         "0c7817962f52b23e6014c5c1f7d6cd651df0f1969ae7fe758bc90956f8e1a54a"),
        ("--v -7 --theta 1 --z-minus 4 --z-other 3",
         "0622a74fa6768a9a9c25ae7e254137508e0327e4b4353e421d88664438a52e0b"),
        ("--v -4 --theta 1 --z-minus 0 --z-other=-1",
         "6c62e6e8c9008192d7d20fdcd319b7edadb710a576c8e8245d0a9f9248009d01"),
        # Effort 0: the peak 1.07467309 pays -3.435 and y = 0 pays -3.0.
        ("--v -3 --theta 0.7 --z-minus 0.4 --z-other=-1.3",
         "ee941819582febcd9e840ffc5c5aea13e575413f1537c5780a027e987e3be10e"),
        ("--v -3 --theta 0.7 --z-minus -0.4 --z-other=-1.3",
         "ee941819582febcd9e840ffc5c5aea13e575413f1537c5780a027e987e3be10e"),
        ("--v -0.1 --theta 1 --z-minus -5 --z-other=-2",
         "ee941819582febcd9e840ffc5c5aea13e575413f1537c5780a027e987e3be10e"),
        ("--v 10 --z-minus -4 --z-other=-3",
         "3e4192a1ae97464f70bbc5b8e6ca3ed9690539ada224f0ac2cb28d7b1d01310c"),
        ("--v 1 --z-minus -4 --z-other=-3",
         "a2d2d84ca1c0d22fb1064a48ad816bd3c4e7bf202432f72627577ddb55b58dd1"),
        ("--v 7 --z-minus -4 --z-other=-3",
         "3ee6adde6d4d00985e491cc6b435d78fb88a0975e3515efb0e69ec71cd02e182"),
    ])
    def test_golden_output(self, capsys, write, flags, digest):
        code, out, _ = invoke(capsys, "br", "--spec", write("s.json", NO_SABOTAGE), *flags.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags, effort", [
        ("--v 1e200 --z-minus 0 --z-other 1e200", 0.0),  # v * z_other overflows
        ("--v 4e-200 --z-minus 0 --z-other 1e-200", 1e-200),  # v * z_other underflows
    ])
    def test_any_scale(self, capsys, write, flags, effort):
        code, out, _ = invoke(capsys, "br", "--spec", write("s.json", NO_SABOTAGE), *flags.split())
        assert code == 0
        assert json.loads(out)["effort"] == effort

    def test_limit_point_inside_the_rounding_band(self, capsys, write):
        # z_other is within rounding of 0 beside z_minus: the answer is the
        # limit point just past the kink, 0.05320887415337096, not 0.
        code, out, _ = invoke(
            capsys, "br", "--spec", write("s.json", NO_SABOTAGE), "--v", "0.5229479165214691",
            "--z-minus=-0.05320887415337085", "--z-other", "4.9350633364173256e-119",
        )
        assert code == 0
        assert json.loads(out) == {"operation": "br_positive_x", "effort": 0.0532088742,
                                   "tie": False}

    def test_effort_beyond_the_float_range_is_refused(self, capsys, write):
        # sqrt(v * z_other) - z_other - z_minus is about 2.1e308.
        code, out, err = invoke(
            capsys, "br", "--spec", write("s.json", NO_SABOTAGE),
            "--v", "1.7e308", "--z-minus=-1.7e308", "--z-other", "4e307",
        )
        assert (code, out) == (1, "")
        assert "beyond the float range" in err

    @settings(max_examples=200)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_finite_flags_never_print_a_non_finite_effort(self, br_spec, v, z_minus, z_other, theta):
        argv = ["br", "--spec", br_spec, f"--v={v!r}", f"--z-minus={z_minus!r}",
                f"--z-other={z_other!r}", f"--theta={theta!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1)
        if code == 0:
            effort = json.loads(out.getvalue(), parse_constant=_refuse_constant)["effort"]
            assert 0.0 <= effort < math.inf
        else:
            assert out.getvalue() == ""


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
        # JSON cannot spell those nan margins: refused (digest None).
        (NO_SABOTAGE, "2", "0.8", "1e-300:1e308:7", "1e-300:1e300:5", "json", None),
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
        code, out, err = invoke(
            capsys, "region", "--spec", write("s.json", spec), "--figure", figure,
            f"--fixed={fixed}", "--axis1", axis1, "--axis2", axis2, "--format", fmt,
        )
        if digest is None:
            assert (code, out) == (1, "") and "NonFiniteOutput" in err
            return
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
            lines += [f"{e.x.hex()} {e.y.hex()}" for g in efforts(profile) for e in g]
        assert len(lines) == 187
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3f7359bfd9fbf180759c6d947de7480d6a4b26608a26d8fff85bf6232798f3ae"
        )


class TestNonFiniteOutput:
    """JSON has no spelling for nan or the infinities, so output that
    would hold one is refused: exit 1, nothing on stdout."""

    # The sabotage cutoff, about 1e308 / 5e-324, is beyond the float range.
    TINY_AND_HUGE = {
        "theta": 1.0,
        "groups": [{"valuations": [5e-324, -5e-324]}, {"valuations": [1e308, -1e308]}],
    }

    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_infinite_cutoff(self, capsys, write, command):
        code, out, err = invoke(capsys, command, "--spec", write("s.json", self.TINY_AND_HUGE))
        assert (code, out) == (1, "")
        assert "NonFiniteOutput" in err and "Traceback" not in err

    def test_infinite_improvement(self, capsys, write):
        # The current payoff, 4 - 1e308 - 1e308, overflows to -inf, so the
        # gain from stopping is infinite.
        profile = {"efforts": [[{"x": 1e308, "y": 1e308}, {"x": 0, "y": 0}, {"x": 0, "y": 0}],
                               [{"x": 1, "y": 0}, {"x": 0, "y": 0}, {"x": 0, "y": 0}]]}
        code, out, err = invoke(
            capsys, "verify", "--spec", write("s.json", NO_SABOTAGE),
            "--profile", write("p.json", profile),
        )
        assert (code, out) == (1, "")
        assert "NonFiniteOutput" in err

    def test_infinite_improvement_at_array_size(self, capsys, write):
        # 32 players a group, so the groups may go to the arrays; the gross
        # effort overflows with no numpy RuntimeWarning on the way.
        spec = {"theta": 1.0, "groups": [{"valuations": [*range(16, 0, -1), *range(-1, -17, -1)]}] * 2}
        rows = [[{"x": 0, "y": 0}] * 32 for _ in range(2)]
        rows[0][0], rows[1][0] = {"x": 1e308, "y": 1e308}, {"x": 1, "y": 0}
        code, out, err = invoke(
            capsys, "verify", "--spec", write("s.json", spec),
            "--profile", write("p.json", {"efforts": rows}),
        )
        assert (code, out) == (1, "")
        assert "NonFiniteOutput" in err and "RuntimeWarning" not in err

    def test_csv_keeps_printing_nan(self, capsys, write):
        code, out, _ = invoke(
            capsys, "region", "--spec", write("s.json", NO_SABOTAGE), "--figure", "2",
            "--fixed", "0.8", "--axis1", "1e-300:1e308:2", "--axis2", "1e308:1e308:1",
        )
        assert code == 0
        assert ",nan,false" in out


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


def _run_script(name: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` as a child process on this checkout's ``src``."""
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, os.path.join(root, "scripts", name), *flags],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _assert_usage_error(child: subprocess.CompletedProcess) -> None:
    assert child.returncode == 2 and child.stdout == ""
    assert "error:" in child.stderr and "Traceback" not in child.stderr


class TestRegionFiguresScript:
    @pytest.mark.parametrize("flags", [
        ["--points", "0"], ["--points", "-2"], ["--lo", "0"], ["--hi", "inf"], ["--lo", "nan"],
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, flags):
        _assert_usage_error(_run_script("region_figures.py", "--out", str(tmp_path / "out"), *flags))
        assert not (tmp_path / "out").exists()


def _result_line(ops_per_s: float, p50: float, correct: bool = True) -> str:
    metrics = {"setup_s": 0.2, "ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": 2 * p50,
               "ok_ratio": 1.0, "peak_rss_mb": 40.0}
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0 if correct else 3,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})


class TestAbBenchScript:
    @pytest.fixture(scope="class")
    def ab(self):
        path = os.path.join(os.path.dirname(__file__), "..", "scripts", "ab_bench.py")
        spec = importlib.util.spec_from_file_location("ab_bench", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("override", [
        {"--workdir": None}, {"--pairs": "0"}, {"--seconds": "0"}, {"--seconds": "nan"},
        {"--seconds": "inf"}, {"--workload": "no_such"}, {"--parent": "no-such-revision"},
        {"--workdir": "CHECKOUT"}, {"--workdir": "CHECKOUT/tests"}, {"--workdir": "NOT_EMPTY"},
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, override):
        root = os.path.join(os.path.dirname(__file__), "..")
        (tmp_path / "full").mkdir()
        (tmp_path / "full" / "x").write_text("")
        places = {"CHECKOUT": root, "CHECKOUT/tests": os.path.join(root, "tests"),
                  "NOT_EMPTY": str(tmp_path / "full")}
        args = {"--parent": "HEAD", "--change": ".", "--workload": "certify_large",
                "--workdir": str(tmp_path / "work"), **override}
        argv = [a for k, v in args.items() if v is not None for a in (k, places.get(v, v))]
        _assert_usage_error(_run_script("ab_bench.py", *argv))
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("flags, expected", [
        (["all"], "ALL"),
        (["certify_large", "all"], "ALL"),
        (["region_cli", "certify_small", "region_cli"], ["region_cli", "certify_small"]),
        (["dynamics_gap"], ["dynamics_gap"]),
    ])
    def test_workloads_to_run(self, ab, tmp_path, flags, expected):
        root = os.path.join(os.path.dirname(__file__), "..")
        bench = json.loads(open(os.path.join(root, "BENCHMARK.json")).read())
        argv = ["--parent", "HEAD", "--change", ".", "--workdir", str(tmp_path / "work")]
        args = ab.parse_args(argv + [a for name in flags for a in ("--workload", name)], bench)
        if expected == "ALL":
            expected = [w["name"] for w in bench["workloads"]]
        assert args.workloads == expected
        assert not (tmp_path / "work").exists()

    def test_summary_of_canned_results(self, ab):
        names = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_ratio", "peak_rss_mb"]
        canned = [((100.0, 1.0), (130.0, 0.8)), ((110.0, 0.9), (120.0, 0.9)),
                  ((90.0, 1.1), (80.0, 1.2)), ((100.0, 1.0), (150.0, 0.7))]
        pairs = [
            {"parent": ab.parse_result(f"# header\n{_result_line(*p)}\n", names),
             "change": ab.parse_result(_result_line(*c), names)}
            for p, c in canned
        ]
        metrics = json.loads(
            open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")).read()
        )["end_to_end"]
        rows = {line.split()[0]: line for line in ab.summary(pairs, metrics).splitlines()[1:]}
        assert rows.keys() == set(names)
        # Parent ops/s 90, 100, 100, 110: median 100, inclusive quartiles 97.5 and 102.5.
        assert "100 [97.5, 102.5]" in rows["ops_per_s"]
        assert "125 [110, 135]" in rows["ops_per_s"]
        assert rows["ops_per_s"].endswith(" 3/4")
        assert rows["op_p50_ms"].endswith(" 2/4")  # lower is better; the tie counts for neither
        assert rows["setup_s"].endswith(" 0/4")

    @pytest.mark.parametrize("stdout", [
        "", "not json", '{"correct": true}', _result_line(1.0, 1.0)[:-20],
        _result_line(1.0, 1.0, correct=False),
    ])
    def test_malformed_or_wrong_results_fail(self, ab, stdout):
        with pytest.raises(ab.RunFailed):
            ab.parse_result(stdout, ["ops_per_s"])


class TestCrossoverScript:
    def test_prints_a_ratio_per_size_and_profile(self):
        child = _run_script("crossover.py", "--sizes", "2,3", "--repeat", "1")
        assert child.returncode == 0 and child.stderr == ""
        header, *rows = child.stdout.splitlines()
        assert header.split() == ["n", "profile", "arrays_us", "loop_us", "ratio"]
        assert [row.split()[:2] for row in rows] == [
            ["2", "closed"], ["2", "mixed"], ["3", "closed"], ["3", "mixed"]
        ]
        assert all(float(row.split()[-1]) > 0 for row in rows)

    @pytest.mark.parametrize("flags", [
        ["--sizes", "1"], ["--sizes", "a,b"], ["--sizes", ""], ["--repeat", "0"],
    ])
    def test_bad_arguments_are_usage_errors(self, flags):
        _assert_usage_error(_run_script("crossover.py", *flags))


class TestGapDynamicsScript:
    @pytest.mark.parametrize("flags", [
        ["--max-iters", "0"], ["--max-iters", "-3"], ["--c", "0"], ["--c", "nan"],
        ["--c", "inf"], ["--c", "-1"], ["--seeds", "0"], ["--seeds", "-1"],
    ])
    def test_bad_arguments_are_usage_errors(self, flags):
        _assert_usage_error(_run_script("gap_dynamics.py", *flags))

    def test_wrong_convergence_is_reported(self):
        # At this scale the dynamics' absolute tolerances stop every run at
        # once, inside the gap too, where no closed form exists.
        child = _run_script("gap_dynamics.py", "--c", "1e-300", "--seeds", "1")
        assert child.returncode == 1 and "Traceback" not in child.stderr
        assert "seed 0: converged, but no pure equilibrium exists" in child.stderr
        assert "away from the closed form" in child.stderr
        assert len(child.stdout.splitlines()) == 2 + 9

    # Computed before dynamics took its moves from the pick layer of the search.
    def test_golden_output(self):
        child = _run_script("gap_dynamics.py", "--seeds", "2", "--max-iters", "200")
        assert child.returncode == 0 and child.stderr == ""
        assert hashlib.sha256(child.stdout.encode()).hexdigest() == (
            "07d2471144ee9443c4f9cbfc32948fe598074c9176e640f61e3d74151bfe4188"
        )
