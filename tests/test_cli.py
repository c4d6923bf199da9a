import builtins
import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringflow.cli as cli
import ringflow.errors as errors
import ringflow.scenario as scenario_module
import ringflow.series as series_module
from ringflow import oracle
from ringflow.cli import run

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml"
REF = str(SCENARIO_PATH)


def data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNode:
    def test_reference(self, capsys):
        code, out, err = invoke(capsys, "node", "--scenario", REF,
                                "--time", "100")
        assert code == 0 and err == ""
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "x_new_m,p_pa,t_s,concave"
        x_new = float(lines[1].split(",")[0])
        assert 12000.0 < x_new < 13000.0
        assert lines[1].endswith(",true")

    def test_t0_is_numerical_failure(self, capsys):
        code, out, err = invoke(capsys, "node", "--scenario", REF,
                                "--time", "0")
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "NoExtremum"


class TestPressure:
    def test_nominal_sample(self, capsys):
        code, out, _ = invoke(capsys, "pressure", "--scenario", REF,
                              "--x", "0", "--time", "0")
        assert code == 0
        assert out.splitlines()[-1] == "0,0,125000,0"

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "pressure", "--scenario", REF,
                              "--x", "0", "--time", "50", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["p_pa"] == pytest.approx(123462.0, abs=62.0)


class TestGradientTable:
    def test_row_count_and_determinism(self, capsys):
        code, first, _ = invoke(capsys, "gradient-table", "--scenario", REF,
                                "--times", "100,200")
        assert code == 0
        data = [l for l in first.splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 62
        code, second, _ = invoke(capsys, "gradient-table", "--scenario",
                                 REF, "--times", "100,200")
        assert code == 0 and first == second

    def test_bad_dx_is_validation_error(self, capsys):
        code, out, err = invoke(capsys, "gradient-table", "--scenario", REF,
                                "--times", "100", "--dx", "7001")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParameter"

    def test_subnormal_dx_is_validation_error(self, capsys):
        # L / dx overflows to inf, beyond MAX_POSITIONS.
        code, out, err = invoke(capsys, "gradient-table", "--scenario", REF,
                                "--times", "100", "--dx", "1e-320")
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "InvalidParameter"

    def test_unparseable_times(self, capsys):
        code, _, err = invoke(capsys, "gradient-table", "--scenario", REF,
                              "--times", "100;200")
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_last_row_is_the_ring_end(self, capsys, tmp_path):
        # 3 * 10000.1 rounds to 30000.300000000003, just past L.
        path = tmp_path / "odd-length.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace(
            "length_m: 30000", "length_m: 30000.3"))
        code, out, err = invoke(capsys, "gradient-table", "--scenario",
                                str(path), "--times", "100", "--dx",
                                "10000.1")
        assert code == 0 and err == ""
        rows = data_rows(out)
        assert len(rows) == 1 + 4
        assert rows[-1].split(",")[0] == "30000.3"


class TestDrawdown:
    def test_reference_levels(self, capsys):
        code, out, _ = invoke(capsys, "drawdown", "--scenario", REF,
                              "--levels", "11,14", "--times", "0,300")
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "x_m,t_s,g_total,p_pa"
        assert len(data) == 1 + 2 * 2 * 2
        cells = {tuple(line.split(",")[:3]): line.split(",")[3]
                 for line in data[1:]}
        assert cells[("0", "300", "14")] == "105971"


class TestMaxDraw:
    def test_reference_anchor(self, capsys):
        code, out, _ = invoke(capsys, "max-draw", "--scenario", REF,
                              "--pmin", "100000", "--horizon", "300",
                              "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["g_total"] == pytest.approx(18.39, abs=0.05)
        assert row["band"] == "Permissible"
        assert row["cap_binding"] is False

    def test_cap_binds(self, capsys):
        code, out, _ = invoke(capsys, "max-draw", "--scenario", REF,
                              "--pmin", "100000", "--horizon", "300",
                              "--gmax", "5", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["g_total"] == 5.0 and row["cap_binding"] is True

    def test_infeasible_floor(self, capsys):
        code, _, err = invoke(capsys, "max-draw", "--scenario", REF,
                              "--pmin", "130000", "--horizon", "300")
        assert code == 2
        assert json.loads(err)["error"] == "InfeasibleConstraint"

    def test_heaviside_scenario_matches_point_mode(self, capsys, tmp_path):
        # The inlet drop is always taken from the point-mode response.
        path = tmp_path / "heaviside.yaml"
        path.write_text(SCENARIO_PATH.read_text()
                        + "series:\n  withdrawal_model: heaviside\n")
        argv = ("max-draw", "--pmin", "100000", "--horizon", "300")
        code, out, err = invoke(capsys, *argv, "--scenario", str(path))
        assert code == 0 and err == ""
        _, point, _ = invoke(capsys, *argv, "--scenario", REF)
        assert data_rows(out) == data_rows(point)


class TestClassify:
    def test_twenty_percent_boundary(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--nominal", "125000",
                              "--current", "100000")
        assert code == 0
        assert out.splitlines()[-1] == "125000,100000,0.2,Permissible"

    def test_scenario_thresholds_apply(self, capsys, tmp_path):
        text = SCENARIO_PATH.read_text() + (
            "safety:\n  optimal_max: 0.01\n  permissible_max: 0.02\n"
            "  unsafe_min: 0.03\n")
        path = tmp_path / "tight.yaml"
        path.write_text(text)
        code, out, _ = invoke(capsys, "classify", "--scenario", str(path),
                              "--nominal", "125000", "--current", "100000")
        assert code == 0
        assert out.splitlines()[-1].endswith("Unsafe")


class TestValidate:
    def test_quick_grid_passes(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--scenario", REF,
                              "--cells", "750", "--dt", "0.4",
                              "--times", "50")
        assert code == 0
        assert "# passed=true" in out

    def test_beyond_tolerance_keeps_table_and_reports(self, capsys):
        code, out, err = invoke(capsys, "validate", "--scenario", REF,
                                "--cells", "64", "--dt", "1", "--times", "2")
        assert code == 3
        assert "# passed=false" in out
        assert data_rows(out)[0] == "t_s,rel_l2,max_abs_pa,mean_drop_rel_err"
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ToleranceExceeded"
        assert "rel_l2" in payload["message"]
        assert "0.01" in payload["message"]


    def test_residual_failure_is_one_json_line(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "RESIDUAL_LIMIT", 0.0)
        code, out, err = invoke(capsys, "validate", "--scenario", REF,
                                "--cells", "64", "--dt", "1", "--times", "2")
        assert code == 3
        assert out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConvergenceFailure"
        assert "at step" in payload["message"]

    def test_no_snapshot_time_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "validate", "--scenario", REF,
                                "--times", ",")
        assert code == 1 and out == ""
        line, = err.splitlines()
        assert json.loads(line) == {
            "error": "UsageError",
            "message": "--times: at least one snapshot time is required"}

    @pytest.mark.parametrize("dt", ["0.5", "1"])
    def test_too_many_steps_is_validation_error(self, capsys, dt):
        # Refused before any step count is rounded or array allocated.
        code, out, err = invoke(capsys, "validate", "--scenario", REF,
                                "--cells", "100", "--dt", dt,
                                "--times", "1e308")
        assert code == 2 and out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "InvalidParameter"
        assert "steps" in payload["message"]


class TestReport:
    def test_bundle(self, capsys):
        code, out, _ = invoke(capsys, "report", "--scenario", REF)
        assert code == 0
        bundle = json.loads(out)
        ids = [r["id"] for r in bundle["discrepancies"]]
        assert len(ids) == 5
        assert "diffusion-equation-orientation" in ids

    def test_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "report", "--scenario", REF)
        _, second, _ = invoke(capsys, "report", "--scenario", REF)
        assert first == second

    def test_several_crossings(self, capsys, tmp_path, two_maxima_text):
        # node and the report give the same, higher maximum.
        path = tmp_path / "two-maxima.yaml"
        path.write_text(two_maxima_text)
        code, out, err = invoke(capsys, "report", "--scenario", str(path),
                                "--time", "1.262725154",
                                "--pmin", "106044.1626")
        assert code == 0 and err == ""
        position = json.loads(out)["coupling"]["gradient_zero_m"]
        assert position == pytest.approx(3844.95, abs=0.01)
        code, out, err = invoke(capsys, "node", "--scenario", str(path),
                                "--time", "1.262725154", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["rows"][0]["x_new_m"] == position


class TestNonFiniteJson:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_time_is_numerical_failure(self, capsys):
        # c^2 * t overflows, so the pressure is -inf: not representable,
        # and numpy's overflow warning must not reach stderr either
        for fmt in ("csv", "json"):
            code, out, err = invoke(capsys, "pressure", "--scenario", REF,
                                    "--x", "0", "--time", "1e308",
                                    "--format", fmt)
            assert code == 3
            assert out == ""
            line, = err.splitlines()
            assert json.loads(line)["error"] == "NonFiniteResult"


class TestEchoConfig:
    def test_round_trip(self, capsys, scenario):
        code, out, _ = invoke(capsys, "echo-config", "--scenario", REF)
        assert code == 0
        from ringflow import load_scenario
        assert load_scenario(out).normalized() == scenario.normalized()


class TestScenarioFiles:
    def test_echo_config_bytes(self, capsys):
        code, out, err = invoke(capsys, "echo-config", "--scenario", REF)
        assert code == 0 and err == ""
        assert out == ECHO_CONFIG

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("pipeline: [unclosed")
        code, out, err = invoke(capsys, "echo-config", "--scenario",
                                str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ParseError",
            "message": "line 1 is off the scenario layout: "
                       "'pipeline: [unclosed'"}

    def test_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace("rate: 11",
                                                          "rate: true"))
        code, out, err = invoke(capsys, "echo-config", "--scenario",
                                str(path))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": "withdrawals[0].rate: expected a number"}


#: echo-config on scenarios/reference.yaml.
ECHO_CONFIG = """\
pipeline:
  length_m: 30000.0
  sound_speed_m_s: 383.3
  linearization_a_per_s: 0.05
  inlet_pressure_pa: 140000.0
  base_flow: 10.0
withdrawals:
- position_m: 12000.0
  rate: 11.0
series:
  truncation: 100
  decay_mode: alpha
  withdrawal_model: point
  gradient_mode: base_only
  closed_form_acceleration: true
safety:
  optimal_max: 0.1
  permissible_max: 0.2
  unsafe_min: 0.25
"""


class TestPlumbing:
    def test_missing_scenario_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("RINGFLOW_SCENARIO", raising=False)
        code, out, err = invoke(capsys, "node", "--time", "100")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "UsageError"

    def test_unreadable_scenario_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.yaml")
        code, out, err = invoke(capsys, "node", "--scenario", missing,
                                "--time", "100")
        assert code == 1 and out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith(
            f"cannot read scenario {missing!r}: ")

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGFLOW_SCENARIO", REF)
        code, out, _ = invoke(capsys, "pressure", "--x", "0", "--time", "0")
        assert code == 0
        assert out.splitlines()[-1] == "0,0,125000,0"

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "node", "--scenario", REF,
                              "--time", "100", "--frobnicate")
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("pipeline: [unclosed")
        code, _, err = invoke(capsys, "echo-config", "--scenario", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_validation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace(
            "position_m: 12000", "position_m: 35000"))
        code, _, err = invoke(capsys, "node", "--scenario", str(path),
                              "--time", "100")
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "point.csv"
        code, out, _ = invoke(capsys, "pressure", "--scenario", REF,
                              "--x", "0", "--time", "0",
                              "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[-1] == "0,0,125000,0"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = invoke(capsys, "classify", "--nominal", "125000",
                                "--current", "100000", "--output",
                                str(target))
        assert code == 1 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "FileNotFoundError"
        assert not target.exists()

    def test_unforeseen_error_is_one_json_line(self, capsys, monkeypatch):
        def broken(ns):
            raise RuntimeError("a defect")

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        code, out, err = invoke(capsys, "classify", "--nominal", "125000",
                                "--current", "100000")
        assert code == 3 and out == ""
        line, = err.splitlines()
        assert json.loads(line) == {"error": "RuntimeError",
                                    "message": "a defect"}

    def test_drawdown_cell_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_TABLE_CELLS", 3)
        code, out, err = invoke(capsys, "drawdown", "--scenario", REF,
                                "--levels", "11,12", "--times", "50")
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "InvalidParameter"

    @pytest.mark.parametrize("argv", [
        ("pressure", "--x", "100", "--time", "nan", "--format", "json"),
        ("pressure", "--x", "nan", "--time", "50"),
        ("node", "--time", "inf"),
        ("gradient-table", "--times", "100,nan"),
        ("gradient-table", "--times", "100", "--dx", "nan"),
        ("drawdown", "--levels", "11,inf", "--times", "50"),
        ("drawdown", "--levels", "11", "--times", "inf"),
        ("max-draw", "--pmin", "nan", "--horizon", "300"),
        ("max-draw", "--pmin", "100000", "--horizon", "inf"),
        ("report", "--pmin", "nan"),
        ("validate", "--cells", "64", "--dt", "nan", "--times", "2"),
    ])
    def test_non_finite_input_is_validation_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--scenario", REF)
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert "error" in json.loads(line)

    @pytest.mark.parametrize("argv", [
        ("classify", "--nominal", "nan", "--current", "90"),
        ("classify", "--nominal", "inf", "--current", "90"),
        ("classify", "--nominal", "100", "--current", "nan"),
        ("classify", "--nominal", "100", "--current", "inf"),
        ("classify", "--nominal", "100", "--current=-inf"),
        ("max-draw", "--scenario", REF, "--pmin", "100000", "--horizon",
         "300", "--gmax", "nan"),
        # The horizon is the largest snapshot time, whichever holds the NaN.
        ("validate", "--scenario", REF, "--cells", "64", "--dt", "1",
         "--times", "2,nan"),
        ("validate", "--scenario", REF, "--cells", "64", "--dt", "1",
         "--times", "nan,2"),
    ])
    def test_non_finite_number_is_invalid_parameter(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "InvalidParameter"

    @pytest.mark.parametrize("argv", [
        ("gradient-table", "--dx", "0.3",
         "--times", ",".join(str(t) for t in range(1, 201))),
        ("node", "--time", "100", "--grid-step", "0.0001"),
    ])
    def test_capped_scan_is_refused_unevaluated(self, capsys, monkeypatch,
                                                argv):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the field was evaluated")

        monkeypatch.setattr(series_module, "_regularized_gradient",
                            no_kernel)
        monkeypatch.setattr(series_module, "_gradient", no_kernel)
        code, out, err = invoke(capsys, *argv, "--scenario", REF)
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "InvalidParameter"

    def test_truncation_above_cap_is_validation_error(self, capsys,
                                                     tmp_path):
        # Refused on loading: at t = 0 the field would sum every mode.
        path = tmp_path / "huge-truncation.yaml"
        path.write_text(SCENARIO_PATH.read_text()
                        + "series:\n  truncation: 1000000000000\n")
        code, out, err = invoke(capsys, "pressure", "--scenario", str(path),
                                "--x", "100", "--time", "0")
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line)["error"] == "ValidationError"

    def test_huge_scenario_integer_is_validation_error(self, capsys,
                                                       tmp_path):
        path = tmp_path / "huge-length.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace(
            "length_m: 30000", "length_m: 1" + "0" * 400))
        code, out, err = invoke(capsys, "echo-config", "--scenario",
                                str(path))
        assert code == 2 and out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == "pipeline.length_m: expected a " \
            "finite number"

    @pytest.mark.parametrize("speed", ["1.0e+308", "1.0e-200"])
    @pytest.mark.parametrize("argv", [
        ("pressure", "--x", "12000", "--time", "0"),
        ("max-draw", "--pmin", "100000", "--horizon", "300"),
        ("echo-config",)], ids=lambda argv: argv[0])
    def test_alpha_that_cannot_be_formed_is_validation_error(
            self, capsys, tmp_path, speed, argv):
        # 1e308 overflowed squaring the speed (exit 3, OverflowError), and
        # 1e-200 gave alpha 0 (exit 3, ZeroDivisionError).
        path = tmp_path / "speed.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace(
            "sound_speed_m_s: 383.3", f"sound_speed_m_s: {speed}"))
        code, out, err = invoke(capsys, *argv, "--scenario", str(path))
        assert code == 2 and out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith("pipeline: alpha ")

    def test_non_finite_scenario_number(self, capsys, tmp_path):
        path = tmp_path / "inf-rate.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace("rate: 11",
                                                          "rate: .inf"))
        code, out, err = invoke(capsys, "pressure", "--scenario", str(path),
                                "--x", "100", "--time", "50")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValidationError"


# ---------------------------------------------------------------------------
# The error contract under fuzzed argv and scenario text.
# ---------------------------------------------------------------------------

#: Flag values outside the documented range, argparse-level garbage included.
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "x1", "", "1,,2")
#: Scenario values: YAML spellings of the same, and a list and a mapping.
FUZZ_YAML = (".nan", ".inf", "-.inf", "0", "-1", "1.0e+308", "1.0e-200",
             "abc", "nan", "[1]", "{}", "", "yes", "'1'", "&a 1")

#: Flags per subcommand with in-range values; None marks a switch.  The
#: lists stay small: no drawn value asks for work near a resource cap.
FUZZ_FLAGS = {
    "node": {"time": ("0.5", "100", "600"),
             "grid-step": ("50", "100", "1000"),
             "include-withdrawals": None},
    "pressure": {"x": ("0", "12000", "30000"), "time": ("0", "50", "300")},
    "gradient-table": {"times": ("100", "50,200"), "dx": ("1000", "3000")},
    "drawdown": {"levels": ("11,12", "0"), "times": ("0,100", "300"),
                 "positions": ("0,12000",), "at": ("12000", "29000")},
    "max-draw": {"pmin": ("100000", "125000"), "horizon": ("300", "10"),
                 "gmax": ("20", "0"), "at": ("12000",),
                 "method": ("affine", "bisection")},
    "classify": {"nominal": ("125000",), "current": ("110000", "90000")},
    "validate": {},
    "report": {"time": ("100", "5"), "pmin": ("100000",)},
    "echo-config": {},
}
#: Flags that take comma-separated lists.
FUZZ_LISTS = ("times", "levels", "positions")
#: validate runs only on a grid this small: two steps of 64 cells.
FUZZ_VALIDATE = ["--cells", "64", "--dt", "1", "--times", "2"]
#: Error names the CLI documents: the package's errors, the CLI's own, and
#: the operating system's (an unreadable or unwritable path).
DOCUMENTED_ERRORS = frozenset(
    name for module in (errors, builtins)
    for name, value in vars(module).items()
    if isinstance(value, type)
    and issubclass(value, (errors.RingflowError, OSError))) \
    | {cli.UsageError.__name__, cli.ToleranceExceeded.__name__}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)
_SCENARIO_VALUE = re.compile(r"^[ -]*\w+: (\S+)$", re.M)


@st.composite
def fuzzed_queries(draw):
    """(argv without --scenario and --output, scenario text)."""
    kind = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [kind] + (FUZZ_VALIDATE if kind == "validate" else [])
    for name, good in FUZZ_FLAGS[kind].items():
        if good is None:
            argv += draw(st.sampled_from(([], [f"--{name}"])))
        elif draw(st.integers(0, 5)) < 5:
            # Mostly in range, so that most queries get past argparse.
            values = st.sampled_from(good) if draw(st.integers(0, 5)) < 4 \
                else st.sampled_from(FUZZ_VALUES)
            most = 2 if name in FUZZ_LISTS else 1
            argv.append(f"--{name}=" + ",".join(
                draw(st.lists(values, min_size=1, max_size=most))))
    if kind not in ("report", "echo-config") and draw(st.booleans()):
        argv.append("--format=" + draw(st.sampled_from(("csv", "json",
                                                        "xml"))))
    text = SCENARIO_PATH.read_text(encoding="utf-8")
    spots = list(_SCENARIO_VALUE.finditer(text))
    chosen = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=3,
                           unique_by=lambda m: m.start()))
    for spot in sorted(chosen, key=lambda m: -m.start()):
        scale = draw(st.sampled_from((0.5, 2.0)))
        value = draw(st.sampled_from(FUZZ_YAML)) \
            if draw(st.integers(0, 2)) == 2 \
            else repr(float(spot.group(1)) * scale)
        text = text[:spot.start(1)] + value + text[spot.end(1):]
    return argv, text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fuzzed_queries(), st.booleans())
def test_fuzzed_queries_keep_the_error_contract(tmp_path_factory, query,
                                                to_file):
    argv, text = query
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    (workdir / "scenario.yaml").write_text(text, encoding="utf-8")
    output = workdir / "out.txt"
    output.unlink(missing_ok=True)
    argv = argv + ["--scenario", str(workdir / "scenario.yaml")] \
        + (["--output", str(output)] if to_file else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        result = output.read_text(encoding="utf-8") if to_file \
            else out.getvalue()
        assert result and not _NON_FINITE.search(result)
    else:
        line, = err.getvalue().splitlines()
        assert json.loads(line)["error"] in DOCUMENTED_ERRORS


#: The reference scenario's numeric fields: five pipeline values, the
#: tap's position and its rate.
SCENARIO_FIELDS = ("length_m", "sound_speed_m_s", "linearization_a_per_s",
                   "inlet_pressure_pa", "base_flow", "position_m", "rate")


@pytest.mark.parametrize("value", FUZZ_YAML, ids=repr)
@pytest.mark.parametrize("field", SCENARIO_FIELDS)
def test_every_field_value_keeps_the_error_contract(tmp_path, field, value):
    """Each fuzz value in each numeric field, through ``pressure`` twice:
    the second run is served by the scenario cache if the first loaded."""
    text = SCENARIO_PATH.read_text(encoding="utf-8")
    spot, = (m for m in _SCENARIO_VALUE.finditer(text)
             if re.match(rf"[ -]*{field}:", m.group()))
    text = text[:spot.start(1)] + value + text[spot.end(1):]
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    try:
        scenario_module._load(text)
        loads, refused = True, 0
    except errors.RingflowError as exc:
        loads, refused = False, 1 if isinstance(exc, errors.ParseError) else 2
    runs = []
    for _ in range(2):
        hits = scenario_module._load_cached.cache_info().hits
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["pressure", "--scenario", str(path), "--x", "12000",
                        "--time", "50"])
        runs.append((code, out.getvalue(), err.getvalue()))
    assert scenario_module._load_cached.cache_info().hits - hits == loads
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == "" and out and not _NON_FINITE.search(out)
    else:
        line, = err.splitlines()
        assert json.loads(line)["error"] in DOCUMENTED_ERRORS
        assert out == ""
    if not loads:
        assert code == refused
