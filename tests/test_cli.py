import json
from pathlib import Path

import pytest

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

    def test_unparseable_times(self, capsys):
        code, _, err = invoke(capsys, "gradient-table", "--scenario", REF,
                              "--times", "100;200")
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"


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


class TestPlumbing:
    def test_missing_scenario_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("RINGFLOW_SCENARIO", raising=False)
        code, out, err = invoke(capsys, "node", "--time", "100")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "UsageError"

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

    def test_non_finite_scenario_number(self, capsys, tmp_path):
        path = tmp_path / "inf-rate.yaml"
        path.write_text(SCENARIO_PATH.read_text().replace("rate: 11",
                                                          "rate: .inf"))
        code, out, err = invoke(capsys, "pressure", "--scenario", str(path),
                                "--x", "100", "--time", "50")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValidationError"
