import copy
import json
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow import (DISCREPANCIES, DecayMode, GradientMode,
                      InfeasibleConstraint, InvalidParameter,
                      NonFiniteResult, OutOfDomain, ParseError,
                      PipelineConfig, RingflowError, SafetyThresholds,
                      Scenario, SeriesOptions, ValidationError,
                      WithdrawalModel, WithdrawalSchedule, admissible_table,
                      build_report, drawdown_table, dump_scenario, emit,
                      gradient_table, load_scenario)
from ringflow.scenario import ProfileTable

GOLDEN = Path(__file__).resolve().parent / "data" / "discrepancies.json"

MINIMAL = """\
pipeline:
  length_m: 30000
  sound_speed_m_s: 383.3
  linearization_a_per_s: 0.05
  inlet_pressure_pa: 140000
  base_flow: 10
"""


class TestLoadScenario:
    def test_reference_scenario(self, scenario):
        assert scenario.pipeline.nominal_pressure() == 125000.0
        assert scenario.schedule.total() == 11.0
        assert scenario.tap_position() == 12000.0
        # defaults applied
        assert scenario.series.truncation_n == 100
        assert scenario.safety.permissible_max == 0.20

    def test_hash_is_stable(self, scenario, scenario_text):
        assert scenario.scenario_hash() == load_scenario(
            scenario_text).scenario_hash()
        assert len(scenario.scenario_hash()) == 12
        int(scenario.scenario_hash(), 16)

    def test_empty_withdrawals_ok(self):
        scenario = load_scenario(MINIMAL)
        assert len(scenario.schedule) == 0

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            load_scenario("pipeline: [unclosed")

    def test_non_mapping_document(self):
        with pytest.raises(ValidationError):
            load_scenario("- just\n- a\n- list\n")
        with pytest.raises(ValidationError):
            load_scenario("")

    def test_missing_pipeline(self):
        with pytest.raises(ValidationError, match="pipeline"):
            load_scenario("withdrawals: []\n")

    def test_unknown_key_is_path_qualified(self):
        bad = MINIMAL + "series:\n  truncaton: 50\n"
        with pytest.raises(ValidationError, match=r"series\.truncaton"):
            load_scenario(bad)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="pipelines"):
            load_scenario(MINIMAL + "pipelines: {}\n")

    def test_missing_required_number(self):
        broken = MINIMAL.replace("  base_flow: 10\n", "")
        with pytest.raises(ValidationError, match=r"pipeline\.base_flow"):
            load_scenario(broken)

    def test_wrong_scalar_type(self):
        broken = MINIMAL.replace("base_flow: 10", "base_flow: true")
        with pytest.raises(ValidationError, match="expected a number"):
            load_scenario(broken)
        bad = MINIMAL + "series:\n  truncation: 12.5\n"
        with pytest.raises(ValidationError, match="expected an integer"):
            load_scenario(bad)
        bad = MINIMAL + "series:\n  closed_form_acceleration: 1\n"
        with pytest.raises(ValidationError, match="expected a boolean"):
            load_scenario(bad)

    def test_bad_enum_value(self):
        bad = MINIMAL + "series:\n  decay_mode: beta\n"
        with pytest.raises(ValidationError, match="alpha, a"):
            load_scenario(bad)

    def test_position_out_of_range(self):
        bad = MINIMAL + "withdrawals:\n- position_m: 35000\n  rate: 1\n"
        with pytest.raises(ValidationError, match="out of range"):
            load_scenario(bad)

    @pytest.mark.parametrize("old,new", [
        ("length_m: 30000", "length_m: .nan"),
        ("base_flow: 10", "base_flow: .inf"),
    ])
    def test_non_finite_number(self, old, new):
        with pytest.raises(ValidationError, match="finite"):
            load_scenario(MINIMAL.replace(old, new))
        bad = MINIMAL + "withdrawals:\n- position_m: 100\n  rate: .inf\n"
        with pytest.raises(ValidationError, match=r"withdrawals\[0\]\.rate"):
            load_scenario(bad)

    def test_invalid_physical_value_is_prefixed(self):
        broken = MINIMAL.replace("length_m: 30000", "length_m: -1")
        with pytest.raises(ValidationError, match="pipeline"):
            load_scenario(broken)

    def test_tap_position_needs_single_withdrawal(self):
        scenario = load_scenario(MINIMAL)
        with pytest.raises(ValidationError):
            scenario.tap_position()

    def test_round_trip(self, scenario):
        again = load_scenario(dump_scenario(scenario))
        assert again.normalized() == scenario.normalized()
        assert again.scenario_hash() == scenario.scenario_hash()


#: A document that sets every key, each to its default where it has one.
FULL = {
    "pipeline": {"length_m": 30000.0, "sound_speed_m_s": 383.3,
                 "linearization_a_per_s": 0.05,
                 "inlet_pressure_pa": 140000.0, "base_flow": 10.0},
    "withdrawals": [{"position_m": 12000.0, "rate": 11.0}],
    "series": {"truncation": 100, "decay_mode": "alpha",
               "withdrawal_model": "point", "gradient_mode": "base_only",
               "closed_form_acceleration": True},
    "safety": {"optimal_max": 0.10, "permissible_max": 0.20,
               "unsafe_min": 0.25},
}
REQUIRED = ("pipeline", "withdrawals[0]")


def _parent(document: dict, path: str) -> dict:
    return (document["withdrawals"][0] if path == "withdrawals[0]"
            else document[path])


@st.composite
def scenarios(draw):
    length = draw(st.floats(1.0, 1.0e6))
    a = draw(st.floats(1.0e-4, 10.0))
    base_flow = draw(st.floats(0.0, 100.0))
    pipeline = PipelineConfig(
        length_m=length, sound_speed_m_s=draw(st.floats(1.0, 2000.0)),
        linearization_a=a,
        inlet_pressure_pa=a * base_flow * length
        + draw(st.floats(1.0, 1.0e7)),
        base_flow=base_flow)
    fractions = draw(st.lists(st.floats(0.0, 0.999), min_size=1,
                              max_size=3, unique=True))
    schedule = WithdrawalSchedule.from_pairs(
        (x, draw(st.floats(0.0, 1.0e3)))
        for x in sorted({f * length for f in fractions}))
    series = draw(st.builds(
        SeriesOptions, truncation_n=st.integers(1, 1000),
        decay_mode=st.sampled_from(DecayMode),
        withdrawal_model=st.sampled_from(WithdrawalModel),
        gradient_mode=st.sampled_from(GradientMode),
        closed_form_acceleration=st.booleans()))
    bands = sorted(draw(st.lists(st.floats(1.0e-6, 0.999), min_size=3,
                                 max_size=3)))
    return Scenario(pipeline, schedule, series, SafetyThresholds(*bands))


class TestFormat:
    def test_full_document_dumps_as_written(self):
        text = yaml.safe_dump(FULL, sort_keys=False)
        assert dump_scenario(load_scenario(text)) == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scenarios())
    def test_load_inverts_dump(self, scenario):
        assert load_scenario(dump_scenario(scenario)) == scenario

    @pytest.mark.parametrize("path", [
        "pipeline.length_m", "pipeline.sound_speed_m_s",
        "pipeline.linearization_a_per_s", "pipeline.inlet_pressure_pa",
        "pipeline.base_flow",
        "withdrawals[0].position_m", "withdrawals[0].rate",
        "series.truncation", "series.decay_mode", "series.withdrawal_model",
        "series.gradient_mode", "series.closed_form_acceleration",
        "safety.optimal_max", "safety.permissible_max", "safety.unsafe_min",
    ])
    def test_every_key_is_typed_and_path_qualified(self, path):
        parent, key = path.rsplit(".", 1)
        document = copy.deepcopy(FULL)
        _parent(document, parent)[key] = "wrong"
        with pytest.raises(ValidationError,
                           match=re.escape(path) + ": expected "):
            load_scenario(yaml.safe_dump(document))
        del _parent(document, parent)[key]
        text = yaml.safe_dump(document)
        if parent in REQUIRED:
            with pytest.raises(ValidationError, match=re.escape(path)
                               + ": missing required key"):
                load_scenario(text)
        else:       # an omitted key takes its default, as written in FULL
            assert load_scenario(text) == load_scenario(
                yaml.safe_dump(FULL))


class TestGradientTable:
    def test_reference_layout(self, scenario):
        table = gradient_table(scenario, [100.0, 200.0], 1000.0)
        assert table.columns == ("x_m", "t_s", "dP_dx_pa_per_m")
        assert len(table.rows) == 62
        assert table.axis == "space_scan"
        xs = [row[0] for row in table.rows]
        assert xs == sorted(xs)

    def test_reference_anchor(self, scenario):
        table = gradient_table(scenario, [100.0], 1000.0)
        first = table.rows[0]
        assert first[:2] == (0.0, 100.0)
        assert first[2] == pytest.approx(1.6334, rel=0.01)

    def test_tap_row_is_regularized(self, scenario):
        table = gradient_table(scenario, [100.0], 1000.0)
        tap_rows = [row for row in table.rows if row[0] == 12000.0]
        assert tap_rows == [(12000.0, 100.0, 0.0)]

    def test_t0_column_is_zero(self, scenario):
        table = gradient_table(scenario, [0.0], 3000.0)
        assert all(row[2] == 0.0 for row in table.rows)

    def test_dx_must_divide_length(self, scenario):
        with pytest.raises(InvalidParameter):
            gradient_table(scenario, [100.0], 7001.0)

    @pytest.mark.parametrize("dx", [math.nan, math.inf])
    def test_rejects_non_finite_dx(self, scenario, dx):
        with pytest.raises(InvalidParameter):
            gradient_table(scenario, [100.0], dx)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, scenario, t):
        with pytest.raises(OutOfDomain):
            gradient_table(scenario, [100.0, t], 1000.0)

    def test_metadata_attribution(self, scenario):
        table = gradient_table(scenario, [100.0], 1000.0)
        assert table.metadata["scenario"] == scenario.scenario_hash()
        assert table.metadata["truncation"] == 100
        assert table.metadata["decay_mode"] == "alpha"


class TestDrawdownTable:
    def test_reference_anchors(self, scenario):
        table = drawdown_table(scenario, [0.0, 12000.0],
                               [0.0, 50.0, 300.0], [11.0, 14.0])
        values = {(row[0], row[1], row[2]): row[3] for row in table.rows}
        assert len(values) == 12
        assert values[(0.0, 0.0, 11.0)] == 125000.0
        assert values[(0.0, 50.0, 11.0)] == pytest.approx(123462.0, abs=62.0)
        assert values[(0.0, 300.0, 14.0)] == pytest.approx(105971.0,
                                                           abs=62.0)

    def test_rows_sorted_by_time(self, scenario):
        table = drawdown_table(scenario, [0.0, 12000.0], [0.0, 50.0, 100.0],
                               [11.0, 12.0])
        times = [row[1] for row in table.rows]
        assert times == sorted(times)
        assert table.axis == "time_scan"

    def test_negative_level_rejected(self, scenario):
        with pytest.raises(InvalidParameter):
            drawdown_table(scenario, [0.0], [50.0], [-1.0])

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, scenario, level):
        with pytest.raises(InvalidParameter):
            drawdown_table(scenario, [0.0], [50.0], [level])

    @pytest.mark.parametrize("x,t", [(math.nan, 50.0), (0.0, math.inf)])
    def test_rejects_non_finite_point(self, scenario, x, t):
        with pytest.raises(OutOfDomain):
            drawdown_table(scenario, [x], [t], [11.0])

    def test_explicit_tap_override(self, scenario):
        table = drawdown_table(scenario, [0.0], [50.0], [11.0], tap_m=9000.0)
        assert table.metadata["tap_m"] == 9000.0


class TestAdmissibleTable:
    def test_reference_anchor(self, scenario):
        table = admissible_table(scenario, [300.0], 100000.0)
        assert table.columns == ("t_s", "p_tap_pa", "g_total")
        (t, p_tap, g_total), = table.rows
        assert t == 300.0
        assert g_total == pytest.approx(18.39, abs=0.05)
        assert p_tap < 125000.0

    def test_floor_at_nominal_gives_zero(self, scenario):
        table = admissible_table(scenario, [50.0, 300.0], 125000.0)
        assert all(row[2] == pytest.approx(0.0, abs=1e-12)
                   for row in table.rows)

    def test_column_nonincreasing_in_time(self, scenario):
        table = admissible_table(scenario,
                                 [50.0, 100.0, 150.0, 200.0, 250.0, 300.0],
                                 100000.0)
        totals = [row[2] for row in table.rows]
        assert totals == sorted(totals, reverse=True)

    def test_floor_above_nominal_infeasible(self, scenario):
        with pytest.raises(InfeasibleConstraint):
            admissible_table(scenario, [300.0], 130000.0)

    def test_requires_positive_times(self, scenario):
        with pytest.raises(InvalidParameter):
            admissible_table(scenario, [0.0], 100000.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_requires_finite_times(self, scenario, t):
        with pytest.raises(InvalidParameter):
            admissible_table(scenario, [t], 100000.0)

    def test_rejects_non_finite_floor(self, scenario):
        with pytest.raises(InvalidParameter, match="finite"):
            admissible_table(scenario, [300.0], math.nan)

    def test_self_consistency_note(self, scenario):
        table = admissible_table(scenario, [300.0], 100000.0)
        assert table.metadata["note"] == "self-consistent recomputation"
        assert table.metadata["footnote"] == \
            "admissible-withdrawal-reference-table"


class TestEmit:
    def test_csv_shape(self, scenario):
        text = emit(gradient_table(scenario, [100.0], 1000.0), "csv")
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert comments == sorted(comments)
        header_index = len(comments)
        assert lines[header_index] == "x_m,t_s,dP_dx_pa_per_m"
        assert len(lines) == header_index + 1 + 31
        assert text.endswith("\n")
        assert "," in lines[-1]

    def test_deterministic(self, scenario):
        table = drawdown_table(scenario, [0.0, 12000.0], [0.0, 50.0],
                               [11.0])
        assert emit(table, "csv") == emit(table, "csv")
        assert emit(table, "json") == emit(table, "json")

    def test_json_round_structure(self, scenario):
        table = admissible_table(scenario, [300.0], 100000.0)
        payload = json.loads(emit(table, "json"))
        assert payload["columns"] == ["t_s", "p_tap_pa", "g_total"]
        assert payload["rows"][0]["g_total"] == pytest.approx(18.39,
                                                              abs=0.05)
        assert payload["metadata"]["scenario"] == scenario.scenario_hash()

    def test_six_significant_digits(self):
        table = ProfileTable(axis="time_scan", columns=("v", "w", "flag"),
                             rows=((123456.789, -0.0, True),),
                             metadata={"k": 1.23456789})
        text = emit(table, "csv")
        assert "# k=1.23457" in text
        assert "123457,0,true" in text

    def test_unknown_format(self, scenario):
        with pytest.raises(InvalidParameter):
            emit(gradient_table(scenario, [100.0], 1000.0), "xml")

    # The json cases keep their bare ids ("nan", ...).
    @pytest.mark.parametrize("fmt,cell", [
        pytest.param(fmt, cell, id=f"{prefix}{cell}")
        for fmt, prefix in (("json", ""), ("csv", "csv-"))
        for cell in (math.nan, math.inf, -math.inf)])
    def test_json_refuses_non_finite_cell(self, fmt, cell):
        table = ProfileTable(axis="time_scan", columns=("t_s", "p_pa"),
                             rows=((1.0, cell),), metadata={})
        message = "not valid JSON" if fmt == "json" else "not finite"
        with pytest.raises(NonFiniteResult, match=message):
            emit(table, fmt)
        assert issubclass(NonFiniteResult, RingflowError)
        assert issubclass(NonFiniteResult, ArithmeticError)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_json_refuses_non_finite_metadata(self, fmt):
        table = ProfileTable(axis="time_scan", columns=("t_s",),
                             rows=((1.0,),), metadata={"bound": math.nan})
        with pytest.raises(NonFiniteResult):
            emit(table, fmt)


class TestReport:
    def test_bundle_contents(self, scenario):
        report = build_report(scenario)
        assert set(report) == {"scenario", "coupling", "tables",
                               "discrepancies"}
        assert report["scenario"]["nominal_pressure_pa"] == 125000.0
        assert report["coupling"]["configured_tap_m"] == 12000.0
        assert report["coupling"]["gradient_zero_m"] == pytest.approx(
            12675.5, abs=1.0)
        assert set(report["tables"]) == {"gradient", "drawdown",
                                         "admissible"}
        levels = {row["g_total"]
                  for row in report["tables"]["drawdown"]["rows"]}
        assert levels == {11.0, 12.0, 13.0, 14.0}

    def test_discrepancy_ledger_matches_golden_file(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert [dict(r) for r in DISCREPANCIES] == golden

    def test_all_five_discrepancies_present(self, scenario):
        report = build_report(scenario)
        ids = [record["id"] for record in report["discrepancies"]]
        assert ids == [
            "junction-pressure-reference-series",
            "admissible-withdrawal-reference-table",
            "inversion-time-kernel-pi-factor",
            "diffusion-equation-orientation",
            "tap-position-vs-gradient-zero",
        ]

    def test_report_is_json_serializable_and_stable(self, scenario):
        one = json.dumps(build_report(scenario), sort_keys=True)
        two = json.dumps(build_report(scenario), sort_keys=True)
        assert one == two
