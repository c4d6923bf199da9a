import copy
import dataclasses
import enum
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow import (DISCREPANCIES, DecayMode, GradientMode,
                      InfeasibleConstraint, InvalidParameter,
                      NonFiniteResult, OutOfDomain,
                      ParseError, PipelineConfig, RingflowError,
                      SafetyThresholds, Scenario, SeriesOptions,
                      ValidationError, WithdrawalModel, WithdrawalPoint,
                      WithdrawalSchedule, admissible_table,
                      build_report, drawdown_table, dump_scenario, emit,
                      find_coupling_point, gradient_table, load_scenario)
import ringflow.scenario as scenario_module
import ringflow.series as series_module
from ringflow.scenario import ProfileTable
from conftest import pyyaml_document

GOLDEN = Path(__file__).resolve().parent / "data" / "discrepancies.json"

MINIMAL = """\
pipeline:
  length_m: 30000
  sound_speed_m_s: 383.3
  linearization_a_per_s: 0.05
  inlet_pressure_pa: 140000
  base_flow: 10
"""


def no_gradient(*args, **kwargs):
    raise AssertionError("the field was evaluated")


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

    def test_unconstructible_scalar(self):
        with pytest.raises(ParseError, match="^line 1 is off the scenario "
                           "layout: 'pipeline: !!timestamp 2020-13-45'$"):
            load_scenario("pipeline: !!timestamp 2020-13-45\n")

    def test_non_mapping_document(self):
        with pytest.raises(ParseError, match="^line 1 "):
            load_scenario("- just\n- a\n- list\n")

    def test_missing_pipeline(self):
        with pytest.raises(ValidationError, match="pipeline"):
            load_scenario("withdrawals: []\n")

    def test_unknown_key_is_path_qualified(self):
        bad = MINIMAL + "series:\n  truncaton: 50\n"
        with pytest.raises(ValidationError, match=r"series\.truncaton"):
            load_scenario(bad)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="pipelines"):
            load_scenario(MINIMAL + "pipelines: {a: 1}\n")

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

    def test_truncation_above_cap(self):
        text = MINIMAL + "series:\n  truncation: 1000000000000\n"
        with pytest.raises(ValidationError,
                           match=r"^series: truncation_n must be <= 100000$"):
            load_scenario(text)

    def test_invalid_physical_value_is_prefixed(self):
        broken = MINIMAL.replace("length_m: 30000", "length_m: -1")
        with pytest.raises(ValidationError, match="pipeline"):
            load_scenario(broken)

    def test_withdrawals_must_be_a_list(self):
        with pytest.raises(ValidationError,
                           match=r"^withdrawals: expected a list$"):
            load_scenario(MINIMAL + "withdrawals: {position_m: 1, rate: 2}\n")

    @pytest.mark.parametrize("speed", ["1.0e+308", "1.0e+160", "1.0e-200"])
    def test_alpha_that_cannot_be_formed(self, speed):
        # c^2 overflows, or underflows to an alpha of 0.
        text = MINIMAL.replace("sound_speed_m_s: 383.3",
                               f"sound_speed_m_s: {speed}")
        with pytest.raises(ValidationError,
                           match=r"^pipeline: alpha .* must be a float > 0$"):
            load_scenario(text)

    def test_infinite_alpha_loads(self):
        text = MINIMAL.replace("linearization_a_per_s: 0.05",
                               "linearization_a_per_s: 1.0e-320")
        assert load_scenario(text).pipeline.alpha() == math.inf

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


#: Values a scenario built in code may hold where a loaded one holds a
#: finite float, an int, a bool or an enum member.
_ODD_NUMBERS = [lambda v: int(v) or 1, np.float64, lambda v: True,
                lambda v: math.inf]
_ODD_WORDS = [1, "a", "point", "full", None, [1], 2.5, math.inf, np.int64(3),
              {"a": 1}, True]


@st.composite
def odd_scenarios(draw):
    """A scenario of :func:`scenarios` with up to three values swapped for
    ones only code builds: an int, a numpy float, a bool or an infinity for
    a number, any value for a series option."""
    scenario = draw(scenarios())
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(["pipeline", "safety", "series",
                                     "withdrawal"]))
        obj = scenario.schedule.points[0] if part == "withdrawal" \
            else getattr(scenario, part)
        name = draw(st.sampled_from([f.name for f in dataclasses.fields(obj)]))
        value = draw(st.sampled_from(_ODD_WORDS)) if part == "series" \
            else draw(st.sampled_from(_ODD_NUMBERS))(getattr(obj, name))
        try:
            new = dataclasses.replace(obj, **{name: value})
            if part == "withdrawal":
                scenario = dataclasses.replace(
                    scenario, schedule=WithdrawalSchedule(
                        (new, *scenario.schedule.points[1:])))
            else:
                scenario = dataclasses.replace(scenario, **{part: new})
        except (InvalidParameter, TypeError, ValueError, OverflowError):
            pass                            # a value the dataclass refuses
    return scenario


def _json_hash(scenario: Scenario) -> str:
    text = json.dumps(scenario.normalized(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class TestScenarioHash:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(odd_scenarios())
    def test_hash_is_that_of_the_json_text(self, scenario):
        """The hash is of ``json.dumps(normalized(), sort_keys=True,
        separators=(",", ":"))`` for every scenario, built in code with
        any value too: the same digest, or the same error."""
        try:
            want = _json_hash(scenario)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                scenario.scenario_hash()
        else:
            assert scenario.scenario_hash() == want

    def test_numpy_int_raises_as_json_does(self, scenario):
        odd = dataclasses.replace(scenario, series=dataclasses.replace(
            scenario.series, decay_mode=np.int64(3)))
        with pytest.raises(TypeError):
            _json_hash(odd)
        with pytest.raises(TypeError):
            odd.scenario_hash()

    def test_loaded_scenarios_hash_their_json_text(self, scenario):
        for text in (dump_scenario(scenario), MINIMAL, FLOW_SECTIONS[
                "flow-sections"]):
            loaded = load_scenario(text + "# loaded\n")
            assert loaded.scenario_hash() == _json_hash(loaded)

    @pytest.mark.parametrize("section, name", [
        (section, field.name) for section, cls in (
            ("pipeline", PipelineConfig), ("schedule", WithdrawalPoint),
            ("series", SeriesOptions), ("safety", SafetyThresholds))
        for field in dataclasses.fields(cls)])
    def test_every_field_reaches_the_hash(self, scenario, section, name):
        """A one-step change to any field of the four section classes (an
        ulp, one more mode, another enum member, the other boolean)
        changes the hash and the dumped text."""
        def changed(obj):
            value = getattr(obj, name)
            if isinstance(value, bool):
                other = not value
            elif isinstance(value, enum.Enum):
                other = next(m for m in type(value) if m is not value)
            elif isinstance(value, int):
                other = value + 1
            else:
                other = math.nextafter(value, math.inf)
            return dataclasses.replace(obj, **{name: other})

        if section == "schedule":
            value = WithdrawalSchedule(tuple(map(changed,
                                                 scenario.schedule.points)))
        else:
            value = changed(getattr(scenario, section))
        other = dataclasses.replace(scenario, **{section: value})
        assert other.scenario_hash() != scenario.scenario_hash()
        assert dump_scenario(other) != dump_scenario(scenario)

    def test_checks_are_built_once(self, scenario, monkeypatch):
        def fields(cls):
            raise AssertionError("dataclasses.fields called on a load")

        monkeypatch.setattr(scenario_module, "fields", fields)
        text = dump_scenario(scenario) + "# checks-built-once\n"
        assert load_scenario(text) == scenario


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
        wrong = [("wrong", "expected ")]
        if parent != "series":      # float keys; an integer beyond floats
            wrong.append((10**400, "expected a finite number"))
        for value, message in wrong:
            _parent(document, parent)[key] = value
            with pytest.raises(ValidationError,
                               match=re.escape(path) + ": " + message):
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


def yaml_dump(scenario) -> str:
    """The text PyYAML's safe dumper writes: the reference for
    ``dump_scenario``, which writes without PyYAML."""
    return yaml.safe_dump(scenario.normalized(), sort_keys=False,
                          default_flow_style=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_dump_is_pyyaml_text_in_the_layout(scenario):
    text = dump_scenario(scenario)
    assert text == yaml_dump(scenario)
    assert repr(scenario_module._read_layout(text)) \
        == repr(pyyaml_document(text))
    assert load_scenario(text) == scenario


@pytest.mark.parametrize("rate", [
    0.0, 1.5e-7, 5e-324, 2.2250738585072014e-308, 123456.789, 1e16, 1e17,
    1.25e22, 1.7976931348623157e308, math.inf], ids=repr)
def test_dump_writes_floats_as_pyyaml_does(scenario, rate):
    """Exponents written by ``repr`` without a point get ``.0``; an
    infinite rate, which ``WithdrawalPoint`` takes, is written ``.inf``."""
    point = dataclasses.replace(scenario.schedule.points[0], rate=rate)
    odd = dataclasses.replace(scenario, schedule=WithdrawalSchedule((point,)))
    assert dump_scenario(odd) == yaml_dump(odd)


@st.composite
def report_scenarios(draw):
    """One-tap scenarios on a ring the report's 1000 m grid divides."""
    scenario = draw(scenarios())
    cfg = scenario.pipeline
    length = 1000.0 * draw(st.integers(2, 100))
    pipeline = PipelineConfig(
        length, cfg.sound_speed_m_s, cfg.linearization_a,
        cfg.linearization_a * cfg.base_flow * length
        + draw(st.floats(1.0e3, 1.0e7)), cfg.base_flow)
    tap = dataclasses.replace(scenario.schedule.points[0],
                              position_m=draw(st.floats(0.0, 0.999)) * length)
    return dataclasses.replace(scenario, pipeline=pipeline,
                               schedule=WithdrawalSchedule((tap,)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(report_scenarios(), st.floats(20.0, 400.0))
def test_report_text_is_json_text(scenario, time_s):
    try:
        bundle = build_report(scenario, coupling_time_s=time_s)
    except RingflowError:       # no coupling point, or no admissible draw
        return
    assert scenario_module.dump_json(bundle) \
        == json.dumps(bundle, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def empty_cache():
    """The scenario cache, emptied before the test; yields its info."""
    scenario_module._load_cached.cache_clear()
    yield scenario_module._load_cached.cache_info


class TestScenarioCache:
    def test_equal_text_is_the_same_scenario(self, scenario_text,
                                             empty_cache):
        first = load_scenario(scenario_text)
        copy_text = scenario_text[:-1] + scenario_text[-1]
        assert copy_text is not scenario_text
        assert load_scenario(copy_text) is first
        info = empty_cache()
        assert info.hits == 1 and info.misses == 1
        # Shared by every caller, so nothing in it can be changed.
        for part in (first, first.pipeline, first.schedule,
                     first.schedule.points[0], first.series, first.safety):
            name = dataclasses.fields(part)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, name, getattr(part, name))
        assert isinstance(first.schedule.points, tuple)

    @pytest.mark.parametrize("text, error", [
        ("pipeline: [unclosed\n", ParseError),
        ("withdrawals: []\n", ValidationError),
        (MINIMAL.replace("30000", "-1"), ValidationError),
    ])
    def test_failures_are_not_kept(self, text, error, empty_cache):
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as caught:
                load_scenario(text)
            messages.add(str(caught.value))
        assert len(messages) == 1
        info = empty_cache()
        assert info.currsize == 0 and info.hits == 0 and info.misses == 3

    def test_bytes_load_uncached(self, scenario_text, empty_cache):
        with pytest.raises(TypeError):
            load_scenario(scenario_text.encode("utf-8"))
        assert empty_cache().currsize == 0

    def test_bounded(self, scenario_text, empty_cache):
        texts = [scenario_text + f"# {i}\n" for i in range(300)]
        for text in texts:
            load_scenario(text)
        assert empty_cache().currsize == scenario_module._SCENARIO_CACHE \
            == 256
        load_scenario(texts[-1])            # the newest is kept
        load_scenario(texts[0])             # the oldest was dropped
        info = empty_cache()
        assert info.hits == 1 and info.misses == 301


#: The scenario examples of the README and of the module docstring.
_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
LAYOUT_EXAMPLES = {
    "readme": _README.split("```yaml\n", 1)[1].split("```", 1)[0],
    "docstring": "".join(
        line[4:] + "\n" for line in scenario_module.__doc__.split(
            "::\n\n", 1)[1].split("\n\n", 1)[0].splitlines()),
}

#: Texts PyYAML reads otherwise, or that lie outside the layout; the reader
#: refuses each.
OFF_LAYOUT = {
    "yes-value": MINIMAL + "series:\n  closed_form_acceleration: yes\n",
    "off-value": MINIMAL + "series:\n  closed_form_acceleration: off\n",
    "null-value": MINIMAL.replace("base_flow: 10", "base_flow: null"),
    "on-key": MINIMAL + "series:\n  on: 1\n",
    "no-section": MINIMAL + "no:\n  rate: 1\n",
    "true-key": MINIMAL + "withdrawals:\n- {true: 1, rate: 2}\n",
    "quoted": MINIMAL.replace("length_m", "'length_m'"),
    "double-quoted": MINIMAL.replace("30000", '"30000"'),
    "anchor": MINIMAL.replace("10\n", "&ten 10\n"),
    "tag": MINIMAL.replace("10\n", "!!float 10\n"),
    "document-start": "---\n" + MINIMAL,
    "document-end": MINIMAL + "...\n",
    "plus-sign": MINIMAL.replace("30000", "+30000"),
    "octal": MINIMAL.replace("30000", "030000"),
    "underscore": MINIMAL.replace("30000", "30_000"),
    "plus-inf": MINIMAL.replace("10\n", "+.inf\n"),
    "minus-nan": MINIMAL.replace("10\n", "-.nan\n"),
    "title-inf": MINIMAL.replace("10\n", ".Inf\n"),
    "upper-case": MINIMAL.replace("10\n", "1.0E+1\n"),
    "true-title": MINIMAL + "series:\n  closed_form_acceleration: True\n",
    "unsigned-exponent": MINIMAL.replace("30000", "3.0e4"),
    "no-point": MINIMAL.replace("30000", "3e+4"),
    "empty-flow": MINIMAL + "withdrawals:\n- {}\n",
    "long-digits": MINIMAL.replace("30000", "3" * 5000),
    "crlf": MINIMAL.replace("\n", "\r\n"),
    "tab": MINIMAL.replace("  base_flow", "\tbase_flow"),
    "tab-comment": MINIMAL + "# a\tb\n",
    "line-break-in-comment": MINIMAL.replace("10\n", "10 # a\x85safety: 1\n"),
    "control-in-comment": MINIMAL.replace("10\n", "10 # a\x07\n"),
    "non-ascii-comment": MINIMAL + "# 30 km – reference\n",
    "three-spaces": MINIMAL.replace("  base_flow", "   base_flow"),
    "top-level-scalar": "pipeline: 3\n",
    "empty-flow-section": MINIMAL + "series: {}\n",
    "nested-flow-section": MINIMAL + "series: {truncation: {n: 10}}\n",
    "quoted-flow-value": MINIMAL + "series: {decay_mode: 'a'}\n",
    "flow-section-comma": MINIMAL + "series: {truncation: 10,decay_mode: a}\n",
    "mixed-items": MINIMAL + "withdrawals:\n  - {rate: 1}\n- {rate: 2}\n",
    "flow-then-block": MINIMAL + "withdrawals:\n- {rate: 1}\n  position_m: 2\n",
    "hash-in-value": MINIMAL.replace("10\n", "10#x\n"),
    "top-level-pair": MINIMAL + "extra: 1\n",
    "empty-value": MINIMAL.replace("10\n", "\n"),
    "flow-list": MINIMAL.replace("10\n", "[1]\n"),
}

#: Texts the reader reads, though no scenario loads from them: a section
#: with no entries, a non-finite number, no section at all; each with the
#: validation error its document gets.
UNLOADABLE = {
    "empty": ("", "pipeline: missing required section"),
    "comment-only": ("# nothing\n\n", "pipeline: missing required section"),
    "empty-pipeline": ("pipeline:\n", "pipeline: expected a mapping"),
    "empty-section": (MINIMAL + "series:\n", "series: expected a mapping"),
    "empty-withdrawals": (MINIMAL + "withdrawals:\n",
                          "withdrawals: expected a list"),
    "inf": (MINIMAL.replace("10\n", ".inf\n"),
            "pipeline.base_flow: expected a finite number"),
    "nan": (MINIMAL.replace("30000", ".nan"),
            "pipeline.length_m: expected a finite number"),
    "minus-inf-rate": (MINIMAL + "withdrawals:\n- {position_m: 1, "
                       "rate: -.inf}\n",
                       "withdrawals[0].rate: expected a finite number"),
}

#: Keys and scalars of the layout; keys and scalars PyYAML reads otherwise
#: or that lie outside the layout; what may end a line; and fragments the
#: property below writes over a text.
_KEYS = ["pipeline", "withdrawals", "series", "rate", "a", "_"]
_TOKENS = ["0", "-0", "7", "-12", "1.5", "1.", "-0.0", "0.10", "1.5e+3",
           "1.5e-3", "true", "false", "alpha", "a", "_", "base_only"]
_ODD_KEYS = ["yes", "on", "null", "true", "Key", "'a'"]
_ODD_TOKENS = ["012", "+5", "1_0", "1.5e3", "1e+5", "1.5E+3", ".inf", "0x1f",
               "1:30", "True", "yes", "off", "null", "~", "'a'", "9" * 5000]
_ENDS = ["", "", " # c", "  # a: [b]", "  "]
_ODD_ENDS = [" # \t", "#c", " # \x85x: 1", " # \x07"]
_NOISE = ["\r\n", "\n", "\t", " ", "  ", "# c", "#", ":", "- ", "{", "}",
          ", ", "---\n", "\x85", "\xa0", "\u2028", "\ufeff", "\xe9"]
#: Section shapes: entries of one pair, flow items or block items, each at
#: an indentation.
_SHAPES = [("map", "  "), ("map", "  "), ("map", "    "), ("flow", "  "),
           ("flow", ""), ("block", "  "), ("block", "")]


@st.composite
def layout_texts(draw):
    """A text in the layout, or near it: sections of entries, or of flow
    or block items, of layout keys and scalars; up to two keys, scalars or
    line ends of those that PyYAML reads otherwise or that lie outside the
    layout; a blank, comment, empty-list or empty-section line; then up to
    two fragments of ``_NOISE`` written over it."""
    pair = st.tuples(st.sampled_from(_KEYS), st.one_of(
        st.sampled_from(_TOKENS), st.integers().map(str),
        st.floats(allow_nan=False).map(repr)), st.sampled_from(_ENDS))
    sections = [(section, draw(st.sampled_from(_SHAPES)),
                 draw(st.lists(st.lists(pair.map(list), min_size=1,
                                        max_size=3), min_size=1, max_size=3)))
                for section in draw(st.lists(st.sampled_from(_KEYS),
                                             min_size=1, max_size=3))]
    pairs = [pair for _, _, entries in sections for entry in entries
             for pair in entry]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        field = draw(st.integers(0, 2))
        pairs[draw(st.integers(0, len(pairs) - 1))][field] = draw(
            st.sampled_from((_ODD_KEYS, _ODD_TOKENS, _ODD_ENDS)[field]))
    texts = []
    for section, (kind, indent), entries in sections:
        lines = [section + ":"]
        for entry in entries:
            first = "%s: %s%s" % tuple(entry[0])
            rest = [indent + "  %s: %s%s" % tuple(pair) for pair in entry[1:]]
            if kind == "map":
                lines.append(indent + first)
            elif kind == "flow":
                flow = ", ".join("%s: %s" % tuple(pair[:2]) for pair in entry)
                lines.append(indent + "- {" + flow + "}")
            else:
                lines.append(draw(st.sampled_from([indent] * 9 + ["", "  "]))
                             + "- " + first)
                lines.extend(rest)
        texts.append("\n".join(lines))
    texts.insert(draw(st.integers(0, len(texts))), draw(
        st.sampled_from(["", "  # note: [x]", "withdrawals: []", "safety:"])))
    text = "\n".join(texts) + "\n"
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = (text[:at] + draw(st.sampled_from(_NOISE))
                + text[at + draw(st.integers(0, 2)):])
    return text


#: Sections written as one flow mapping, which the reader reads too.
FLOW_SECTIONS = {
    "flow-section": MINIMAL + "series: {truncation: 10}\n",
    "flow-sections": "safety: {optimal_max: 0.1, unsafe_min: 0.3}  # c\n"
                     + MINIMAL + "series: {decay_mode: a, truncation: 7}\n",
    "unknown-flow-section": MINIMAL + "extras: {colour: red}\n",
}

#: Section words, keys, values and line ends of the flow-section property:
#: those of the layout, then those PyYAML reads otherwise or that lie
#: outside it (reserved words, quotes, nested flows, other spacing).
_FLOW_WORDS = ["pipeline", "withdrawals", "series", "safety", "extras",
               "colour", "truncation", "a", "_"]
_ODD_FLOW_WORDS = ["on", "no", "null", "true", "True", "'a'", "A"]
_FLOW_VALUES = ["red", "alpha", "a", "_", "true", "false", "0", "-0", "1.",
                "1.5e+3", "-2.5e-7"]
_ODD_FLOW_VALUES = ["yes", "off", "null", "True", "~", ".inf", "1e+5", "012",
                    "'a'", "{b: 1}", "[1]", "", "a b"]
_FLOW_ENDS = ["", "", "", "  # c: {d}", "  "]
_ODD_FLOW_ENDS = [" #c", "#c", "\n  truncation: 1", "\n- {rate: 1}", ","]


def _odd(usual: list, odd: list):
    """One of ``usual`` or, about one time in ten, one of ``odd``."""
    return st.sampled_from(usual * (9 * len(odd) // len(usual) + 1) + odd)


@st.composite
def flow_section_texts(draw):
    """Sections of one flow-mapping line each, perhaps around the block
    pipeline section: known and unknown section words and keys, ints,
    floats, words, booleans and reserved words, mostly joined by ``", "``."""
    value = st.one_of(st.integers().map(str),
                      st.floats(allow_infinity=False).map(repr),
                      _odd(_FLOW_VALUES, _ODD_FLOW_VALUES))
    pair = st.builds("{}: {}".format, _odd(_FLOW_WORDS, _ODD_FLOW_WORDS),
                     value)
    line = st.builds("{}: {{{}}}{}".format,
                     _odd(_FLOW_WORDS, _ODD_FLOW_WORDS),
                     st.builds(str.join, _odd([", "], [",", " , ", ",  "]),
                               st.lists(pair, min_size=1, max_size=3)),
                     _odd(_FLOW_ENDS, _ODD_FLOW_ENDS))
    lines = draw(st.lists(line, min_size=1, max_size=2))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), MINIMAL[:-1])
    return "\n".join(lines) + "\n"


def read_or_refuse(text: str):
    """The reader's document, or None where it refuses ``text``.  A refusal
    names a line of the text, and the lines before it read."""
    try:
        return scenario_module._read_layout(text)
    except ParseError as exc:
        number, line = re.fullmatch(r"line (\d+) is off the scenario "
                                    r"layout: (.*)", str(exc)).groups()
        lines = text.split("\n")
        assert line == repr(lines[int(number) - 1])
        scenario_module._read_layout("\n".join(lines[:int(number) - 1]))
        return None


class TestLayoutReader:
    @pytest.mark.parametrize("name", ["reference", "readme", "docstring",
                                      "dump", *FLOW_SECTIONS])
    def test_documented_layouts_are_read_directly(self, name, scenario,
                                                   scenario_text):
        text = {"reference": scenario_text,
                "dump": dump_scenario(scenario)}.get(name)
        text = text or LAYOUT_EXAMPLES.get(name) or FLOW_SECTIONS[name]
        document = scenario_module._read_layout(text)
        assert repr(document) == repr(pyyaml_document(text))

    @pytest.mark.parametrize("name", OFF_LAYOUT)
    def test_other_texts_are_left_to_pyyaml(self, name):
        """The texts that once went to PyYAML: the reader refuses each,
        naming its line, and so does ``load_scenario`` (exit 1)."""
        assert read_or_refuse(OFF_LAYOUT[name]) is None
        with pytest.raises(ParseError):
            load_scenario(OFF_LAYOUT[name])

    @pytest.mark.parametrize("name", UNLOADABLE)
    def test_documents_no_scenario_loads_from(self, name):
        """Sections with no entries and non-finite numbers are read as
        PyYAML reads them, then refused by validation (exit 2)."""
        text, message = UNLOADABLE[name]
        assert repr(scenario_module._read_layout(text)) \
            == repr(pyyaml_document(text))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_scenario(text)

    def test_refusal_names_the_benchmark_malformed_line(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "bench"))
        from inputs import query_inputs
        inputs = query_inputs(1, 0, True)
        query, = (q for q in inputs.census if q.tag == "error:malformed-yaml")
        text = inputs.scenarios[query.scenario]
        number = text.count("\n")
        assert text.split("\n")[number - 1] == "pipeline: [unclosed"
        with pytest.raises(ParseError, match=f"^line {number} is off the "
                           "scenario layout: 'pipeline: \\[unclosed'$"):
            load_scenario(text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(layout_texts())
    def test_reader_agrees_with_pyyaml(self, text):
        """Each text is either refused or read into the very document,
        value and type alike, that PyYAML builds."""
        document = read_or_refuse(text)
        if document is not None:
            assert repr(document) == repr(pyyaml_document(text))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flow_section_texts())
    def test_flow_sections_read_as_pyyaml_reads_them(self, text):
        """A flow-mapping section is either refused or read into the very
        document that PyYAML builds."""
        document = read_or_refuse(text)
        if document is not None:
            assert repr(document) == repr(pyyaml_document(text))

    def test_unknown_flow_section_is_refused_by_its_path(self):
        with pytest.raises(ValidationError,
                           match=r"^scenario\.extras: unknown key$"):
            load_scenario(FLOW_SECTIONS["unknown-flow-section"])

    def test_texts_off_the_layout_are_refused(self, scenario_text):
        assert load_scenario(scenario_text + "# direct\n") \
            == load_scenario(scenario_text)
        quoted = scenario_text.replace("rate:", "'rate':") + "# quoted\n"
        with pytest.raises(ParseError, match="^line 10 .*\"    'rate': 11\"$"):
            load_scenario(quoted)


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

    def test_position_cap(self, scenario, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_POSITIONS", 30)
        assert len(gradient_table(scenario, [100.0], 1000.0).rows) == 31
        with pytest.raises(InvalidParameter, match="more than 30 steps"):
            gradient_table(scenario, [100.0], 999.0)

    def test_cell_cap(self, scenario, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_TABLE_CELLS", 62)
        assert len(gradient_table(scenario, [100.0, 200.0], 1000.0).rows) \
            == 62
        monkeypatch.setattr(series_module, "_regularized_gradient",
                            no_gradient)
        with pytest.raises(InvalidParameter,
                           match="93 cells .* exceeds 62"):
            gradient_table(scenario, [100.0, 200.0, 300.0], 1000.0)

    def test_cell_cap_default(self, scenario, monkeypatch):
        # 10^5 steps is the most positions allow; ten times exceed 10^6
        # cells.
        monkeypatch.setattr(series_module, "_regularized_gradient",
                            no_gradient)
        with pytest.raises(InvalidParameter,
                           match="1000010 cells .* exceeds 1000000"):
            gradient_table(scenario, [100.0] * 10, 0.3)

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

    def test_cell_cap(self, scenario, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_TABLE_CELLS", 12)
        assert len(drawdown_table(scenario, [0.0, 1.0], [50.0, 100.0],
                                  [11.0, 12.0, 13.0]).rows) == 12

        def no_kernel(*args, **kwargs):
            raise AssertionError("the field was evaluated")

        # drawdown_table reads its kernels from the series module when called.
        monkeypatch.setattr(series_module, "_pressure_field", no_kernel)
        monkeypatch.setattr(series_module, "_unit_drop", no_kernel)
        with pytest.raises(InvalidParameter, match="13 cells .* exceeds 12"):
            drawdown_table(scenario, [0.0], [50.0] * 13, [11.0])


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

    def test_non_positive_drop_names_first_time(self):
        # Decay rate a = 0.05 above alpha = 0.0161 on a 60 km ring: the
        # point-mode inlet drop is negative at 10 s and 5 s, positive at
        # 300 s.
        text = MINIMAL.replace("length_m: 30000", "length_m: 60000") + (
            "withdrawals:\n- {position_m: 12000, rate: 11}\n"
            "series:\n  decay_mode: a\n")
        scenario = load_scenario(text)
        assert scenario.pipeline.alpha() < scenario.pipeline.linearization_a
        with pytest.raises(InvalidParameter, match=r"^per-unit inlet drop "
                           r"is not positive at t=10$"):
            admissible_table(scenario, [300.0, 10.0, 5.0], 100000.0)
        assert len(admissible_table(scenario, [300.0], 100000.0).rows) == 1

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

    def test_several_crossings_report_the_highest(self, two_maxima_text):
        scenario = load_scenario(two_maxima_text)
        point = find_coupling_point(1.262725154, scenario.schedule,
                                    scenario.pipeline, scenario.series)
        report = build_report(scenario, coupling_time_s=1.262725154,
                              p_min=106044.1626)
        coupling = report["coupling"]
        emitted = scenario_module._json_value
        assert coupling["gradient_zero_m"] == emitted(point.position_m)
        assert coupling["pressure_pa"] == emitted(point.pressure_pa)
        assert coupling["gradient_zero_m"] == pytest.approx(3844.95, abs=0.01)
        assert coupling["pressure_pa"] == 160486.0
        assert set(coupling) == {"time_s", "gradient_zero_m", "pressure_pa",
                                 "configured_tap_m"}
        assert set(report["tables"]) == {"gradient", "drawdown",
                                         "admissible"}

    def test_report_hashes_once(self, scenario_text, monkeypatch):
        digests = []
        real_sha256 = hashlib.sha256

        def sha256(data):
            digests.append(data)
            return real_sha256(data)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        # A text no other test loads, so no cached Scenario holds its hash.
        text = scenario_text + "# hashes-once\n"
        scenario = load_scenario(text)
        report = build_report(scenario)
        assert len(digests) == 1
        assert report["scenario"]["hash"] == "70d5dc407302"
        assert {table["metadata"]["scenario"]
                for table in report["tables"].values()} == {"70d5dc407302"}
        assert scenario.scenario_hash() == "70d5dc407302"
        assert len(digests) == 1
        # The same text again is the same Scenario: no further digest.
        assert build_report(load_scenario(text)) == report
        assert len(digests) == 1

    def test_report_is_json_serializable_and_stable(self, scenario):
        one = json.dumps(build_report(scenario), sort_keys=True)
        two = json.dumps(build_report(scenario), sort_keys=True)
        assert one == two
