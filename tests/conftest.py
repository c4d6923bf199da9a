from pathlib import Path

import pytest
import yaml

from ringflow import (PipelineConfig, SeriesOptions, WithdrawalSchedule,
                      load_scenario)

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml"


@pytest.fixture(scope="session")
def cfg() -> PipelineConfig:
    """30 km reference ring."""
    return PipelineConfig(length_m=30000.0, sound_speed_m_s=383.3,
                          linearization_a=0.05, inlet_pressure_pa=140000.0,
                          base_flow=10.0)


@pytest.fixture(scope="session")
def schedule() -> WithdrawalSchedule:
    """Base flow plus 10 percent, concentrated at the 12 km tap."""
    return WithdrawalSchedule.from_pairs([(12000.0, 11.0)])


@pytest.fixture(scope="session")
def empty_schedule() -> WithdrawalSchedule:
    return WithdrawalSchedule(())


@pytest.fixture(scope="session")
def opts() -> SeriesOptions:
    return SeriesOptions()


@pytest.fixture(scope="session")
def scenario_text() -> str:
    return SCENARIO_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def scenario(scenario_text):
    return load_scenario(scenario_text)


@pytest.fixture(scope="session")
def two_maxima_text() -> str:
    """A truncated plain-route scenario whose base field, at t = 1.262725154
    s, has two + to - gradient crossings, near 3845 m and 8602 m."""
    return """\
pipeline:
  length_m: 35000
  sound_speed_m_s: 321.0011293
  linearization_a_per_s: 0.09836645993
  inlet_pressure_pa: 199936.1449
  base_flow: 11.68667824
withdrawals:
  - {position_m: 5452, rate: 28.99820207}
series:
  truncation: 10
  closed_form_acceleration: false
"""


def pyyaml_document(text: str):
    """The document PyYAML's safe loader builds from ``text``, ``{}`` for an
    empty one: the oracle the scenario reader is checked against."""
    document = yaml.load(text, Loader=yaml.SafeLoader)
    return {} if document is None else document
