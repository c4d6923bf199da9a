"""Scenario files, table generation, and report assembly.

A scenario is a YAML document with four top-level sections::

    pipeline:                       # required
      length_m: 30000
      sound_speed_m_s: 383.3
      linearization_a_per_s: 0.05
      inlet_pressure_pa: 140000
      base_flow: 10
    withdrawals:                    # optional, default []
      - {position_m: 12000, rate: 11}
    series:                         # optional, defaults below
      truncation: 100
      decay_mode: alpha             # alpha | a
      withdrawal_model: point       # point | heaviside
      gradient_mode: base_only      # base_only | full
      closed_form_acceleration: true
    safety:                         # optional, defaults below
      optimal_max: 0.10
      permissible_max: 0.20
      unsafe_min: 0.25

Unknown keys are rejected with the offending dotted path.  Emitted tables
are deterministic (6 significant digits, '.' decimal separator, LF line
endings) and embed the scenario hash plus the series options so results
stay attributable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .core import (DecayMode, GradientMode, PipelineConfig, SafetyThresholds,
                   SeriesOptions, WithdrawalModel, WithdrawalPoint,
                   WithdrawalSchedule)
from .errors import (InfeasibleConstraint, InvalidParameter, ParseError,
                     ValidationError)
from .optimize import find_coupling_point, tap_pressure
from .series import _gradient, _pressure_field, _unit_drop

_PIPELINE_KEYS = ("length_m", "sound_speed_m_s", "linearization_a_per_s",
                  "inlet_pressure_pa", "base_flow")
_WITHDRAWAL_KEYS = ("position_m", "rate")
_SERIES_KEYS = ("truncation", "decay_mode", "withdrawal_model",
                "gradient_mode", "closed_form_acceleration")
_SAFETY_KEYS = ("optimal_max", "permissible_max", "unsafe_min")
_TOP_KEYS = ("pipeline", "withdrawals", "series", "safety")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected a mapping")
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def _number(node: dict, key: str, path: str) -> float:
    if key not in node:
        raise ValidationError(f"{path}.{key}: missing required key")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number")
    if not math.isfinite(value):
        raise ValidationError(f"{path}.{key}: expected a finite number")
    return float(value)


def _integer(node: dict, key: str, default: int, path: str) -> int:
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: expected an integer")
    return value


def _boolean(node: dict, key: str, default: bool, path: str) -> bool:
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, bool):
        raise ValidationError(f"{path}.{key}: expected a boolean")
    return value


def _choice(node: dict, key: str, enum_cls, default, path: str):
    if key not in node:
        return default
    value = node[key]
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(m.value for m in enum_cls)
        raise ValidationError(
            f"{path}.{key}: expected one of {options}") from None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: pipeline, withdrawals, options, thresholds."""

    pipeline: PipelineConfig
    schedule: WithdrawalSchedule
    series: SeriesOptions
    safety: SafetyThresholds

    def tap_position(self) -> float:
        """Position of the single configured withdrawal.

        Scenarios with zero or several withdrawals have no implied tap;
        callers must then pass a position explicitly.
        """
        if len(self.schedule) != 1:
            raise ValidationError(
                f"scenario defines {len(self.schedule)} withdrawals; "
                "a tap position must be given explicitly")
        return self.schedule.points[0].position_m

    def normalized(self) -> dict:
        """Plain-data form with every default made explicit."""
        return {
            "pipeline": {
                "length_m": self.pipeline.length_m,
                "sound_speed_m_s": self.pipeline.sound_speed_m_s,
                "linearization_a_per_s": self.pipeline.linearization_a,
                "inlet_pressure_pa": self.pipeline.inlet_pressure_pa,
                "base_flow": self.pipeline.base_flow,
            },
            "withdrawals": [
                {"position_m": p.position_m, "rate": p.rate}
                for p in self.schedule.points
            ],
            "series": {
                "truncation": self.series.truncation_n,
                "decay_mode": self.series.decay_mode.value,
                "withdrawal_model": self.series.withdrawal_model.value,
                "gradient_mode": self.series.gradient_mode.value,
                "closed_form_acceleration":
                    self.series.closed_form_acceleration,
            },
            "safety": {
                "optimal_max": self.safety.optimal_max,
                "permissible_max": self.safety.permissible_max,
                "unsafe_min": self.safety.unsafe_min,
            },
        }

    def scenario_hash(self) -> str:
        canonical = json.dumps(self.normalized(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if document is None:
        raise ValidationError("top level: document is empty")
    document = _require_mapping(document, "top level")
    _reject_unknown(document, _TOP_KEYS, "scenario")

    if "pipeline" not in document:
        raise ValidationError("pipeline: missing required section")
    pipe = _require_mapping(document["pipeline"], "pipeline")
    _reject_unknown(pipe, _PIPELINE_KEYS, "pipeline")
    try:
        pipeline = PipelineConfig(
            length_m=_number(pipe, "length_m", "pipeline"),
            sound_speed_m_s=_number(pipe, "sound_speed_m_s", "pipeline"),
            linearization_a=_number(pipe, "linearization_a_per_s",
                                    "pipeline"),
            inlet_pressure_pa=_number(pipe, "inlet_pressure_pa", "pipeline"),
            base_flow=_number(pipe, "base_flow", "pipeline"),
        )
    except InvalidParameter as exc:
        raise ValidationError(f"pipeline: {exc}") from exc

    raw_points = document.get("withdrawals", [])
    if not isinstance(raw_points, list):
        raise ValidationError("withdrawals: expected a list")
    points = []
    for i, entry in enumerate(raw_points):
        path = f"withdrawals[{i}]"
        node = _require_mapping(entry, path)
        _reject_unknown(node, _WITHDRAWAL_KEYS, path)
        try:
            points.append(WithdrawalPoint(
                position_m=_number(node, "position_m", path),
                rate=_number(node, "rate", path),
            ))
        except InvalidParameter as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    try:
        schedule = WithdrawalSchedule(tuple(points))
        schedule.check_positions(pipeline.length_m)
    except InvalidParameter as exc:
        raise ValidationError(f"withdrawals: {exc}") from exc

    node = _require_mapping(document.get("series", {}), "series")
    _reject_unknown(node, _SERIES_KEYS, "series")
    defaults = SeriesOptions()
    try:
        series = SeriesOptions(
            truncation_n=_integer(node, "truncation",
                                  defaults.truncation_n, "series"),
            decay_mode=_choice(node, "decay_mode", DecayMode,
                               defaults.decay_mode, "series"),
            withdrawal_model=_choice(node, "withdrawal_model",
                                     WithdrawalModel,
                                     defaults.withdrawal_model, "series"),
            gradient_mode=_choice(node, "gradient_mode", GradientMode,
                                  defaults.gradient_mode, "series"),
            closed_form_acceleration=_boolean(
                node, "closed_form_acceleration",
                defaults.closed_form_acceleration, "series"),
        )
    except InvalidParameter as exc:
        raise ValidationError(f"series: {exc}") from exc

    node = _require_mapping(document.get("safety", {}), "safety")
    _reject_unknown(node, _SAFETY_KEYS, "safety")
    base = SafetyThresholds()
    values = {
        key: (_number(node, key, "safety") if key in node
              else getattr(base, key))
        for key in _SAFETY_KEYS
    }
    try:
        safety = SafetyThresholds(**values)
    except InvalidParameter as exc:
        raise ValidationError(f"safety: {exc}") from exc

    return Scenario(pipeline=pipeline, schedule=schedule,
                    series=series, safety=safety)


def dump_scenario(scenario: Scenario) -> str:
    """Normalized YAML form; load_scenario round-trips it."""
    return yaml.safe_dump(scenario.normalized(), sort_keys=False,
                          default_flow_style=False)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileTable:
    """Column-named scan results plus attribution metadata.

    axis is "space_scan" or "time_scan" and names the column the rows are
    primarily sorted by.
    """

    axis: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict


def _base_metadata(scenario: Scenario) -> dict:
    opts = scenario.series
    return {
        "scenario": scenario.scenario_hash(),
        "truncation": opts.truncation_n,
        "decay_mode": opts.decay_mode.value,
        "withdrawal_model": opts.withdrawal_model.value,
        "gradient_mode": opts.gradient_mode.value,
        "closed_form_acceleration": opts.closed_form_acceleration,
    }


def gradient_table(scenario: Scenario, t_list, dx: float) -> ProfileTable:
    """Spatial gradient scan at each time, rows sorted by position.

    dx must divide the ring length; withdrawal positions report the
    regularized gradient 0.
    """
    cfg = scenario.pipeline
    if not 0.0 < dx < math.inf:
        raise InvalidParameter("dx must be finite and > 0")
    steps = cfg.length_m / dx
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise InvalidParameter(
            f"dx {dx:g} does not divide ring length {cfg.length_m:g}")
    positions = [i * dx for i in range(int(round(steps)) + 1)]
    grad = _gradient(positions, t_list, scenario.schedule, cfg,
                     scenario.series)
    grad[:, np.isin(positions, [p.position_m for p in scenario.schedule])] = 0.0
    rows = tuple((x, t, value)
                 for x, column in zip(positions, grad.T.tolist())
                 for t, value in zip(t_list, column))
    metadata = _base_metadata(scenario)
    metadata["dx_m"] = dx
    return ProfileTable(axis="space_scan",
                        columns=("x_m", "t_s", "dP_dx_pa_per_m"),
                        rows=rows, metadata=metadata)


def drawdown_table(scenario: Scenario, x_list, t_list, g_levels,
                   tap_m: float | None = None) -> ProfileTable:
    """Pressure at each position and time with the total withdrawal
    concentrated at the tap, one block per level, rows sorted by time.

    Levels are evaluated in point mode regardless of the scenario's
    withdrawal_model; the one-sided model has no junction analogue.
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position() if tap_m is None else tap_m
    if not 0.0 <= tap < cfg.length_m:
        raise InvalidParameter(
            f"tap position {tap:g} out of range [0, {cfg.length_m:g})")
    opts = replace(scenario.series,
                   withdrawal_model=WithdrawalModel.POINT)
    for g in g_levels:
        if not 0.0 <= g < math.inf:
            raise InvalidParameter(f"withdrawal level {g:g} outside [0, inf)")
    blocks = [_pressure_field(x_list, t_list,
                              WithdrawalSchedule.from_pairs([(tap, g)]),
                              cfg, opts).tolist()
              for g in g_levels]
    rows = [(x, t, g, p) for i, t in enumerate(t_list)
            for g, block in zip(g_levels, blocks)
            for x, p in zip(x_list, block[i])]
    metadata = _base_metadata(scenario)
    metadata["tap_m"] = tap
    metadata["withdrawal_model"] = WithdrawalModel.POINT.value
    return ProfileTable(axis="time_scan",
                        columns=("x_m", "t_s", "g_total", "p_pa"),
                        rows=tuple(rows), metadata=metadata)


def admissible_table(scenario: Scenario, t_list, p_min: float,
                     tap_m: float | None = None) -> ProfileTable:
    """Largest total withdrawal keeping the inlet at or above p_min,
    per time, with the junction pressure that withdrawal implies.

    A self-consistent recomputation: the published counterpart table is
    not reproducible (see the admissible-withdrawal-reference-table
    discrepancy record).
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position() if tap_m is None else tap_m
    if not 0.0 < tap < cfg.length_m:
        raise InvalidParameter(
            f"tap position {tap:g} out of range (0, {cfg.length_m:g})")
    if not math.isfinite(p_min):
        raise InvalidParameter("p_min must be finite")
    nominal = cfg.nominal_pressure()
    if p_min > nominal:
        raise InfeasibleConstraint(
            f"p_min {p_min:g} exceeds the nominal pressure {nominal:g}")
    for t in t_list:
        if not 0.0 < t < math.inf:
            raise InvalidParameter("admissible table requires a finite t > 0")
    budget = nominal - p_min
    drops = _unit_drop(0.0, t_list, tap, cfg, scenario.series)
    rows = []
    for t, per_unit_drop in zip(t_list, drops.tolist()):
        if per_unit_drop <= 0.0:
            raise InvalidParameter(
                f"per-unit inlet drop is not positive at t={t:g}")
        g_total = budget / per_unit_drop
        rows.append((t, tap_pressure(g_total, t, tap, cfg, scenario.series),
                     g_total))
    metadata = _base_metadata(scenario)
    metadata["tap_m"] = tap
    metadata["p_min_pa"] = p_min
    metadata["withdrawal_model"] = WithdrawalModel.POINT.value
    metadata["note"] = "self-consistent recomputation"
    metadata["footnote"] = "admissible-withdrawal-reference-table"
    return ProfileTable(axis="time_scan",
                        columns=("t_s", "p_tap_pa", "g_total"),
                        rows=tuple(rows), metadata=metadata)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        text = format(float(value), ".6g")
        return "0" if text == "-0" else text
    return str(value)


def _json_value(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value
    rounded = float(format(value, ".6g"))
    return 0.0 if rounded == 0.0 else rounded


def table_payload(table: ProfileTable) -> dict:
    """JSON-ready form of a table, shared by emit() and reports."""
    return {
        "axis": table.axis,
        "metadata": {k: _json_value(v) for k, v in
                     sorted(table.metadata.items())},
        "columns": list(table.columns),
        "rows": [
            {name: _json_value(cell)
             for name, cell in zip(table.columns, row)}
            for row in table.rows
        ],
    }


def emit(table: ProfileTable, fmt: str = "csv") -> str:
    """Render a table deterministically as CSV or JSON text."""
    if fmt == "csv":
        lines = [f"# {key}={_format_cell(value)}"
                 for key, value in sorted(table.metadata.items())]
        lines.append(",".join(table.columns))
        lines.extend(",".join(_format_cell(cell) for cell in row)
                     for row in table.rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(table_payload(table), sort_keys=True,
                          indent=2) + "\n"
    raise InvalidParameter(f"unknown table format {fmt!r}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

#: Known gaps between this artifact and its published reference values.
#: Stable ids; report consumers key on them.
DISCREPANCIES = (
    {
        "id": "junction-pressure-reference-series",
        "affects": "drawdown_table",
        "summary": (
            "The published time series for pressure at the junction decays "
            "far more slowly than any evaluation of the field model: its "
            "late-time slope is roughly 40x smaller than the linepack term "
            "-(c^2/L)*G_total that every model variant carries."),
        "resolution": (
            "Only the inlet column is treated as a reproduction target; "
            "the junction column emitted here is the model's own "
            "self-consistent evaluation."),
    },
    {
        "id": "admissible-withdrawal-reference-table",
        "affects": "admissible_table",
        "summary": (
            "The published table of admissible withdrawal versus time is "
            "not reproducible from the printed inversion formula under any "
            "combination of decay-rate reading and kernel factor; computed "
            "values differ by factors of 1.5-3 and trend oppositely in "
            "time."),
        "resolution": (
            "The emitted table is a self-consistent recomputation: for "
            "each time the total withdrawal is affine-inverted from the "
            "inlet-pressure floor and paired with the junction pressure it "
            "implies."),
    },
    {
        "id": "inversion-time-kernel-pi-factor",
        "affects": "invert_withdrawal",
        "summary": (
            "Deriving the withdrawal inversion from the junction-pressure "
            "relation yields the time kernel (c^2/L)*(t + 2*pi*S_e); the "
            "printed inversion omits the factor pi in front of S_e."),
        "resolution": (
            "The self-consistent kernel (with pi) is the default so the "
            "forward/inverse round trip is exact; the printed kernel is "
            "available behind the printed_form flag."),
    },
    {
        "id": "diffusion-equation-orientation",
        "affects": "oracle.simulate",
        "summary": (
            "The printed linearized diffusion equation carries the sign "
            "orientation of a backward (ill-posed) heat equation."),
        "resolution": (
            "The validator integrates the forward orientation dP/dt = "
            "(c^2/(2a)) d2P/dx2 - c^2*sum_i G_i*delta(x-x_i), the unique "
            "well-posed reading whose mode decay rates alpha*n^2 match "
            "the analytical response."),
    },
    {
        "id": "tap-position-vs-gradient-zero",
        "affects": "find_coupling_point",
        "summary": (
            "The recommended junction position 12000 m does not coincide "
            "with the zero of the base-field pressure gradient, which "
            "sits near 12680 m (analytically L*(1 - 1/sqrt(3)) for large "
            "t)."),
        "resolution": (
            "Both are reported: find_coupling_point returns the gradient "
            "zero, while scenario tables evaluate at the configured "
            "withdrawal position."),
    },
)


def build_report(scenario: Scenario, coupling_time_s: float = 100.0,
                 gradient_times=(100.0, 200.0), gradient_dx: float = 1000.0,
                 drawdown_times=(0.0, 50.0, 100.0, 150.0, 200.0, 250.0,
                                 300.0),
                 drawdown_levels=None,
                 admissible_times=(50.0, 100.0, 150.0, 200.0, 250.0, 300.0),
                 p_min: float | None = None) -> dict:
    """Full bundle: key numbers, all tables, and the discrepancy ledger.

    Defaults mirror the reference scenario: withdrawal levels step up by
    1 from the scheduled total and the inlet floor is 80 percent of
    nominal (the 20 percent drop rule).
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position()
    if drawdown_levels is None:
        start = scenario.schedule.total()
        drawdown_levels = tuple(start + k for k in range(4))
    if p_min is None:
        p_min = 0.8 * cfg.nominal_pressure()
    coupling = find_coupling_point(coupling_time_s, scenario.schedule, cfg,
                                   scenario.series)
    return {
        "scenario": {
            "hash": scenario.scenario_hash(),
            "nominal_pressure_pa": _json_value(cfg.nominal_pressure()),
            "alpha_per_s": _json_value(cfg.alpha()),
            "normalized": scenario.normalized(),
        },
        "coupling": {
            "time_s": _json_value(coupling_time_s),
            "gradient_zero_m": _json_value(coupling.position_m),
            "pressure_pa": _json_value(coupling.pressure_pa),
            "configured_tap_m": _json_value(tap),
        },
        "tables": {
            "gradient": table_payload(
                gradient_table(scenario, gradient_times, gradient_dx)),
            "drawdown": table_payload(
                drawdown_table(scenario, (0.0, tap), drawdown_times,
                               drawdown_levels)),
            "admissible": table_payload(
                admissible_table(scenario, admissible_times, p_min)),
        },
        "discrepancies": [dict(record) for record in DISCREPANCIES],
    }
