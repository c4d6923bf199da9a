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

The keys, their order, types and defaults come from one table,
``_SECTIONS``, which ``load_scenario`` and ``Scenario.normalized`` (and so
``dump_scenario`` and ``scenario_hash``) read.  Unknown keys are rejected
with the offending dotted path.  Emitted tables are deterministic (6
significant digits, '.' decimal separator, LF line endings) and embed the
scenario hash plus the series options so results stay attributable.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .core import (PipelineConfig, SafetyThresholds, SeriesOptions,
                   WithdrawalModel, WithdrawalPoint, WithdrawalSchedule)
from .errors import (InfeasibleConstraint, InvalidParameter, NonFiniteResult,
                     ParseError, ValidationError)
from .optimize import find_coupling_point, tap_pressure
from .series import _gradient, _pressure_field, _unit_drop

#: The scenario format.  Each section names the dataclass it builds and
#: maps its YAML keys, in document order, to that dataclass's fields.  A
#: field's default sets its key's type (enum: one of its values, then bool,
#: int, float); a field without one is a required finite number.
_SECTIONS = {
    "pipeline": (PipelineConfig, {
        "length_m": "length_m",
        "sound_speed_m_s": "sound_speed_m_s",
        "linearization_a_per_s": "linearization_a",
        "inlet_pressure_pa": "inlet_pressure_pa",
        "base_flow": "base_flow",
    }),
    "withdrawals": (WithdrawalPoint, {
        "position_m": "position_m",
        "rate": "rate",
    }),
    "series": (SeriesOptions, {
        "truncation": "truncation_n",
        "decay_mode": "decay_mode",
        "withdrawal_model": "withdrawal_model",
        "gradient_mode": "gradient_mode",
        "closed_form_acceleration": "closed_form_acceleration",
    }),
    "safety": (SafetyThresholds, {
        "optimal_max": "optimal_max",
        "permissible_max": "permissible_max",
        "unsafe_min": "unsafe_min",
    }),
}


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


def _read(value, default, path: str):
    """One scalar, typed by the default of the field it fills."""
    if isinstance(default, enum.Enum):
        try:
            return type(default)(value)
        except ValueError:
            options = ", ".join(m.value for m in type(default))
            raise ValidationError(
                f"{path}: expected one of {options}") from None
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValidationError(f"{path}: expected a boolean")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path}: expected an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number")
    return float(value)


def _section(node, section: str, path: str):
    """Build one section's dataclass from its mapping, keys in table order."""
    cls, keys = _SECTIONS[section]
    node = _require_mapping(node, path)
    _reject_unknown(node, keys, path)
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key, name in keys.items():
        if key in node:
            values[name] = _read(node[key], defaults[name], f"{path}.{key}")
        elif defaults[name] is MISSING:
            raise ValidationError(f"{path}.{key}: missing required key")
    try:
        return cls(**values)
    except InvalidParameter as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _plain(obj, section: str) -> dict:
    """One section's plain-data form, keys in table order."""
    values = {key: getattr(obj, name)
              for key, name in _SECTIONS[section][1].items()}
    return {key: value.value if isinstance(value, enum.Enum) else value
            for key, value in values.items()}


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
            "pipeline": _plain(self.pipeline, "pipeline"),
            "withdrawals": [_plain(p, "withdrawals")
                            for p in self.schedule.points],
            "series": _plain(self.series, "series"),
            "safety": _plain(self.safety, "safety"),
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
    _reject_unknown(document, _SECTIONS, "scenario")

    if "pipeline" not in document:
        raise ValidationError("pipeline: missing required section")
    pipeline = _section(document["pipeline"], "pipeline", "pipeline")

    raw_points = document.get("withdrawals", [])
    if not isinstance(raw_points, list):
        raise ValidationError("withdrawals: expected a list")
    points = tuple(_section(entry, "withdrawals", f"withdrawals[{i}]")
                   for i, entry in enumerate(raw_points))
    try:
        schedule = WithdrawalSchedule(points)
        schedule.check_positions(pipeline.length_m)
    except InvalidParameter as exc:
        raise ValidationError(f"withdrawals: {exc}") from exc

    return Scenario(
        pipeline=pipeline, schedule=schedule,
        series=_section(document.get("series", {}), "series", "series"),
        safety=_section(document.get("safety", {}), "safety", "safety"))


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
    return {"scenario": scenario.scenario_hash(),
            **_plain(scenario.series, "series")}


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
        if not math.isfinite(value):
            raise NonFiniteResult(f"result is not finite: {value}")
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


def dump_json(payload) -> str:
    """Deterministic JSON text; a NaN or infinity raises NonFiniteResult."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not valid JSON: {exc}") from None
    return text + "\n"


def emit(table: ProfileTable, fmt: str = "csv") -> str:
    """Render a table deterministically as CSV or JSON text; a NaN or
    infinity in a cell or in the metadata raises NonFiniteResult."""
    if fmt == "csv":
        lines = [f"# {key}={_format_cell(value)}"
                 for key, value in sorted(table.metadata.items())]
        lines.append(",".join(table.columns))
        lines.extend(",".join(_format_cell(cell) for cell in row)
                     for row in table.rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return dump_json(table_payload(table))
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


#: Report table grids, those of the reference scenario.
_REPORT_GRADIENT_TIMES = (100.0, 200.0)
_REPORT_GRADIENT_DX = 1000.0
_REPORT_DRAWDOWN_TIMES = (0.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0)
_REPORT_ADMISSIBLE_TIMES = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)


def build_report(scenario: Scenario, coupling_time_s: float = 100.0,
                 p_min: float | None = None) -> dict:
    """Full bundle: key numbers, all tables, and the discrepancy ledger.

    The drawdown levels step up by 1 from the scheduled total, and the
    inlet floor defaults to 80 percent of nominal (the 20 percent drop
    rule).
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position()
    start = scenario.schedule.total()
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
            "gradient": table_payload(gradient_table(
                scenario, _REPORT_GRADIENT_TIMES, _REPORT_GRADIENT_DX)),
            "drawdown": table_payload(drawdown_table(
                scenario, (0.0, tap), _REPORT_DRAWDOWN_TIMES,
                tuple(start + k for k in range(4)))),
            "admissible": table_payload(admissible_table(
                scenario, _REPORT_ADMISSIBLE_TIMES, p_min)),
        },
        "discrepancies": [dict(record) for record in DISCREPANCIES],
    }
