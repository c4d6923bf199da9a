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
scenario hash plus the series options so results stay attributable.  A
JSON cell is ``repr`` of its ``"%.6g"`` text's float, read off that text:
``.0`` is appended to a text with neither point nor exponent, and only
exponents ``e+06`` to ``e+15`` and ``e-308`` or below take ``repr``.

A ``str`` text in the layout above is read directly, into the document
PyYAML would build: ``section:`` lines (or ``withdrawals: []``), entries
indented two spaces, withdrawals as ``- {key: value, ...}`` or as block
items indented zero or two spaces, a section as one flow mapping
(``series: {truncation: 50}``, pairs parted by ``", "``); ``[a-z_]`` keys;
plain ints, floats with a point (any exponent signed), ``true``, ``false``
and other words; printable ASCII, LF line ends, blank lines and ``#``
comments.  Other texts (an empty ``{}``, a nested or quoted value) go
through PyYAML, imported only then: libyaml's ``CSafeLoader`` where PyYAML
has it, else the pure-Python ``SafeLoader``; both type scalars alike, and
only :class:`ParseError` texts depend on the codec.  ``dump_scenario``
writes the layout as PyYAML's safe dumper does: block withdrawal items at
column 0, floats as ``repr`` with ``.0`` before a bare ``e``.

``load_scenario`` keeps the last 256 ``str`` texts it loaded, keyed with the
codec: an equal text returns the same shared, immutable ``Scenario`` (and
so its hash is computed once).  A text that fails is never kept.

Loading, dumping, hashing and emission need no numpy.  The tables and the
report import numpy and the numeric modules when called, so a process that
only reads or writes scenarios never loads them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import add

from .core import (PipelineConfig, SafetyThresholds, SeriesOptions,
                   WithdrawalModel, WithdrawalPoint, WithdrawalSchedule)
from .errors import (InvalidParameter, MultipleExtrema, NonFiniteResult,
                     ParseError, ValidationError)

#: Scenario texts ``load_scenario`` keeps (see the module docstring).
_SCENARIO_CACHE = 256

#: Most position steps L/dx of a gradient table (the table has one more
#: position, L itself).
MAX_POSITIONS = 10**5

#: Most cells of a gradient table (positions x times) or a drawdown table
#: (levels x positions x times).
MAX_TABLE_CELLS = 10**6

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

@functools.cache
def _codec():
    """PyYAML's loader, libyaml's where available; imports PyYAML."""
    import yaml
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


#: ``key: value``, the value typed by the group it sets as PyYAML's
#: resolver types it: an int, a float or a word.  ``re`` compiles and
#: caches both patterns on first use.
_PAIR = (r"([a-z_]+): +(?:(-?(?:0|[1-9][0-9]*))"
         r"|(-?[0-9]+\.[0-9]*(?:e[-+][0-9]+)?)|([a-z_]+))")
#: A line: a section header, or indentation and item dash, then a pair or a
#: flow mapping; or a header, `` []`` for an empty list; then perhaps a
#: comment.  Blank and comment lines set no group, other lines the last.
_LINE = (rf"(?m)^(?:(?:([a-z_]+): (?=\{{)|( *)(- )?)(?:{_PAIR}|\{{(.+)\}})"
         r"|([a-z_]+):( \[\])?)(?: +#[ -~]*| *)$|^ *(?:#[ -~]*)?$|^(.+)$")
_BOOLEANS = {"true": True, "false": False}
#: Words the resolver reads as a boolean or as null.
_RESERVED = frozenset({"true", "false", "yes", "no", "on", "off", "null"})


def _pair(key: str, integer: str, number: str, word: str) -> tuple:
    """One matched pair, typed; a ValueError for a reserved word."""
    if key in _RESERVED or word in _RESERVED and word not in _BOOLEANS:
        raise ValueError(key)
    return key, (int(integer) if integer else float(number) if number
                 else _BOOLEANS.get(word, word))


def _read_layout(text: str) -> dict | None:
    """The document ``yaml.load`` builds from ``text`` in the layout the
    module docstring names; None for any other text."""
    document, section, fill, items, indent = {}, None, {}, None, None
    try:
        for (whole, spaces, dash, key, integer, number, word, flow, header,
             empty, other) in re.findall(_LINE, text):
            if header and header not in _RESERVED:
                section, fill, items = header, {}, None
                document[section] = [] if empty else None
                continue
            if other or header or whole in _RESERVED:   # off the layout
                return None
            if flow:
                matches = [re.fullmatch(_PAIR, p) for p in flow.split(", ")]
                if not all(matches):
                    return None
                pairs = dict(_pair(*match.groups()) for match in matches)
            elif key:
                pairs = dict([_pair(key, integer, number, word)])
            else:
                continue                    # a blank or comment line
            if whole:                       # a section as one flow mapping
                document[whole], section, fill, items = pairs, whole, {}, None
                continue
            depth = len(spaces)
            if document.get(section, ()) is None:   # the section's first entry
                if dash and depth in (0, 2):
                    document[section] = items = []
                    indent = depth
                elif depth == 2:
                    document[section] = fill[2] = {}
            if dash and items is not None and depth == indent:
                items.append(pairs)
                fill = {} if flow else {depth + 2: pairs}
            elif not dash and not flow and depth in fill:
                fill[depth].update(pairs)
            else:
                return None
    except ValueError:          # a reserved word, or too many digits for int()
        return None
    return document if document and None not in document.values() else None


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected a mapping")
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def _read(value, default, path: str, key: str):
    """One scalar, typed by the default of the field it fills."""
    if default is MISSING or isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.{key}: expected a number")
        # Exact for integers too: math.isfinite raises on one beyond floats.
        if not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{path}.{key}: expected a finite number")
        return float(value)
    if isinstance(default, enum.Enum):
        try:
            return type(default)(value)
        except ValueError:
            options = ", ".join(m.value for m in type(default))
            raise ValidationError(
                f"{path}.{key}: expected one of {options}") from None
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValidationError(f"{path}.{key}: expected a boolean")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: expected an integer")
    return value


#: Per section, built once: its fields' defaults, and its hash text.
_DEFAULTS = {section: {f.name: f.default for f in fields(cls)}
             for section, (cls, _) in _SECTIONS.items()}
_TEXTS = {section: "{%s}" % ",".join(f'"{key}":%({name})s'
                                     for key, name in sorted(keys.items()))
          for section, (_, keys) in _SECTIONS.items()}


def _section(node, section: str, path: str):
    """Build one section's dataclass from its mapping, keys in table order."""
    (cls, keys), defaults = _SECTIONS[section], _DEFAULTS[section]
    node = _require_mapping(node, path)
    _reject_unknown(node, keys, path)
    values = {}
    for key, name in keys.items():
        if key in node:
            values[name] = _read(node[key], defaults[name], path, key)
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
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        # Once per instance: every table and the report embed the hash of
        # json.dumps(self.normalized(), sort_keys=True, separators=(",", ":")),
        # written from _TEXTS for the value types a loaded scenario holds.
        import hashlib
        pipeline, point, series, safety = _TEXTS.values()
        points = list(map(vars, self.schedule.points))
        numbers = [*vars(self.pipeline).values(), *vars(self.safety).values(),
                   *chain.from_iterable(map(dict.values, points))]
        words = vars(self.series)
        texts = {name: _json(word, "") for name, word in words.items()
                 if isinstance(word, (int, str))}
        if ({float}.issuperset(map(type, numbers)) and len(texts) == len(words)
                and all(map(math.isfinite, numbers))):
            canonical = (
                '{"pipeline":%s,"safety":%s,"series":%s,"withdrawals":[%s]}'
                % (pipeline % vars(self.pipeline), safety % vars(self.safety),
                   series % texts, ",".join(map(point.__mod__, points))))
        else:
            canonical = json.dumps(self.normalized(), sort_keys=True,
                                   separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Up to 256 ``str`` texts are kept, keyed with the codec: an equal text
    returns the same shared, immutable ``Scenario``.  A failure is never
    kept; bytes and streams are parsed on every call.
    """
    if isinstance(text, str):
        return _load_cached(text, _codec)
    return _load(text, _codec)


def _load(text, codec) -> Scenario:
    document = _read_layout(text) if isinstance(text, str) else None
    if document is None:
        import yaml
        # A tagged scalar its constructor rejects (a 13th month) raises a
        # ValueError, not a YAMLError.
        try:
            document = yaml.load(text, Loader=codec())
        except (yaml.YAMLError, ValueError) as exc:
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


_load_cached = functools.lru_cache(maxsize=_SCENARIO_CACHE)(_load)


def _yaml_scalar(value) -> str:
    """One value as PyYAML's safe representer writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if not isinstance(value, float):
        return str(value)                   # an int, or an enum's word
    if math.isfinite(value):
        text = float.__repr__(value)
        return text if "." in text else text.replace("e", ".0e")
    return ".nan" if value != value else ".inf" if value > 0 else "-.inf"


def dump_scenario(scenario: Scenario) -> str:
    """Normalized YAML form in the layout the module docstring names;
    load_scenario round-trips it."""
    lines = []
    for section, node in scenario.normalized().items():
        lines.append(f"{section}:" if node else f"{section}: []")
        first = "  " if isinstance(node, dict) else "- "
        for item in [node] if isinstance(node, dict) else node:
            lines += [f"{'  ' if i else first}{key}: {_yaml_scalar(value)}"
                      for i, (key, value) in enumerate(item.items())]
    return "\n".join(lines) + "\n"


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

    dx must divide the ring length into at most :data:`MAX_POSITIONS`
    steps, and the table may hold at most :data:`MAX_TABLE_CELLS` cells;
    both are checked before any field evaluation.  Withdrawal positions
    report the regularized gradient 0.
    """
    cfg = scenario.pipeline
    if not 0.0 < dx < math.inf:
        raise InvalidParameter("dx must be finite and > 0")
    steps = cfg.length_m / dx
    # A float comparison: round() raises on an infinite quotient.
    if not steps <= MAX_POSITIONS:
        raise InvalidParameter(
            f"dx {dx:g} gives more than {MAX_POSITIONS} steps")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise InvalidParameter(
            f"dx {dx:g} does not divide ring length {cfg.length_m:g}")
    cells = (round(steps) + 1) * len(t_list)
    if cells > MAX_TABLE_CELLS:
        raise InvalidParameter(
            f"gradient table of {cells} cells (positions x times) "
            f"exceeds {MAX_TABLE_CELLS}")
    from .series import _regularized_gradient
    positions = [i * dx for i in range(int(round(steps)))]
    positions.append(cfg.length_m)  # i * dx can round past L
    grad = _regularized_gradient(positions, t_list, scenario.schedule, cfg,
                                 scenario.series)
    times = repeat(len(t_list))         # each position once per time
    rows = tuple(zip(chain.from_iterable(map(repeat, positions, times)),
                     list(t_list) * len(positions), grad.T.ravel().tolist()))
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
    withdrawal_model; the one-sided model has no junction analogue.  A
    table of more than :data:`MAX_TABLE_CELLS` cells is refused before any
    field evaluation.
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position() if tap_m is None else tap_m
    cells = len(g_levels) * len(x_list) * len(t_list)
    if cells > MAX_TABLE_CELLS:
        raise InvalidParameter(
            f"drawdown of {cells} cells (levels x positions x times) "
            f"exceeds {MAX_TABLE_CELLS}")
    if not 0.0 <= tap < cfg.length_m:
        raise InvalidParameter(
            f"tap position {tap:g} out of range [0, {cfg.length_m:g})")
    for g in g_levels:
        if not 0.0 <= g < math.inf:
            raise InvalidParameter(f"withdrawal level {g:g} outside [0, inf)")
    import numpy as np

    from .series import EMPTY_SCHEDULE, _grid, _pressure_field, _unit_drop
    positions, basis = _grid(x_list, t_list, cfg, scenario.series)
    base = _pressure_field(positions, basis, EMPTY_SCHEDULE, cfg,
                           scenario.series)
    drop = _unit_drop(positions, basis, tap, cfg, scenario.series)
    levels = np.asarray(g_levels, dtype=float)[:, None]
    blocks = (base[:, None] - levels * drop[:, None]).tolist()
    rows = [(x, t, g, p) for t, block in zip(t_list, blocks)
            for g, row in zip(g_levels, block)
            for x, p in zip(x_list, row)]
    metadata = _base_metadata(scenario)
    metadata["tap_m"] = tap
    metadata["withdrawal_model"] = WithdrawalModel.POINT.value
    return ProfileTable(axis="time_scan",
                        columns=("x_m", "t_s", "g_total", "p_pa"),
                        rows=tuple(rows), metadata=metadata)


def admissible_table(scenario: Scenario, t_list, p_min: float) -> ProfileTable:
    """Largest total withdrawal keeping the inlet at or above p_min,
    per time, with the junction pressure that withdrawal implies.

    A self-consistent recomputation: the published counterpart table is
    not reproducible (see the admissible-withdrawal-reference-table
    discrepancy record).
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position()
    for t in t_list:
        if not 0.0 < t < math.inf:
            raise InvalidParameter("admissible table requires a finite t > 0")
    import numpy as np

    from .optimize import _inlet_floor
    from .series import (EMPTY_SCHEDULE, _basis, _positions, _pressure_field,
                         _unit_drop)
    opts = scenario.series
    basis = _basis(t_list, opts.decay_rate(cfg), opts)
    budget, drops = _inlet_floor(p_min, tap, basis, cfg, opts)
    bad = np.flatnonzero(drops <= 0.0)
    if bad.size:
        raise InvalidParameter(
            f"per-unit inlet drop is not positive at t={t_list[bad[0]]:g}")
    totals = budget / drops
    # Base pressure at the tap minus the total times its drop, all rows.
    at_tap = _positions(tap, cfg)
    p_tap = (_pressure_field(at_tap, basis, EMPTY_SCHEDULE, cfg, opts)[:, 0]
             - totals * _unit_drop(at_tap, basis, tap, cfg, opts)[:, 0])
    rows = zip(t_list, p_tap.tolist(), totals.tolist())
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
        return "%.6g" % (value + 0.0)
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float("%.6g" % (value + 0.0))
    return value


def _numbers(table: ProfileTable, row: str) -> str | None:
    """The template ``row``, one ``%.6g`` per column, filled with all cells
    in one ``%`` pass, again ``+ 0.0`` (-0.0 folds to 0.0) if that wrote a
    ``-0``: the number rule of :func:`_format_cell` and :func:`_json_value`.

    Only for a table with cells, each exactly a float, all finite; for any
    other None, and the caller takes the per-cell rule, which raises on the
    first NaN or infinity as the reference emitter does.  A row whose
    length differs from the columns raises InvalidParameter.
    """
    width = len(table.columns)
    if not set(map(len, table.rows)) <= {width}:
        index = next(i for i, row in enumerate(table.rows)
                     if len(row) != width)
        raise InvalidParameter(f"row {index} has {len(table.rows[index])} "
                               f"cells for {width} columns")
    cells = tuple(chain.from_iterable(table.rows))
    if not cells or not {float}.issuperset(map(type, cells)):
        return None
    text = (row * len(table.rows)) % cells
    if "-0," in text or "-0\n" in text or "-0 " in text:  # -0.0 (%g's -0)
        text = (row * len(table.rows)) % tuple(map(add, cells, repeat(0.0)))
    return None if "n" in text else text          # nan, inf


#: Token exponents ``repr`` writes otherwise (see the module docstring).
_REPR_EXPONENTS = frozenset([f"+{e:02d}" for e in range(6, 16)]
                            + [f"-{e}" for e in range(308, 325)])


def _json_token(token: str) -> str:
    """``repr(float(token))`` for a token of the ``"%.6g"`` pass: six digits
    of a normal float round-trip, so ``repr`` differs only in notation."""
    if "e" not in token:
        return token if "." in token else token + ".0"
    exponent = token.partition("e")[2]
    return repr(float(token)) if exponent in _REPR_EXPONENTS else token


@functools.lru_cache(maxsize=64)
def _json_row(columns: tuple) -> tuple:
    """The column indices a JSON row holds, in sorted-name order (the last
    of duplicate names wins, as in a dict), and the row's template."""
    last = {name: index for index, name in enumerate(columns)}
    names = sorted(last)
    keys = [_json_str(name).replace("%", "%%") for name in names]
    fields = ",\n".join(f"      {key}: %s" for key in keys)
    return tuple(last[name] for name in names), "    {\n" + fields + "\n    }"


def _json_metadata(table: ProfileTable) -> dict:
    return {k: _json_value(v) for k, v in sorted(table.metadata.items())}


def table_payload(table: ProfileTable) -> dict:
    """JSON-ready form of a table, for reports."""
    width = len(table.columns)
    text = _numbers(table, "%.6g " * width)
    if text is None:
        rows = (map(_json_value, row) for row in table.rows)
    else:                                 # the floats, width at a time
        rows = zip(*[map(float, text.split())] * width)
    return {"axis": table.axis, "metadata": _json_metadata(table),
            "columns": list(table.columns),
            "rows": list(map(dict, map(zip, repeat(table.columns), rows)))}


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes
    it, its nested lines opened by ``newline``."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError("Out of range float values are not JSON "
                         "compliant: " + repr(value))
    if isinstance(value, str):
        return _json_str(value)
    if value is None or isinstance(value, int):     # bool is an int
        return ("null" if value is None else "true" if value is True
                else "false" if value is False else int.__repr__(value))
    inner = newline + "  "
    if isinstance(value, dict):
        items, ends = [_json_str(key) + ": " + _json(value[key], inner)
                       for key in sorted(value)], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] \
        if items else ends


def dump_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, for
    dicts with str keys, lists, tuples and scalars; a NaN or infinity
    raises NonFiniteResult, any other type TypeError."""
    try:
        return _json(payload, "\n") + "\n"
    except ValueError as exc:
        raise NonFiniteResult(f"result is not valid JSON: {exc}") from None


def emit(table: ProfileTable, fmt: str = "csv") -> str:
    """Render a table deterministically as CSV or JSON text.

    JSON text is :func:`dump_json` of :func:`table_payload`.  A NaN or
    infinity in a cell or in the metadata raises NonFiniteResult, and a
    row whose length differs from the columns InvalidParameter.
    """
    if fmt == "csv":
        lines = [f"# {key}={_format_cell(value)}"
                 for key, value in sorted(table.metadata.items())]
        lines.append(",".join(table.columns))
        body = _numbers(table, ",".join(("%.6g",) * len(table.columns)) + "\n")
        if body is None:
            lines.extend(",".join(map(_format_cell, row))
                         for row in table.rows)
        else:
            lines.append(body[:-1])
        return "\n".join(lines) + "\n"
    if fmt == "json":
        width = len(table.columns)
        text = _numbers(table, "%.6g " * width)
        if text is None:
            return dump_json(table_payload(table))
        # The header's keys sort before "rows", so the rows follow it.
        header = dump_json({"axis": table.axis,
                            "columns": list(table.columns),
                            "metadata": _json_metadata(table)})[:-3]
        order, row = _json_row(tuple(table.columns))
        tokens = list(map(_json_token, text.split()))
        cells = chain.from_iterable(zip(*[tokens[i::width] for i in order]))
        rows = ((row + ",\n") * len(table.rows)) % tuple(cells)
        return header + ',\n  "rows": [\n' + rows[:-2] + "\n  ]\n}\n"
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
    rule).  Where the base field has several + to - gradient crossings,
    the coupling point is the one of highest pressure.
    """
    cfg = scenario.pipeline
    tap = scenario.tap_position()
    start = scenario.schedule.total()
    if p_min is None:
        p_min = 0.8 * cfg.nominal_pressure()
    import numpy as np

    from .optimize import find_coupling_point
    from .series import EMPTY_SCHEDULE, _pressure_field
    try:
        coupling = find_coupling_point(coupling_time_s, scenario.schedule,
                                       cfg, scenario.series)
    except MultipleExtrema as exc:
        # The coupling point is the ring's pressure maximum: the highest
        # crossing, the first of equals.
        pressures = _pressure_field(exc.candidates, coupling_time_s,
                                    EMPTY_SCHEDULE, cfg, scenario.series)[0]
        best = int(np.argmax(pressures))
        position, peak = exc.candidates[best], float(pressures[best])
    else:
        position, peak = coupling.position_m, coupling.pressure_pa
    return {
        "scenario": {
            "hash": scenario.scenario_hash(),
            "nominal_pressure_pa": _json_value(cfg.nominal_pressure()),
            "alpha_per_s": _json_value(cfg.alpha()),
            "normalized": scenario.normalized(),
        },
        "coupling": {
            "time_s": _json_value(coupling_time_s),
            "gradient_zero_m": _json_value(position),
            "pressure_pa": _json_value(peak),
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
