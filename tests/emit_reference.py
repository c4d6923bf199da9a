"""Reference table emitter.

This is the per-cell rule, the emitter as ringflow shipped it before
all-number tables were formatted in one pass: one ``_format_cell`` or
``_json_value`` call per cell and ``json.dumps(..., indent=2)`` over the
whole payload.  ``ringflow.emit`` and
``ringflow.table_payload`` must give the same text, payload and errors;
``tests/test_emit.py`` checks that.
"""

import json
import math

from ringflow.errors import InvalidParameter, NonFiniteResult
from ringflow.scenario import ProfileTable


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

