"""Command-line interface: every computation as a subcommand.

Usage::

    ringflow <subcommand> --scenario FILE [flags]

The scenario path may also come from the RINGFLOW_SCENARIO environment
variable.  Numeric results are emitted as CSV (default) or JSON via
--format; CSV lines starting with '#' carry key=value metadata.  Exit
codes: 0 success, 1 usage or parse problem, 2 validation failure,
3 numerical failure (no extremum, solver residual, tolerance exceeded, a
non-finite number in the output).
Errors print one JSON object per line on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import SafetyThresholds
from .errors import ParseError, RingflowError
from .optimize import (classify_pressure_drop, find_coupling_point,
                       max_admissible_withdrawal)
from .oracle import OracleGrid, compare_with_series, simulate
from .scenario import (ProfileTable, Scenario, admissible_table,
                       build_report, drawdown_table, dump_json,
                       dump_scenario, emit, gradient_table, load_scenario)
from .series import sample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: validate fails (exit 3) beyond these bounds.
VALIDATE_L2_LIMIT = 0.01
VALIDATE_MEAN_LIMIT = 0.001

SCENARIO_ENV = "RINGFLOW_SCENARIO"


class UsageError(RingflowError):
    """Bad argv or an unreadable scenario path."""


class ToleranceExceeded(RingflowError, ArithmeticError):
    """validate found the series and the oracle further apart than allowed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse would call sys.exit(2)
        raise UsageError(message)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, "
                         f"got {text!r}") from None


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--scenario", metavar="FILE",
                        help="scenario file path (fallback: "
                             f"{SCENARIO_ENV} environment variable)")
    common.add_argument("--output", metavar="FILE",
                        help="write the result to FILE instead of stdout")
    formatted = _Parser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("csv", "json"),
                           default="csv", help="output format")

    parser = _Parser(prog="ringflow",
                     description="Transient ring-pipeline hydraulics: "
                                 "analytical pressure field, coupling-point "
                                 "location, admissible withdrawal, and an "
                                 "independent finite-difference check.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("node", parents=[formatted],
                       help="locate the pressure-maximum coupling point")
    p.add_argument("--time", type=float, required=True, metavar="T",
                   help="evaluation time in seconds")
    p.add_argument("--grid-step", type=float, default=100.0, metavar="DX",
                   help="scan step in metres (default 100)")
    p.add_argument("--include-withdrawals", action="store_true",
                   help="scan the loaded field instead of the base field")

    p = sub.add_parser("pressure", parents=[formatted],
                       help="pressure and gradient at one point")
    p.add_argument("--x", type=float, required=True, metavar="X",
                   help="position in metres")
    p.add_argument("--time", type=float, required=True, metavar="T",
                   help="time in seconds")

    p = sub.add_parser("gradient-table", parents=[formatted],
                       help="spatial gradient scan at one or more times")
    p.add_argument("--times", required=True, metavar="T1,T2,..",
                   help="times in seconds, comma separated")
    p.add_argument("--dx", type=float, default=1000.0, metavar="DX",
                   help="scan step in metres; must divide the ring length "
                        "(default 1000)")

    p = sub.add_parser("drawdown", parents=[formatted],
                       help="pressure at inlet and tap for withdrawal levels")
    p.add_argument("--levels", required=True, metavar="G1,G2,..",
                   help="total withdrawals in Pa*s/m, comma separated")
    p.add_argument("--times", required=True, metavar="T1,T2,..",
                   help="times in seconds, comma separated")
    p.add_argument("--positions", metavar="X1,X2,..",
                   help="positions in metres (default: 0 and the tap)")
    p.add_argument("--at", type=float, metavar="X",
                   help="tap position in metres (default: the scenario's "
                        "single withdrawal)")

    p = sub.add_parser("max-draw", parents=[formatted],
                       help="largest withdrawal meeting an inlet floor")
    p.add_argument("--pmin", type=float, required=True, metavar="P",
                   help="inlet pressure floor in Pa")
    p.add_argument("--horizon", type=float, required=True, metavar="T",
                   help="constraint horizon in seconds")
    p.add_argument("--gmax", type=float, metavar="G",
                   help="withdrawal cap in Pa*s/m (default: none)")
    p.add_argument("--at", type=float, metavar="X",
                   help="tap position in metres (default: the scenario's "
                        "single withdrawal)")
    p.add_argument("--method", choices=("affine", "bisection"),
                   default="affine", help="solver path (default affine)")

    p = sub.add_parser("classify", parents=[formatted],
                       help="safety band of a pressure drop")
    p.add_argument("--nominal", type=float, required=True, metavar="P",
                   help="nominal pressure in Pa")
    p.add_argument("--current", type=float, required=True, metavar="P",
                   help="current pressure in Pa")

    p = sub.add_parser("validate", parents=[formatted],
                       help="compare the series field with the "
                            "finite-difference check")
    p.add_argument("--cells", type=int, default=3000, metavar="N",
                   help="grid cells over the ring (default 3000)")
    p.add_argument("--dt", type=float, default=0.05, metavar="DT",
                   help="time step in seconds (default 0.05)")
    p.add_argument("--times", default="50,300", metavar="T1,T2,..",
                   help="snapshot times in seconds (default 50,300)")

    p = sub.add_parser("report", parents=[common],
                       help="full JSON bundle: tables, coupling point, "
                            "discrepancy ledger")
    p.add_argument("--time", type=float, default=100.0, metavar="T",
                   help="coupling-point evaluation time in seconds "
                        "(default 100)")
    p.add_argument("--pmin", type=float, metavar="P",
                   help="inlet floor in Pa for the admissible table "
                        "(default: 80%% of nominal)")

    sub.add_parser("echo-config", parents=[common],
                   help="print the normalized scenario with defaults "
                        "applied")
    return parser


def _scenario_path(ns) -> str | None:
    return ns.scenario or os.environ.get(SCENARIO_ENV)


def _load(ns) -> Scenario:
    path = _scenario_path(ns)
    if not path:
        raise UsageError("no scenario given; pass --scenario or set "
                         f"{SCENARIO_ENV}")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario {path!r}: {exc}") from exc
    return load_scenario(text)


def _one_row_table(scenario: Scenario | None, columns, row,
                   extra_metadata=None) -> ProfileTable:
    metadata = {}
    if scenario is not None:
        metadata["scenario"] = scenario.scenario_hash()
    metadata.update(extra_metadata or {})
    return ProfileTable(axis="time_scan", columns=tuple(columns),
                        rows=(tuple(row),), metadata=metadata)


def _cmd_node(ns):
    scenario = _load(ns)
    point = find_coupling_point(
        ns.time, scenario.schedule, scenario.pipeline, scenario.series,
        grid_step=ns.grid_step,
        include_withdrawals=ns.include_withdrawals)
    table = _one_row_table(
        scenario, ("x_new_m", "p_pa", "t_s", "concave"),
        (point.position_m, point.pressure_pa, point.time_s, True),
        {"grid_step_m": ns.grid_step,
         "include_withdrawals": ns.include_withdrawals})
    return emit(table, ns.format), None


def _cmd_pressure(ns):
    scenario = _load(ns)
    result = sample(ns.x, ns.time, scenario.schedule, scenario.pipeline,
                    scenario.series)
    table = _one_row_table(
        scenario, ("x_m", "t_s", "p_pa", "dP_dx_pa_per_m"),
        (result.position_m, result.time_s, result.pressure_pa,
         result.gradient_pa_per_m))
    return emit(table, ns.format), None


def _cmd_gradient_table(ns):
    scenario = _load(ns)
    times = _float_list(ns.times, "--times")
    table = gradient_table(scenario, times, ns.dx)
    return emit(table, ns.format), None


def _cmd_drawdown(ns):
    scenario = _load(ns)
    levels = _float_list(ns.levels, "--levels")
    times = _float_list(ns.times, "--times")
    tap = ns.at if ns.at is not None else scenario.tap_position()
    if ns.positions is not None:
        positions = _float_list(ns.positions, "--positions")
    else:
        positions = [0.0, tap]
    table = drawdown_table(scenario, positions, times, levels, tap_m=tap)
    return emit(table, ns.format), None


def _cmd_max_draw(ns):
    scenario = _load(ns)
    cfg = scenario.pipeline
    tap = ns.at if ns.at is not None else scenario.tap_position()
    result = max_admissible_withdrawal(
        ns.horizon, ns.pmin, ns.gmax, tap, cfg, scenario.series,
        method=ns.method)
    verdict = classify_pressure_drop(cfg.nominal_pressure(),
                                     result.inlet_pressure_pa,
                                     scenario.safety)
    table = _one_row_table(
        scenario,
        ("g_total", "cap_binding", "binding_time_s", "inlet_pressure_pa",
         "per_unit_drop_pa", "drop_fraction", "band"),
        (result.total, result.cap_binding, result.binding_time_s,
         result.inlet_pressure_pa, result.per_unit_drop_pa,
         verdict.drop_fraction, verdict.band.value),
        {"tap_m": tap, "p_min_pa": ns.pmin, "method": ns.method})
    return emit(table, ns.format), None


def _cmd_classify(ns):
    thresholds = SafetyThresholds()
    scenario = None
    if _scenario_path(ns):
        scenario = _load(ns)
        thresholds = scenario.safety
    verdict = classify_pressure_drop(ns.nominal, ns.current, thresholds)
    table = _one_row_table(
        scenario, ("nominal_pa", "current_pa", "drop_fraction", "band"),
        (ns.nominal, ns.current, verdict.drop_fraction,
         verdict.band.value))
    return emit(table, ns.format), None


def _cmd_validate(ns):
    scenario = _load(ns)
    times = _float_list(ns.times, "--times")
    if not times:
        raise UsageError("--times: at least one snapshot time is required")
    grid = OracleGrid(cells=ns.cells, dt_s=ns.dt, horizon_s=max(times))
    run = simulate(scenario.pipeline, scenario.schedule, grid, times)
    metrics = compare_with_series(run, scenario.pipeline, scenario.schedule,
                                  scenario.series)
    rows = tuple(
        (entry.time_s, entry.rel_l2, entry.max_abs_pa,
         entry.mean_drop_rel_err)
        for entry in metrics.entries)
    l2, mean = metrics.worst_rel_l2(), metrics.worst_mean_drop_err()
    passed = l2 <= VALIDATE_L2_LIMIT and mean <= VALIDATE_MEAN_LIMIT
    table = ProfileTable(
        axis="time_scan",
        columns=("t_s", "rel_l2", "max_abs_pa", "mean_drop_rel_err"),
        rows=rows,
        metadata={"scenario": scenario.scenario_hash(),
                  "cells": ns.cells, "dt_s": ns.dt,
                  "excluded_cells": metrics.excluded_cells,
                  "rel_l2_limit": VALIDATE_L2_LIMIT,
                  "mean_limit": VALIDATE_MEAN_LIMIT,
                  "max_residual_rel": run.max_residual_rel,
                  "passed": passed})
    return emit(table, ns.format), None if passed else ToleranceExceeded(
        f"worst rel_l2 {l2:.6g} (limit {VALIDATE_L2_LIMIT:g}), worst "
        f"mean_drop_rel_err {mean:.6g} (limit {VALIDATE_MEAN_LIMIT:g})")


def _cmd_report(ns):
    scenario = _load(ns)
    bundle = build_report(scenario, coupling_time_s=ns.time, p_min=ns.pmin)
    return dump_json(bundle), None


def _cmd_echo_config(ns):
    return dump_scenario(_load(ns)), None


_HANDLERS = {
    "node": _cmd_node,
    "pressure": _cmd_pressure,
    "gradient-table": _cmd_gradient_table,
    "drawdown": _cmd_drawdown,
    "max-draw": _cmd_max_draw,
    "classify": _cmd_classify,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "echo-config": _cmd_echo_config,
}


def _error_line(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def _exit_code(exc: BaseException) -> int:
    # Numerical failures are ArithmeticErrors, rejected inputs ValueErrors.
    if isinstance(exc, (UsageError, ParseError, OSError)):
        return EXIT_USAGE
    if isinstance(exc, ArithmeticError):
        return EXIT_NUMERICAL
    if isinstance(exc, ValueError):
        return EXIT_VALIDATION
    raise exc


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        # An overflow reaches the output as inf and fails as
        # NonFiniteResult; numpy's warning would be a second stderr line.
        with np.errstate(all="ignore"):
            text, failure = _HANDLERS[ns.subcommand](ns)
        if ns.output:
            with open(ns.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        if failure is not None:         # a result that is itself a failure
            raise failure
    except (RingflowError, OSError) as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return _exit_code(exc)
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(run())
