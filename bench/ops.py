"""Operation runners and the outcome check every operation goes through.

An operation's *outcome* is an exit code plus its output text.  Library
calls map exceptions to the CLI's documented codes by error class, so the
``cli`` and ``plan`` workloads judge the same query the same way.

An operation fails when any of these happens:

* its code is outside the set its input was built to give;
* it printed a traceback, or raised an exception no error class documents;
* a non-zero code does not come with exactly one JSON line on stderr;
* its output holds a non-finite number or invalid JSON, or a check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
from dataclasses import dataclass

import ringflow as rf
import ringflow.cli
from ringflow.errors import ParseError, RingflowError

#: The CLI's validate limits, reused for in-process oracle operations.
REL_L2_LIMIT = 0.01
MEAN_DROP_LIMIT = 0.001

_YAML_NONFINITE = re.compile(r"(?<![\w.])[-+]?\.(?:nan|inf)\b", re.I)
#: How the emitters spell a non-finite float in CSV cells.
_CSV_NONFINITE = re.compile(r"[-+]?(?:nan|inf(?:inity)?)", re.I)


@dataclass
class Outcome:
    code: int | None              # None: undocumented exception
    out: str = ""
    err: str = ""
    error: str = ""               # exception type name, if one escaped
    value: object = None          # library result, for oracle checks
    process: bool = False         # True when the CLI contract applies


def exit_code(exc: BaseException) -> int | None:
    """Documented exit code of an exception, by error class."""
    if not isinstance(exc, RingflowError):
        return None
    if isinstance(exc, ParseError):
        return 1
    if isinstance(exc, ArithmeticError):
        return 3
    return 2


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def output_problem(kind: str, fmt: str, text: str) -> str | None:
    """Why ``text`` is not valid output of subcommand ``kind``, or None."""
    if not text:
        return "empty output"
    if kind == "report" or (fmt == "json" and kind != "echo-config"):
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        return None
    if kind == "echo-config":
        return "non-finite YAML value" if _YAML_NONFINITE.search(text) \
            else None
    for line in text.splitlines():
        cells = [line.partition("=")[2]] if line.startswith("#") \
            else line.split(",")
        if any(_CSV_NONFINITE.fullmatch(c.strip()) for c in cells):
            return f"non-finite value in {line!r}"
    return None


def problem(item, outcome: Outcome) -> str | None:
    """Why ``outcome`` is a failure of ``item``, or None when it is not."""
    if outcome.error:
        return f"undocumented {outcome.error}"
    if "Traceback" in outcome.err:
        return "traceback"
    if outcome.code not in (0, 1, 2, 3):
        return f"exit code {outcome.code} outside 0-3"
    if outcome.code not in item.expect:
        return f"exit {outcome.code}, expected one of {list(item.expect)}"
    if outcome.code != 0:
        lines = outcome.err.splitlines()
        if outcome.process and (len(lines) != 1 or not _json_error(lines[0])):
            return "stderr is not exactly one JSON error line"
        return None
    if hasattr(item, "cells"):
        return _comparison_problem(outcome.value)
    return output_problem(item.kind, item.fmt, outcome.out)


def _json_error(line: str) -> bool:
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and "error" in record


def _comparison_problem(comparison) -> str | None:
    for e in comparison.entries:
        if not all(math.isfinite(v) for v in
                   (e.rel_l2, e.max_abs_pa, e.mean_drop_rel_err)):
            return f"non-finite error norm at t={e.time_s:g}"
    return None


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_process(argv, env, cwd) -> Outcome:
    """One CLI process, killed if it outlives two minutes."""
    try:
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return Outcome(None, error="timeout", process=True)
    return Outcome(proc.returncode, proc.stdout, proc.stderr, process=True)


def run_cli_inprocess(argv) -> Outcome:
    """``ringflow.cli.run(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ringflow.cli.run(argv)
    except Exception as exc:           # a traceback in a real process
        return Outcome(None, out.getvalue(), err.getvalue(),
                       error=type(exc).__name__, process=True)
    return Outcome(code, out.getvalue(), err.getvalue(), process=True)


def _floats(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece]


def _one_row(scenario, columns, row) -> "rf.ProfileTable":
    metadata = {"scenario": scenario.scenario_hash()} if scenario else {}
    return rf.ProfileTable(axis="time_scan", columns=columns, rows=(row,),
                           metadata=metadata)


def plan_text(query, text: str | None) -> str:
    """Answer ``query`` through the library: scenario text in, emitted
    text out, as the CLI subcommand of the same name would."""
    f = query.flags
    sc = rf.load_scenario(text) if text is not None else None
    kind = query.kind
    if kind == "echo-config":
        return rf.dump_scenario(sc)
    if kind == "report":
        pmin = float(f["pmin"]) if "pmin" in f else None
        bundle = rf.build_report(sc, coupling_time_s=float(f["time"]),
                                 p_min=pmin)
        return json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    if kind == "classify":
        verdict = rf.classify_pressure_drop(
            float(f["nominal"]), float(f["current"]),
            sc.safety if sc else None)
        table = _one_row(sc, ("nominal_pa", "current_pa", "drop_fraction",
                              "band"),
                         (float(f["nominal"]), float(f["current"]),
                          verdict.drop_fraction, verdict.band.value))
    elif kind == "node":
        point = rf.find_coupling_point(
            float(f["time"]), sc.schedule, sc.pipeline, sc.series,
            grid_step=float(f.get("grid-step", "100")),
            include_withdrawals="include-withdrawals" in f)
        table = _one_row(sc, ("x_new_m", "p_pa", "t_s", "concave"),
                         (point.position_m, point.pressure_pa, point.time_s,
                          True))
    elif kind == "pressure":
        s = rf.sample(float(f["x"]), float(f["time"]), sc.schedule,
                      sc.pipeline, sc.series)
        table = _one_row(sc, ("x_m", "t_s", "p_pa", "dP_dx_pa_per_m"),
                         (s.position_m, s.time_s, s.pressure_pa,
                          s.gradient_pa_per_m))
    elif kind == "gradient-table":
        table = rf.gradient_table(sc, _floats(f["times"]), float(f["dx"]))
    elif kind == "drawdown":
        tap = float(f["at"]) if "at" in f else sc.tap_position()
        positions = _floats(f["positions"]) if "positions" in f \
            else [0.0, tap]
        table = rf.drawdown_table(sc, positions, _floats(f["times"]),
                                  _floats(f["levels"]), tap_m=tap)
    elif kind == "max-draw":
        tap = float(f["at"]) if "at" in f else sc.tap_position()
        gmax = float(f["gmax"]) if "gmax" in f else None
        res = rf.max_admissible_withdrawal(
            float(f["horizon"]), float(f["pmin"]), gmax, tap, sc.pipeline,
            sc.series, method=f.get("method", "affine"))
        verdict = rf.classify_pressure_drop(sc.pipeline.nominal_pressure(),
                                            res.inlet_pressure_pa, sc.safety)
        table = _one_row(sc, ("g_total", "cap_binding", "binding_time_s",
                              "inlet_pressure_pa", "per_unit_drop_pa",
                              "drop_fraction", "band"),
                         (res.total, res.cap_binding, res.binding_time_s,
                          res.inlet_pressure_pa, res.per_unit_drop_pa,
                          verdict.drop_fraction, verdict.band.value))
    else:
        raise KeyError(f"no library path for {kind!r}")
    return rf.emit(table, query.fmt)


def run_plan(query, text: str | None) -> Outcome:
    try:
        return Outcome(0, plan_text(query, text))
    except Exception as exc:
        code = exit_code(exc)
        return Outcome(code, error="" if code is not None
                       else type(exc).__name__)


def oracle_objects(meta) -> tuple:
    """PipelineConfig and schedule of a generated oracle scenario."""
    pipe, taps, _ = meta
    cfg = rf.PipelineConfig(
        length_m=pipe["length_m"], sound_speed_m_s=pipe["sound_speed_m_s"],
        linearization_a=pipe["linearization_a_per_s"],
        inlet_pressure_pa=pipe["inlet_pressure_pa"],
        base_flow=pipe["base_flow"])
    return cfg, rf.WithdrawalSchedule.from_pairs(taps)


def run_oracle(case, cfg, schedule) -> Outcome:
    """One validate operation: simulate, then compare with the series."""
    try:
        horizon = case.horizon_s if case.horizon_s is not None \
            else max(case.times)
        grid = rf.OracleGrid(cells=case.cells, dt_s=case.dt_s,
                             horizon_s=horizon)
        run = rf.simulate(cfg, schedule, grid, list(case.times))
        comparison = rf.compare_with_series(run, cfg, schedule)
    except Exception as exc:
        code = exit_code(exc)
        return Outcome(code, error="" if code is not None
                       else type(exc).__name__)
    passed = (comparison.worst_rel_l2() <= REL_L2_LIMIT
              and comparison.worst_mean_drop_err() <= MEAN_DROP_LIMIT)
    return Outcome(0 if passed else 3, value=comparison)
