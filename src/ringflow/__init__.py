"""Transient hydraulics of closed-loop gas pipelines with point withdrawals.

Evaluates the analytical series pressure field on a ring main, locates the
pressure-maximum coupling point for new consumers, inverts the field for
admissible withdrawal under inlet-pressure constraints, and validates the
series against an independent finite-difference integration.

``import ringflow`` loads no numpy: the names of ``optimize``, ``oracle``
and ``series`` load with their module when first used.
"""

import sys
from importlib import import_module

from .core import (Band, DecayMode, DropClassification, GradientMode,
                   PipelineConfig, SafetyThresholds, SeriesOptions,
                   WithdrawalModel, WithdrawalPoint, WithdrawalSchedule,
                   classify_pressure_drop, derive_linearization)
from .errors import (ConvergenceFailure, InfeasibleConstraint,
                     InvalidParameter, NegativeWithdrawalWarning, NoExtremum,
                     NonFiniteResult, OutOfDomain, ParseError, RingflowError,
                     ValidationError)
from .scenario import (DISCREPANCIES, ProfileTable, Scenario,
                       admissible_table, build_report, drawdown_table,
                       dump_scenario, emit, gradient_table, load_scenario)

#: Names from the modules that import numpy, by home module; see
#: :func:`__getattr__`.
_LAZY = {
    **dict.fromkeys(("AdmissibleWithdrawal", "CouplingPoint",
                     "find_coupling_point", "invert_withdrawal",
                     "max_admissible_withdrawal", "pressure_at_coupling",
                     "tap_pressure"), "ringflow.optimize"),
    **dict.fromkeys(("OracleComparison", "OracleGrid", "OracleRun",
                     "compare_with_series", "simulate"), "ringflow.oracle"),
    **dict.fromkeys(("ProfileSample", "base_pressure",
                     "gradient_periodicity_gap", "pressure",
                     "pressure_gradient", "s_e", "s_sin", "sample",
                     "withdrawal_response"), "ringflow.series"),
}


def __getattr__(name):
    """A name of ``optimize``, ``oracle`` or ``series``, imported with its
    module (and numpy) on first use (PEP 562).

    The name is read from its module on every access and never stored
    here, so a replacement made there (a tracer, a test's monkeypatch) and
    its undoing both show through ``ringflow``.
    """
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = sys.modules.get(home) or import_module(home)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "AdmissibleWithdrawal",
    "Band",
    "ConvergenceFailure",
    "CouplingPoint",
    "DISCREPANCIES",
    "DecayMode",
    "DropClassification",
    "GradientMode",
    "InfeasibleConstraint",
    "InvalidParameter",
    "NegativeWithdrawalWarning",
    "NoExtremum",
    "NonFiniteResult",
    "OracleComparison",
    "OracleGrid",
    "OracleRun",
    "OutOfDomain",
    "ParseError",
    "PipelineConfig",
    "ProfileSample",
    "ProfileTable",
    "RingflowError",
    "SafetyThresholds",
    "Scenario",
    "SeriesOptions",
    "ValidationError",
    "WithdrawalModel",
    "WithdrawalPoint",
    "WithdrawalSchedule",
    "admissible_table",
    "base_pressure",
    "build_report",
    "classify_pressure_drop",
    "compare_with_series",
    "derive_linearization",
    "drawdown_table",
    "dump_scenario",
    "emit",
    "find_coupling_point",
    "gradient_periodicity_gap",
    "gradient_table",
    "invert_withdrawal",
    "load_scenario",
    "max_admissible_withdrawal",
    "pressure",
    "pressure_at_coupling",
    "pressure_gradient",
    "s_e",
    "s_sin",
    "sample",
    "simulate",
    "tap_pressure",
    "withdrawal_response",
    "__version__",
]
