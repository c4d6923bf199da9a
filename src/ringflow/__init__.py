"""Transient hydraulics of closed-loop gas pipelines with point withdrawals.

Evaluates the analytical series pressure field on a ring main, locates the
pressure-maximum coupling point for new consumers, inverts the field for
admissible withdrawal under inlet-pressure constraints, and validates the
series against an independent finite-difference integration.
"""

from .core import (DecayMode, GradientMode, PipelineConfig, SafetyThresholds,
                   SeriesOptions, WithdrawalModel, WithdrawalPoint,
                   WithdrawalSchedule, derive_linearization)
from .errors import (ConvergenceFailure, InfeasibleConstraint,
                     InvalidParameter, MultipleExtrema,
                     NegativeWithdrawalWarning, NoExtremum, NonFiniteResult,
                     OutOfDomain, ParseError, RingflowError, ValidationError)
from .optimize import (AdmissibleWithdrawal, Band, CouplingPoint,
                       DropClassification, classify_pressure_drop,
                       find_coupling_point, invert_withdrawal,
                       max_admissible_withdrawal, pressure_at_coupling,
                       tap_pressure)
from .oracle import (OracleComparison, OracleGrid, OracleRun,
                     compare_with_series, simulate)
from .scenario import (DISCREPANCIES, ProfileTable, Scenario,
                       admissible_table, build_report, drawdown_table,
                       dump_scenario, emit, gradient_table, load_scenario)
from .series import (ProfileSample, base_pressure, gradient_periodicity_gap,
                     pressure, pressure_gradient, s_e, s_sin, sample,
                     withdrawal_response)

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
    "MultipleExtrema",
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
