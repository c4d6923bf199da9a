"""Reference bisections.

``bisect_root`` is the coupling-point bisection as ringflow shipped it
before the midpoint tree: one ``grad`` call, and so one field evaluation,
per halving.  ``ringflow.optimize._bisect_root`` must return the same
float for every gradient and bracket, and ``find_coupling_point`` the same
``CouplingPoint``.  ``crossings`` refines, with ``bisect_root``, every + to
- crossing of the coupling-point scan, among which ``find_coupling_point``
must return one of highest pressure.

``max_admissible_withdrawal`` is the admissible-withdrawal search as
ringflow shipped it before the bisection tested one float per halving: its
``"bisection"`` loop tests every sampled drop with ``np.all``.
``ringflow.optimize.max_admissible_withdrawal`` must return the same
``AdmissibleWithdrawal``, or raise the same error.

``tests/test_optimize.py`` checks both.
"""

import math

import numpy as np

from ringflow.core import (GradientMode, PipelineConfig, SeriesOptions,
                           WithdrawalSchedule)
from ringflow.errors import InvalidParameter
from ringflow.optimize import (POSITION_TOLERANCE_M, TIME_SAMPLES,
                               AdmissibleWithdrawal, _inlet_floor)
from ringflow.series import DEFAULT_OPTIONS, EMPTY_SCHEDULE, _gradient


def bisect_root(grad, lo: float, hi: float) -> float:
    """Bisect a + to - crossing of ``grad`` (positions -> gradient row)."""
    while hi - lo > POSITION_TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        value = grad(mid)[0]
        if value > 0.0:
            lo = mid
        elif value < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def crossings(t: float, schedule: WithdrawalSchedule, cfg: PipelineConfig,
              opts: SeriesOptions = DEFAULT_OPTIONS, grid_step: float = 100.0,
              include_withdrawals: bool = False) -> list:
    """Every + to - crossing of dP/dx on the scan grid of
    ``find_coupling_point``, each refined by ``bisect_root``."""
    sched = schedule if include_withdrawals else EMPTY_SCHEDULE

    def grad(x):
        return _gradient(x, t, sched, cfg, opts, GradientMode.FULL)[0]

    xs = np.arange(grid_step, cfg.length_m, grid_step)
    xs = [0.0] + [float(x) for x in xs if x < cfg.length_m] + [cfg.length_m]
    signed = [(x, v) for x, v in zip(xs, grad(xs)) if v != 0.0]
    return [bisect_root(grad, a, b)
            for (a, left), (b, right) in zip(signed, signed[1:])
            if left > 0.0 > right]


def max_admissible_withdrawal(horizon_s: float, p_min: float,
                              g_max: float | None, x_new: float,
                              cfg: PipelineConfig,
                              opts: SeriesOptions = DEFAULT_OPTIONS,
                              method: str = "affine") -> AdmissibleWithdrawal:
    """Largest total withdrawal at ``x_new`` keeping P(0, t) >= p_min."""
    if not 0.0 < horizon_s < math.inf:
        raise InvalidParameter("horizon_s must be finite and > 0")
    if g_max is not None and not g_max >= 0.0:     # NaN too
        raise InvalidParameter("g_max must be >= 0 or None")
    times = horizon_s * np.arange(1, TIME_SAMPLES + 1) / TIME_SAMPLES
    budget, drops = _inlet_floor(p_min, x_new, times, cfg, opts)
    nominal = cfg.nominal_pressure()
    monotone = bool(np.all(np.diff(drops) >= -1e-9 * abs(drops[-1])))
    bind = len(drops) - 1 if monotone else int(np.argmax(drops))
    drop_max = float(drops[bind])

    if method == "affine":
        total = budget / drop_max
    elif method == "bisection":
        def feasible(g: float) -> bool:
            return bool(np.all(nominal - g * drops >= p_min - 1e-9))
        lo, hi = 0.0, 2.0 * budget / drop_max + 1.0
        while hi - lo > 1e-6 and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        total = lo
    else:
        raise InvalidParameter(f"unknown method {method!r}")

    cap_binding = g_max is not None and math.isfinite(g_max) and total > g_max
    if cap_binding:
        total = g_max
    return AdmissibleWithdrawal(
        total=total,
        cap_binding=cap_binding,
        binding_time_s=float(times[bind]),
        inlet_pressure_pa=nominal - total * drop_max,
        per_unit_drop_pa=drop_max,
    )
