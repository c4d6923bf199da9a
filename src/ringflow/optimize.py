"""Coupling-point location and withdrawal inversion.

The coupling point is the pressure maximum of the ring: the position where
a new consumer can be attached with the least disturbance.  It is found by
a grid scan of dP/dx and a bisection that reads the midpoints of four
halvings in one field evaluation; where the gradient falls through zero
more than once, it is the crossing of highest pressure.  Because the
pressure there is affine in the withdrawal total, the admissible
withdrawal under an inlet-pressure floor has a closed-form inversion,
which is cross-checked by bisection.
The safety classification of a pressure drop lives in
:mod:`ringflow.core`, which needs no numpy, and is re-exported here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import series
from .core import (Band, DropClassification, GradientMode, PipelineConfig,
                   SeriesOptions, WithdrawalSchedule, classify_pressure_drop)
from .errors import (InfeasibleConstraint, InvalidParameter,
                     NegativeWithdrawalWarning, NoExtremum, OutOfDomain)
from .series import DEFAULT_OPTIONS

#: Bisection stops once the bracket is narrower than this, in metres.
POSITION_TOLERANCE_M = 0.01

#: Bisection halvings read from one field evaluation.
_TREE_DEPTH = 4

#: Step of the second central difference used for the concavity check,
#: as a fraction of the ring length.
CURVATURE_STEP_FRACTION = 1.0 / 3000.0

#: Times at which the max-draw inlet drop is sampled over the horizon.
TIME_SAMPLES = 240

#: Most grid steps L/grid_step of the coupling-point scan.
MAX_SCAN_STEPS = 10**5


@dataclass(frozen=True)
class CouplingPoint:
    """Location and value of the ring pressure maximum."""

    position_m: float
    pressure_pa: float
    time_s: float


@dataclass(frozen=True)
class AdmissibleWithdrawal:
    """Largest withdrawal meeting the inlet-pressure floor."""

    total: float                # admissible G_total, Pa*s/m
    cap_binding: bool           # True when the external cap was the limit
    binding_time_s: float       # time at which the floor binds
    inlet_pressure_pa: float    # inlet pressure at the binding time
    per_unit_drop_pa: float     # inlet drop per unit of withdrawal


def _bisect_root(grad, lo: float, hi: float) -> float:
    """Bisect a + to - crossing of ``grad`` (positions -> gradient row).

    One ``grad`` call reads the 2**_TREE_DEPTH - 1 midpoints 0.5*(lo + hi)
    of the next _TREE_DEPTH halvings, in order, and the walk down them
    takes each bracket exactly as one point per call would: > 0 moves lo,
    < 0 moves hi, and 0 or NaN returns the midpoint.
    """
    while hi - lo > POSITION_TOLERANCE_M:
        edges = [lo, hi]
        for _ in range(_TREE_DEPTH):
            mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
            edges = [x for pair in zip(edges, mids) for x in pair] + [hi]
        values = grad(edges[1:-1])
        i, j = 0, len(edges) - 1
        while j - i > 1 and hi - lo > POSITION_TOLERANCE_M:
            k = (i + j) // 2
            if values[k - 1] > 0.0:
                i, lo = k, edges[k]
            elif values[k - 1] < 0.0:
                j, hi = k, edges[k]
            else:
                return edges[k]
    return 0.5 * (lo + hi)


def _check_tap(x_new: float, cfg: PipelineConfig) -> None:
    if not 0.0 < x_new < cfg.length_m:
        raise OutOfDomain(f"tap position {x_new:g} outside (0, L)")


def find_coupling_point(t: float, schedule: WithdrawalSchedule,
                        cfg: PipelineConfig,
                        opts: SeriesOptions = DEFAULT_OPTIONS,
                        grid_step: float = 100.0,
                        include_withdrawals: bool = False) -> CouplingPoint:
    """Locate the pressure maximum by a sign-change scan of dP/dx.

    Scans x in [0, L] at ``grid_step``, both ring ends included, for +
    to - crossings, refines each by bisection to within 0.01 m, one field
    evaluation per four halvings, and returns the one of highest pressure,
    the first of equals.  One field evaluation reads the pressure at every
    crossing and the second central difference that confirms the chosen
    one's concavity.  Raises
    :class:`NoExtremum` when the gradient never changes sign (for instance
    at t = 0) or the chosen crossing is not concave.  A grid of more than
    :data:`MAX_SCAN_STEPS` steps is refused before any field evaluation.
    """
    if t == 0.0:
        raise NoExtremum("the gradient is identically zero at t = 0")
    if not 0.0 < grid_step < cfg.length_m:
        raise InvalidParameter("grid_step must lie in (0, L)")
    # Compared as floats: a subnormal step makes the quotient inf.
    if not cfg.length_m / grid_step <= MAX_SCAN_STEPS:
        raise InvalidParameter(
            f"grid_step {grid_step:g} gives more than {MAX_SCAN_STEPS} steps")

    # The base, pre-connection field by default; with include_withdrawals
    # the full gradient of the loaded field.
    sched = schedule if include_withdrawals else series.EMPTY_SCHEDULE
    basis = series._basis(t, opts.decay_rate(cfg), opts)

    def grad(x) -> np.ndarray:
        return series._gradient(series._positions(x, cfg), basis, sched, cfg,
                                opts, GradientMode.FULL)[0]

    xs = np.arange(grid_step, cfg.length_m, grid_step)
    xs = np.concatenate(([0.0], xs[xs < cfg.length_m], [cfg.length_m]))
    values = grad(xs)
    definite = values != 0.0              # zeros carry the last sign
    xs, values = xs[definite], values[definite]
    falls = np.flatnonzero((values[:-1] > 0.0) & (values[1:] < 0.0))
    brackets = [(float(xs[i]), float(xs[i + 1])) for i in falls]

    if not brackets:
        raise NoExtremum(f"no + to - gradient crossing on [0, L] at t = {t:g}")
    roots = [_bisect_root(grad, lo, hi) for lo, hi in brackets]
    h = cfg.length_m * CURVATURE_STEP_FRACTION
    stencils = []
    for root in roots:
        # Within h of a ring end the stencil moves inward to stay in [0, L].
        centre = min(max(root, h), cfg.length_m - h)
        stencils += (root, centre - h, centre, centre + h)
    field = series._pressure_field(series._positions(stencils, cfg), basis,
                                   sched, cfg, opts)[0]
    best = int(field[::4].argmax())         # the highest root, first of equals
    root = roots[best]
    peak, left, middle, right = field[4 * best:4 * best + 4]
    if right - 2.0 * middle + left >= 0.0:
        raise NoExtremum(
            f"stationary point at {root:.2f} m failed the concavity check")
    return CouplingPoint(position_m=root, pressure_pa=float(peak), time_s=t)


def tap_pressure(total: float, t: float, x_new: float,
                 cfg: PipelineConfig,
                 opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Pressure at the tap when a total withdrawal ``total`` sits there.

    The base pressure minus ``total`` times the point-mode per-unit drop
    there: the full series evaluated at its own tap.
    """
    x, basis = series._grid(x_new, t, cfg, opts)
    drop = float(series._unit_drop(x, basis, x_new, cfg, opts)[0, 0])
    base = series._pressure_field(x, basis, series.EMPTY_SCHEDULE, cfg, opts)
    return float(base[0, 0]) - total * drop


def pressure_at_coupling(t: float, g_new: float, x_new: float,
                         cfg: PipelineConfig,
                         opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Tap pressure once the base flow plus ``g_new`` is drawn at ``x_new``."""
    _check_tap(x_new, cfg)
    if not 0.0 <= g_new < math.inf:
        raise InvalidParameter("g_new must be finite and >= 0")
    return tap_pressure(cfg.base_flow + g_new, t, x_new, cfg, opts)


def invert_withdrawal(p_target: float, t: float, x_new: float,
                      cfg: PipelineConfig,
                      opts: SeriesOptions = DEFAULT_OPTIONS,
                      printed_form: bool = False) -> float:
    """Withdrawal increment g_new that yields ``p_target`` at the tap.

    The affine inverse of :func:`tap_pressure`, so
    ``pressure_at_coupling(t, g, x)`` and this function round-trip exactly.
    The self-consistent per-unit drop at the tap is (c^2/L)*(t + 2*pi*S_e);
    ``printed_form`` selects the (t + 2*S_e) kernel found in the source
    formula, which does not round-trip and is kept only for comparison.
    """
    _check_tap(x_new, cfg)
    if not 0.0 < t < math.inf:
        raise InvalidParameter("inversion requires a finite t > 0")
    x, basis = series._grid(x_new, t, cfg, opts)
    if printed_form:
        drop = (cfg.sound_speed_m_s**2 / cfg.length_m
                * (t + 2.0 * series.s_e(t, cfg, opts)))
    else:
        drop = float(series._unit_drop(x, basis, x_new, cfg, opts)[0, 0])
    base = series._pressure_field(x, basis, series.EMPTY_SCHEDULE, cfg, opts)
    g_new = (float(base[0, 0]) - p_target) / drop - cfg.base_flow
    if g_new < 0.0:
        warnings.warn(
            f"target pressure {p_target:g} Pa exceeds the zero-withdrawal "
            f"tap pressure; implied increment {g_new:g} is negative",
            NegativeWithdrawalWarning, stacklevel=2)
    return g_new


def _inlet_floor(p_min: float, x_new: float, times, cfg: PipelineConfig,
                 opts: SeriesOptions) -> tuple[float, np.ndarray]:
    """Budget nominal - p_min and the point-mode inlet drops per unit."""
    _check_tap(x_new, cfg)
    if not math.isfinite(p_min):
        raise InvalidParameter("p_min must be finite")
    nominal = cfg.nominal_pressure()
    if p_min > nominal:
        raise InfeasibleConstraint(
            f"pressure floor {p_min:g} Pa exceeds the nominal level "
            f"{nominal:g} Pa; even zero withdrawal violates it")
    drops = series._unit_drop(np.zeros(1), times, x_new, cfg, opts)[:, 0]
    return nominal - p_min, drops


def max_admissible_withdrawal(horizon_s: float, p_min: float,
                              g_max: float | None, x_new: float,
                              cfg: PipelineConfig,
                              opts: SeriesOptions = DEFAULT_OPTIONS,
                              method: str = "affine") -> AdmissibleWithdrawal:
    """Largest total withdrawal at ``x_new`` keeping P(0, t) >= p_min.

    The inlet pressure is nominal minus the withdrawal total times a
    per-unit drop D(t), so the constraint over the horizon reduces to an
    affine inversion at the binding time (``method="affine"``).  The
    ``"bisection"`` method solves the same sampled min-over-time constraint
    to 1e-6 flow units, or as far as floating point can split the bracket
    (totals above about 1e9), and exists as a cross-check.  It tests the
    largest sampled drop alone, the tightest for g >= 0: rounded ``g * d``
    never falls as d grows, nor ``nominal - y`` rises as y grows.

    D(t) is checked for monotone growth on :data:`TIME_SAMPLES` times up
    to the horizon; if that ever failed, the sampled maximum would be used
    as the binding point.  As in the admissible table, D(t) is evaluated in
    point mode whatever the withdrawal model.
    """
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
        worst, floor = float(drops.max()), p_min - 1e-9
        lo, hi = 0.0, 2.0 * budget / drop_max + 1.0
        while hi - lo > 1e-6 and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if nominal - mid * worst >= floor:
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
