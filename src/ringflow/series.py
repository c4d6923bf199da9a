"""Analytical transient pressure field of a ring main with point withdrawals.

The field is the superposition of a base profile carried by half-wave sine
modes and, per withdrawal, a storage-depletion term linear in time plus a
full-wave cosine response:

    P(x, t) = P1 - a*G0*L + (2*a*G0*L/pi) * sum_n sin(pi*n*x/L) * E_n / n^3
              - sum_i G_i * [ c^2*t/L
                              + (2*c^2/(L*alpha)) * sum_n cos(2*pi*n*(x - x_i)/L)
                                * E_n / n^2 ]

with E_n = 1 - exp(-n^2 * rate * t) and alpha = 2*pi^2*c^2/(a*L^2).  The
decay rate defaults to alpha, which is the rate at which the periodic
diffusion modes of the equivalent heat equation actually decay.

One kernel, ``_mode_sum``, evaluates sum_n trig(n*u) * E_n / n^p (sin for
odd p, cos for even p) for a vector of times and a vector of angles u in
[0, 2*pi] as a (times x angles) array whose rows at t = 0 are exactly zero.
Its per-time half, the *basis* (``_basis``: the checked times, the mode
numbers, exp(-n^2*rate*t) and the t = 0 rows), is built once per field
evaluation, whose positions ``_grid`` checks once, and is shared only
between evaluations at equal times and decay rate.  The field and its
gradient are (times x positions) arrays, so the public scalar functions
only read one cell.  ``_add_taps`` is the one tap loop (of the response and
the gradient), ``_point_response`` the one point-mode response (per-unit
drops, the inlet floor, the oracle's references) and
``_regularized_gradient`` the one gradient that is 0 at taps.  The plain
route sums ``truncation_n`` terms.  The accelerated route (default) takes
the time-independent part of each sum from its exact closed form,

    sum_n sin(n*u)/n^3 = u*(pi - u)*(2*pi - u)/12
    sum_n cos(n*u)/n^2 = pi^2/6 - pi*u/2 + u^2/4
    sum_n sin(n*u)/n   = (pi - u)/2     for u > 0; the sum is 0 at u = 0

and subtracts the exponential corrections exp(-n^2*rate*t)/n^p.  It sums
only the first

    N_eff = min(truncation_n, ceil(sqrt(ln(1e20) / (rate * t_min))))

of them, t_min being the smallest positive time of the basis: every later
correction has n^2*rate*t > ln(1e20), so it is below exp(-46) = 1e-20, and
their whole tail stays far below the rounding of the O(1) closed forms.
With no positive time, or where rate * t_min underflows, N_eff is
``truncation_n``.  The plain route keeps all ``truncation_n`` terms: its
truncated tail is part of the model it evaluates.

Withdrawal angles are always reduced through ``(x - x_i) mod L`` before any
trigonometry, which makes the point-mode field exactly periodic in floating
point: P(0, t) and P(L, t) are computed from identical intermediates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (GradientMode, PipelineConfig, SeriesOptions,
                   WithdrawalModel, WithdrawalPoint, WithdrawalSchedule)
from .errors import OutOfDomain

_PI = math.pi
_PI_SQ_OVER_6 = math.pi**2 / 6.0

DEFAULT_OPTIONS = SeriesOptions()
EMPTY_SCHEDULE = WithdrawalSchedule(())

#: Most modes x angles in one trig matrix; longer angle vectors go in
#: blocks.  A whole 200-mode, 3000-position gradient table in one matrix
#: (two 4.8 MB temporaries) raised the plan benchmark's peak RSS by 15 %.
_TRIG_ELEMENTS = 1 << 16

#: Accelerated corrections with n^2*rate*t beyond this exponent are below
#: 1e-20 and are not summed.
_NEGLIGIBLE_EXPONENT = math.log(1e20)

#: Closed form of sum_n trig(n*u)/n^p on [0, 2*pi], by power p.
_CLOSED_FORMS = {
    3: lambda u: u * (_PI - u) * (2.0 * _PI - u) / 12.0,
    2: lambda u: _PI_SQ_OVER_6 - 0.5 * _PI * u + 0.25 * u * u,
    # The closed form has a jump at u = 0 where the series itself is 0.
    1: lambda u: np.where(u > 0.0, 0.5 * (_PI - u), 0.0),
}


def _positions(x, cfg: PipelineConfig) -> np.ndarray:
    """Positions as an array, checked against [0, L]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (x >= 0.0) & (x <= cfg.length_m)
    if not inside.all():
        raise OutOfDomain(f"position {x[~inside][0]:g} "
                          f"outside [0, {cfg.length_m:g}]")
    return x


# ---------------------------------------------------------------------------
# Kernel and field: (times x positions) arrays of checked positions and times.
# ---------------------------------------------------------------------------

def _modes(times: np.ndarray, rate: float, opts: SeriesOptions) -> int:
    """Modes to sum: ``truncation_n``, or N_eff under acceleration."""
    positive = times[times > 0.0]
    if opts.closed_form_acceleration and positive.size:
        exponent = rate * float(positive.min())
        # Compared as floats: a tiny exponent makes the bound inf.
        if exponent > 0.0:
            bound = math.sqrt(_NEGLIGIBLE_EXPONENT / exponent)
            if bound < opts.truncation_n:
                return math.ceil(bound)
    return opts.truncation_n


#: The per-time half of every mode sum at one set of checked times: mode
#: numbers n, exp(-n^2*rate*t) (times x modes) and the rows at t = 0.
_Basis = namedtuple("_Basis", "times n decay zero")


def _basis(times, rate: float, opts: SeriesOptions) -> _Basis:
    """Times checked against [0, inf) and their basis at decay ``rate``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    finite = (times >= 0.0) & (times < math.inf)
    if not finite.all():
        raise OutOfDomain(f"time {times[~finite][0]:g} outside [0, inf)")
    n = np.arange(1.0, _modes(times, rate, opts) + 1.0)
    return _Basis(times, n, np.exp(-((rate * times)[:, None] * (n * n))),
                  times == 0.0)


def _grid(x, times, cfg: PipelineConfig, opts: SeriesOptions):
    """Checked positions and the basis of ``times``; a caller sharing a basis
    passes it with positions it checked, and both pass through as is."""
    if isinstance(times, _Basis):
        return x, times
    return _positions(x, cfg), _basis(times, opts.decay_rate(cfg), opts)


def _mode_sum(theta, basis: _Basis, opts: SeriesOptions, power: int):
    """sum_n trig(n*u) * (1 - exp(-n^2*rate*t)) / n^power, u in [0, 2*pi]."""
    n, decay = basis.n, basis.decay
    blocks = -(-theta.size * n.size // _TRIG_ELEMENTS)
    if blocks > 1 and theta.size > 1:
        return np.hstack([_mode_sum(u, basis, opts, power)
                          for u in np.array_split(theta, blocks)])
    trig = (np.sin if power % 2 else np.cos)(n[:, None] * theta)
    if opts.closed_form_acceleration:
        out = _CLOSED_FORMS[power](theta) - (decay / n**power) @ trig
    else:
        out = ((1.0 - decay) / n**power) @ trig
    out[basis.zero] = 0.0
    return out


def _half_wave_sum(x, times, cfg: PipelineConfig,
                   opts: SeriesOptions) -> np.ndarray:
    """sum_n sin(pi*n*x/L) * (1 - exp(-n^2*rate*t)) / n^3 for x in [0, L]."""
    x, basis = _grid(x, times, cfg, opts)
    out = _mode_sum(_PI * (x / cfg.length_m), basis, opts, 3)
    # The half-wave modes vanish identically at both ring ends; force the
    # exact zeros the truncated trigonometry only approximates.
    out[:, (x == 0.0) | (x == cfg.length_m)] = 0.0
    return out


def _add_taps(out, x, basis: _Basis, schedule: WithdrawalSchedule,
              cfg: PipelineConfig, opts: SeriesOptions, power: int, term,
              model: WithdrawalModel | None = None):
    """Add term(mode sum from each tap, its rate) into ``out``, then zero
    the t = 0 rows, where an infinite rate times a zero sum gives NaN."""
    length = cfg.length_m
    model = model or opts.withdrawal_model
    with np.errstate(invalid="ignore"):
        for point in schedule.points:
            angle = 2.0 * _PI * (((x - point.position_m) % length) / length)
            value = term(_mode_sum(angle, basis, opts, power), point.rate)
            if model is WithdrawalModel.HEAVISIDE:
                value = np.where(x >= point.position_m, value, 0.0)
            out += value
    out[basis.zero] = 0.0
    return out


def _response_kernel(x, times, schedule: WithdrawalSchedule,
                     cfg: PipelineConfig, opts: SeriesOptions,
                     model: WithdrawalModel | None = None) -> np.ndarray:
    x, basis = _grid(x, times, cfg, opts)
    if not schedule.points:             # no taps: no loop, no t = 0 mask
        return np.zeros((basis.times.size, x.size))
    c_sq = cfg.sound_speed_m_s**2
    depletion = (c_sq * basis.times / cfg.length_m)[:, None]
    cosine_scale = 2.0 * c_sq / (cfg.length_m * cfg.alpha())
    return _add_taps(np.zeros((basis.times.size, x.size)), x, basis,
                     schedule, cfg, opts, 2, lambda series, rate:
                     -(depletion + cosine_scale * series) * rate, model)


def _pressure_field(x, times, schedule: WithdrawalSchedule,
                    cfg: PipelineConfig, opts: SeriesOptions) -> np.ndarray:
    x, basis = _grid(x, times, cfg, opts)
    coeff = (2.0 * cfg.linearization_a * cfg.base_flow * cfg.length_m) / _PI
    return (cfg.nominal_pressure() + coeff * _half_wave_sum(x, basis, cfg, opts)
            + _response_kernel(x, basis, schedule, cfg, opts))


def _point_response(x, times, schedule: WithdrawalSchedule,
                    cfg: PipelineConfig, opts: SeriesOptions) -> np.ndarray:
    """The withdrawal response in point mode, whatever the withdrawal model;
    the junction, the inlet floor and the oracle have no one-sided gating."""
    return _response_kernel(x, times, schedule, cfg, opts,
                            WithdrawalModel.POINT)


def _unit_drop(x, times, x_new: float, cfg: PipelineConfig,
               opts: SeriesOptions) -> np.ndarray:
    """Point-mode pressure drop per unit of withdrawal at ``x_new``."""
    unit = WithdrawalSchedule((WithdrawalPoint(x_new, 1.0),))
    return -_point_response(x, times, unit, cfg, opts)


def _gradient(x, times, schedule: WithdrawalSchedule, cfg: PipelineConfig,
              opts: SeriesOptions,
              mode: GradientMode | None = None) -> np.ndarray:
    """dP/dx without the delta regularization at tap positions."""
    x, basis = _grid(x, times, cfg, opts)
    length = cfg.length_m
    grad = (2.0 * cfg.linearization_a * cfg.base_flow
            * _mode_sum(_PI * (x / length), basis, opts, 2))
    if (mode or opts.gradient_mode) is not GradientMode.FULL:
        schedule = EMPTY_SCHEDULE
    scale = 4.0 * _PI * cfg.sound_speed_m_s**2 / (length**2 * cfg.alpha())
    return _add_taps(grad, x, basis, schedule, cfg, opts, 1,
                     lambda series, rate: scale * rate * series)


def _regularized_gradient(x, times, schedule: WithdrawalSchedule,
                          cfg: PipelineConfig, opts: SeriesOptions):
    """dP/dx with the columns at tap positions set to exactly 0."""
    x, basis = _grid(x, times, cfg, opts)
    grad = _gradient(x, basis, schedule, cfg, opts)
    if schedule.points:
        at_tap = x == schedule.points[0].position_m
        for point in schedule.points[1:]:
            at_tap |= x == point.position_m
        grad[:, at_tap] = 0.0
    return grad


# ---------------------------------------------------------------------------
# Public field evaluations.
# ---------------------------------------------------------------------------

def base_pressure(x: float, t: float, cfg: PipelineConfig,
                  opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Pressure of the withdrawal-free ring at position ``x`` and time ``t``."""
    return float(_pressure_field(x, t, EMPTY_SCHEDULE, cfg, opts)[0, 0])


def withdrawal_response(x: float, t: float, schedule: WithdrawalSchedule,
                        cfg: PipelineConfig,
                        opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Signed pressure contribution of the withdrawals at (x, t).

    Always <= 0 for nonnegative rates: a storage-depletion term common to
    the whole ring plus a cosine redistribution centred on each tap.
    """
    return float(_response_kernel(x, t, schedule, cfg, opts)[0, 0])


def pressure(x: float, t: float, schedule: WithdrawalSchedule,
             cfg: PipelineConfig,
             opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Total pressure: base field plus withdrawal response."""
    return float(_pressure_field(x, t, schedule, cfg, opts)[0, 0])


def response_profile(positions, t: float, schedule: WithdrawalSchedule,
                     cfg: PipelineConfig,
                     opts: SeriesOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Vectorized :func:`withdrawal_response` over an array of positions."""
    return _response_kernel(positions, t, schedule, cfg, opts)[0]


def continuous_gradient(x: float, t: float, schedule: WithdrawalSchedule,
                        cfg: PipelineConfig,
                        opts: SeriesOptions = DEFAULT_OPTIONS,
                        mode: GradientMode | None = None) -> float:
    """dP/dx without the delta regularization applied at tap positions.

    The smooth underlying function, which extremum scans need even on grid
    nodes that coincide with a withdrawal.
    """
    return float(_gradient(x, t, schedule, cfg, opts, mode)[0, 0])


def pressure_gradient(x: float, t: float, schedule: WithdrawalSchedule,
                      cfg: PipelineConfig,
                      opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """dP/dx in Pa/m, reported as 0 exactly at withdrawal positions.

    The distributional delta carried by each withdrawal makes the gradient
    undefined at the tap itself, so those points are regularized to zero.
    """
    return float(_regularized_gradient(x, t, schedule, cfg, opts)[0, 0])


def s_sin(x: float, t: float, cfg: PipelineConfig,
          opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """sum_n sin(pi*n*x/L) * (1 - exp(-n^2*rate*t)) / (pi*n^3)."""
    return float(_half_wave_sum(x, t, cfg, opts)[0, 0]) / _PI


def s_e(t: float, cfg: PipelineConfig,
        opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """sum_n (1 - exp(-n^2*rate*t)) / (alpha*pi*n^2), a seconds-like kernel.

    Saturates at pi/(6*alpha) as t grows.
    """
    value = _mode_sum(*_grid(0.0, t, cfg, opts), opts, 2)[0, 0]
    return float(value) / (cfg.alpha() * _PI)


@dataclass(frozen=True)
class ProfileSample:
    """One field sample: pressure and, optionally, its spatial gradient."""

    position_m: float
    time_s: float
    pressure_pa: float
    gradient_pa_per_m: float | None = None

    def __post_init__(self) -> None:
        if self.position_m < 0.0:
            raise OutOfDomain(f"position {self.position_m:g} is negative")
        if self.time_s < 0.0:
            raise OutOfDomain(f"time {self.time_s:g} is negative")


def sample(x: float, t: float, schedule: WithdrawalSchedule,
           cfg: PipelineConfig,
           opts: SeriesOptions = DEFAULT_OPTIONS) -> ProfileSample:
    """Pressure and regularized gradient at one (x, t) point, from one
    check and one basis."""
    grid = _grid(x, t, cfg, opts)
    p = _pressure_field(*grid, schedule, cfg, opts)[0, 0]
    dp_dx = _regularized_gradient(*grid, schedule, cfg, opts)[0, 0]
    return ProfileSample(x, t, float(p), float(dp_dx))


def gradient_periodicity_gap(t: float, cfg: PipelineConfig,
                             opts: SeriesOptions = DEFAULT_OPTIONS) -> float:
    """Diagnostic dP/dx(0, t) - dP/dx(L, t) of the base field, in Pa/m.

    The half-wave base modes are not L-periodic, so their gradient does not
    close around the ring.  The gap is reported rather than corrected; it
    saturates at a*G0*pi^2/2 for the default decay rate.
    """
    lo, hi = _gradient((0.0, cfg.length_m), t, EMPTY_SCHEDULE, cfg, opts)[0]
    return float(lo - hi)
