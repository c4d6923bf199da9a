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
numbers, exp(-n^2*rate*t) with its weights by power, and the t = 0 rows),
is built once per field evaluation, whose positions ``_grid`` checks once,
and is shared only between evaluations at equal times and decay rate.  The
field and its gradient are (times x positions) arrays, so the public scalar
functions only read one cell.  ``_add_taps`` is the one tap loop (of the
response and the gradient), ``_point_response`` the one point-mode response
(per-unit drops, the inlet floor, the oracle's references) and
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

A block of N modes x P angles with (N - 2) * P < ``_POWERS_FROM`` takes
the weights times an N x P matrix of sin(n*u) or cos(n*u); a larger one
takes them times the imaginary or real parts of the powers z^n of z =
exp(i*u), built by doubling (rows k..2k-1 are rows 0..k-1 times z^k): a
sine and a cosine per angle, not per mode and angle.  Both products go
through BLAS.  Against a long double reference (3 to 10^5 modes, angles at
and near 0, pi and 2*pi) the powers err by at most 0.29*N*eps*sum_n |w_n|,
the matrix, which rounds each n*u, by 1.2*N*eps*sum_n |w_n|.

A field evaluation sums at most ``_MAX_TERMS`` = 10^9 terms, (taps + 1) x
positions x times x modes.  ``_basis`` counts them, with the positions and
taps its caller passes, before it allocates, and refuses more with
:class:`InvalidParameter`.

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
from .errors import InvalidParameter, OutOfDomain

_PI = math.pi
_PI_SQ_OVER_6 = math.pi**2 / 6.0

DEFAULT_OPTIONS = SeriesOptions()
EMPTY_SCHEDULE = WithdrawalSchedule(())

#: Most modes x angles in one block (0.5 MiB of trig matrix, 1 MiB of
#: complex powers); longer angle vectors go in blocks.  A whole 200-mode,
#: 3000-position gradient table in one matrix (two 4.8 MB temporaries)
#: raised the plan benchmark's peak RSS by 15 %.
_TRIG_ELEMENTS = 1 << 16

#: Sines or cosines, (modes - 2) x angles, that the powers must save in a
#: block to beat the trig matrix; the two tie near 1024.
_POWERS_FROM = 1536

#: Most terms, (taps + 1) x positions x times x modes, that one field
#: evaluation sums: about 1-4 s at 10^5 modes on a 2-core x86-64 host.
_MAX_TERMS = 10**9

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
    x = np.array(x, dtype=float, ndmin=1)
    if not (np.minimum.reduce(x, None, initial=0.0) >= 0.0
            and np.maximum.reduce(x, None, initial=0.0) <= cfg.length_m):
        inside = (x >= 0.0) & (x <= cfg.length_m)
        raise OutOfDomain(f"position {x[~inside][0]:g} "
                          f"outside [0, {cfg.length_m:g}]")
    return x


# ---------------------------------------------------------------------------
# Kernel and field: (times x positions) arrays of checked positions and times.
# ---------------------------------------------------------------------------

def _modes(times: np.ndarray, rate: float, opts: SeriesOptions) -> int:
    """Modes to sum: ``truncation_n``, or N_eff under acceleration."""
    positive = times[times > 0.0] if opts.closed_form_acceleration else ()
    if len(positive):
        exponent = rate * float(np.minimum.reduce(positive))
        # Compared as floats: a tiny exponent makes the bound inf.
        if exponent > 0.0:
            bound = math.sqrt(_NEGLIGIBLE_EXPONENT / exponent)
            if bound < opts.truncation_n:
                return math.ceil(bound)
    return opts.truncation_n


#: The per-time half of every mode sum at checked times: n, S = E or 1 - E
#: (plain), E = exp(-n^2*rate*t), weights S/n^p by p, t = 0 rows or None.
_Basis = namedtuple("_Basis", "times n scale weights zero")


def _basis(times, rate: float, opts: SeriesOptions,
           width: int = 1) -> _Basis:
    """Times checked against [0, inf) and their basis at decay ``rate``,
    refused before it is built where ``width`` sums per time and mode
    ((taps + 1) x positions of the widest evaluation) pass the budget."""
    times = np.array(times, dtype=float, ndmin=1)
    least = np.minimum.reduce(times, None, initial=math.inf)
    if not (least >= 0.0 and times.max(initial=0.0) < math.inf):
        finite = (times >= 0.0) & (times < math.inf)
        raise OutOfDomain(f"time {times[~finite][0]:g} outside [0, inf)")
    modes = _modes(times, rate, opts)
    terms = width * times.size * modes
    if terms > _MAX_TERMS:
        raise InvalidParameter(
            f"field of {terms} terms ((taps + 1) x positions x times x "
            f"modes) exceeds {_MAX_TERMS}")
    n = np.arange(1.0, modes + 1.0)
    decay = np.exp(-((rate * times)[:, None] * (n * n)))
    return _Basis(times, n, decay if opts.closed_form_acceleration else
                  1.0 - decay, {}, times == 0.0 if least == 0.0 else None)


def _grid(x, times, cfg: PipelineConfig, opts: SeriesOptions,
          taps: int = 0):
    """Checked positions and the basis of ``times`` for the base sum and
    ``taps`` tap sums at each; a caller sharing a basis passes it with
    positions it checked, and both pass through as is."""
    if isinstance(times, _Basis):
        return x, times
    x = _positions(x, cfg)
    return x, _basis(times, opts.decay_rate(cfg), opts, x.size * (taps + 1))


def _mode_sum(theta, basis: _Basis, opts: SeriesOptions, power: int):
    """sum_n trig(n*u) * (1 - exp(-n^2*rate*t)) / n^power, u in [0, 2*pi]."""
    n, weights = basis.n, basis.weights.get(power)
    if weights is None:
        weights = basis.weights[power] = basis.scale / n**power
    blocks = -(-theta.size * n.size // _TRIG_ELEMENTS)
    if blocks > 1 and theta.size > 1:
        return np.hstack([_mode_sum(u, basis, opts, power)
                          for u in np.array_split(theta, blocks)])
    if (n.size - 2) * theta.size < _POWERS_FROM:
        out = weights @ (np.sin if power % 2 else np.cos)(n[:, None] * theta)
    else:
        powers = np.empty((n.size, theta.size), complex)
        powers[0] = np.exp(1j * theta)
        k = 1
        while k < n.size:         # rows k..2k-1: rows 0..k-1 times z^k
            rows = powers[k:2 * k]
            np.multiply(powers[:len(rows)], powers[k - 1], out=rows)
            k *= 2
        # One contiguous BLAS product over both parts beats copying one out.
        out = (weights @ powers.view(float))[:, power % 2::2]
    if opts.closed_form_acceleration:
        out = _CLOSED_FORMS[power](theta) - out
    if basis.zero is not None:
        out[basis.zero] = 0.0
    return out


def _half_wave_sum(x, times, cfg: PipelineConfig,
                   opts: SeriesOptions) -> np.ndarray:
    """sum_n sin(pi*n*x/L) * (1 - exp(-n^2*rate*t)) / n^3 for x in [0, L]."""
    x, basis = _grid(x, times, cfg, opts)
    out = _mode_sum(_PI * (x / cfg.length_m), basis, opts, 3)
    # The half-wave modes vanish identically at both ring ends; force the
    # exact zeros the truncated trigonometry only approximates.
    out[:, x % cfg.length_m == 0.0] = 0.0    # x is 0 or L
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
    if basis.zero is not None:
        out[basis.zero] = 0.0
    return out


def _response_kernel(x, times, schedule: WithdrawalSchedule,
                     cfg: PipelineConfig, opts: SeriesOptions,
                     model: WithdrawalModel | None = None) -> np.ndarray:
    x, basis = _grid(x, times, cfg, opts, len(schedule.points))
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
    x, basis = _grid(x, times, cfg, opts, len(schedule.points))
    coeff = (2.0 * cfg.linearization_a * cfg.base_flow * cfg.length_m) / _PI
    field = cfg.nominal_pressure() + coeff * _half_wave_sum(x, basis, cfg, opts)
    return field + _response_kernel(x, basis, schedule, cfg, opts) \
        if schedule.points else field       # no taps: no zeros to add


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
    x, basis = _grid(x, times, cfg, opts, len(schedule.points))
    length = cfg.length_m
    grad = (2.0 * cfg.linearization_a * cfg.base_flow
            * _mode_sum(_PI * (x / length), basis, opts, 2))
    if (mode or opts.gradient_mode) is not GradientMode.FULL:
        return grad                 # its t = 0 rows are a mode sum's zeros
    scale = 4.0 * _PI * cfg.sound_speed_m_s**2 / (length**2 * cfg.alpha())
    return _add_taps(grad, x, basis, schedule, cfg, opts, 1,
                     lambda series, rate: scale * rate * series)


def _regularized_gradient(x, times, schedule: WithdrawalSchedule,
                          cfg: PipelineConfig, opts: SeriesOptions):
    """dP/dx with the columns at tap positions set to exactly 0."""
    x, basis = _grid(x, times, cfg, opts, len(schedule.points))
    grad = _gradient(x, basis, schedule, cfg, opts)
    for point in schedule.points:
        grad[:, x == point.position_m] = 0.0
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
    grid = _grid(x, t, cfg, opts, len(schedule.points))
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
