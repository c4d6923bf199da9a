"""Domain types, derived constants and the safety classification of a
pressure drop for a closed-ring gas main.

Units are SI throughout: pressures in Pa, lengths in m, times in s, the
linearization damping rate in 1/s.  Flow strengths (base throughput and
withdrawal rates) are carried in the linearized-model unit Pa*s/m and are
never converted to mass flow; they only ever enter results multiplied by
pipe constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidParameter

TWO_PI_SQUARED = 2.0 * math.pi**2

#: Largest ``SeriesOptions.truncation_n``: on the plain route, and at t = 0,
#: every evaluation sums that many modes.
MAX_TRUNCATION = 10**5


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameter(message)


def derive_linearization(friction_lambda: float, mean_velocity_m_s: float,
                         diameter_m: float) -> float:
    """Doubled damping coefficient 2a = lambda * v / (2 d), in 1/s.

    ``friction_lambda`` is the Darcy friction factor, ``mean_velocity_m_s``
    the linearization velocity and ``diameter_m`` the inner pipe diameter.
    The return value is the *doubled* coefficient; divide by two for the
    canonical rate ``a`` stored on :class:`PipelineConfig`.
    """
    _require(friction_lambda > 0.0, "friction_lambda must be > 0")
    _require(mean_velocity_m_s > 0.0, "mean_velocity_m_s must be > 0")
    _require(diameter_m > 0.0, "diameter_m must be > 0")
    return friction_lambda * mean_velocity_m_s / (2.0 * diameter_m)


@dataclass(frozen=True)
class PipelineConfig:
    """Physical description of the ring main."""

    length_m: float
    sound_speed_m_s: float
    linearization_a: float      # canonical damping rate a, 1/s
    inlet_pressure_pa: float
    base_flow: float            # base throughput G0, Pa*s/m

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _require(math.isfinite(value), f"{name} must be finite")
        _require(self.length_m > 0.0, "length_m must be > 0")
        _require(self.sound_speed_m_s > 0.0, "sound_speed_m_s must be > 0")
        _require(self.linearization_a > 0.0, "linearization_a must be > 0")
        _require(self.inlet_pressure_pa > 0.0, "inlet_pressure_pa must be > 0")
        _require(self.base_flow >= 0.0, "base_flow must be >= 0")
        _require(self.nominal_pressure() > 0.0,
                 "nominal pressure P1 - a*G0*L must be > 0")
        try:                            # c^2 or L^2 overflows, a*L^2 is 0
            alpha = self.alpha()
        except ArithmeticError:
            alpha = math.nan
        _require(alpha > 0.0, "alpha 2*pi^2*c^2/(a*L^2) must be a float > 0")

    def alpha(self) -> float:
        """Series decay-rate scale 2*pi^2*c^2 / (a*L^2), in 1/s."""
        return (TWO_PI_SQUARED * self.sound_speed_m_s**2
                / (self.linearization_a * self.length_m**2))

    def nominal_pressure(self) -> float:
        """Uniform start-up pressure P1 - a*G0*L, in Pa."""
        return (self.inlet_pressure_pa
                - self.linearization_a * self.base_flow * self.length_m)

    def diffusivity(self) -> float:
        """Physical diffusivity c^2/(2a) of the linearized pressure equation."""
        return self.sound_speed_m_s**2 / (2.0 * self.linearization_a)


@dataclass(frozen=True)
class WithdrawalPoint:
    """A single point withdrawal on the ring."""

    position_m: float
    rate: float                 # withdrawal strength, Pa*s/m

    def __post_init__(self) -> None:
        _require(self.position_m >= 0.0, "position_m must be >= 0")
        _require(math.isfinite(self.position_m), "position_m must be finite")
        _require(self.rate >= 0.0, "rate must be >= 0")


@dataclass(frozen=True)
class WithdrawalSchedule:
    """Ordered collection of point withdrawals.

    Positions must be strictly increasing; duplicates are rejected rather
    than silently merged.
    """

    points: tuple[WithdrawalPoint, ...] = ()

    def __post_init__(self) -> None:
        positions = [p.position_m for p in self.points]
        _require(all(b > a for a, b in zip(positions, positions[1:])),
                 "withdrawal positions must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "WithdrawalSchedule":
        return cls(tuple(WithdrawalPoint(x, g) for x, g in pairs))

    def total(self) -> float:
        """Sum of all withdrawal rates."""
        return sum(p.rate for p in self.points)

    def check_positions(self, length_m: float) -> None:
        """Reject positions outside [0, length_m)."""
        for p in self.points:
            _require(0.0 <= p.position_m < length_m,
                     f"withdrawal position {p.position_m:g} out of range "
                     f"[0, {length_m:g})")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class DecayMode(str, enum.Enum):
    """Rate used in the exponential decay factors exp(-n^2 * rate * t)."""

    ALPHA = "alpha"             # alpha = 2*pi^2*c^2/(a*L^2)
    A = "a"                     # the raw damping rate a


class WithdrawalModel(str, enum.Enum):
    """Spatial footprint of each withdrawal term."""

    POINT = "point"             # periodic cosine response, acts everywhere
    HEAVISIDE = "heaviside"     # response gated to x >= x_i


class GradientMode(str, enum.Enum):
    """Terms included in the pressure gradient."""

    BASE_ONLY = "base_only"
    FULL = "full"


@dataclass(frozen=True)
class SeriesOptions:
    """Evaluation controls for the analytical series.

    ``closed_form_acceleration`` replaces the time-independent Fourier sums
    with their exact closed forms plus ``truncation_n`` exponential
    corrections, which removes the algebraic truncation tail.
    """

    truncation_n: int = 100
    decay_mode: DecayMode = DecayMode.ALPHA
    withdrawal_model: WithdrawalModel = WithdrawalModel.POINT
    gradient_mode: GradientMode = GradientMode.BASE_ONLY
    closed_form_acceleration: bool = True

    def __post_init__(self) -> None:
        _require(isinstance(self.truncation_n, int) and self.truncation_n >= 1,
                 "truncation_n must be an integer >= 1")
        _require(self.truncation_n <= MAX_TRUNCATION,
                 f"truncation_n must be <= {MAX_TRUNCATION}")

    def decay_rate(self, cfg: PipelineConfig) -> float:
        if self.decay_mode is DecayMode.ALPHA:
            return cfg.alpha()
        return cfg.linearization_a


@dataclass(frozen=True)
class SafetyThresholds:
    """Relative pressure-drop limits separating the operating bands."""

    optimal_max: float = 0.10
    permissible_max: float = 0.20
    unsafe_min: float = 0.25

    def __post_init__(self) -> None:
        _require(0.0 < self.optimal_max <= self.permissible_max
                 <= self.unsafe_min < 1.0,
                 "thresholds must satisfy 0 < optimal <= permissible "
                 "<= unsafe < 1")


class Band(str, enum.Enum):
    OPTIMAL = "Optimal"
    PERMISSIBLE = "Permissible"
    CAUTION = "Caution"
    UNSAFE = "Unsafe"


@dataclass(frozen=True)
class DropClassification:
    drop_fraction: float
    band: Band


def classify_pressure_drop(p_nominal: float, p_current: float,
                           thresholds: SafetyThresholds | None = None
                           ) -> DropClassification:
    """Band the relative drop (p_nominal - p_current) / p_nominal.

    Negative drops (pressure above nominal) land in the Optimal band.  The
    band between ``permissible_max`` and ``unsafe_min`` is reported as
    Caution.  Both pressures must be finite.
    """
    thresholds = thresholds or SafetyThresholds()
    if p_nominal <= 0.0:
        raise InvalidParameter("p_nominal must be > 0")
    if not (math.isfinite(p_nominal) and math.isfinite(p_current)):
        raise InvalidParameter(f"pressures must be finite: nominal "
                               f"{p_nominal:g}, current {p_current:g}")
    drop = (p_nominal - p_current) / p_nominal
    if drop <= thresholds.optimal_max:
        band = Band.OPTIMAL
    elif drop <= thresholds.permissible_max:
        band = Band.PERMISSIBLE
    elif drop <= thresholds.unsafe_min:
        band = Band.CAUTION
    else:
        band = Band.UNSAFE
    return DropClassification(drop_fraction=drop, band=band)
