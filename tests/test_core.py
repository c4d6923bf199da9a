import math

import pytest

from ringflow import (DecayMode, InvalidParameter, PipelineConfig,
                      SafetyThresholds, SeriesOptions, WithdrawalPoint,
                      WithdrawalSchedule, derive_linearization)
from ringflow.core import MAX_TRUNCATION


class TestDeriveLinearization:
    def test_reference_value(self):
        assert derive_linearization(0.03, 10.0, 0.5) == pytest.approx(0.3)

    def test_linear_in_velocity(self):
        one = derive_linearization(0.03, 10.0, 0.5)
        two = derive_linearization(0.03, 20.0, 0.5)
        assert two == pytest.approx(2.0 * one)

    @pytest.mark.parametrize("args", [
        (0.0, 10.0, 0.5),
        (0.03, 0.0, 0.5),
        (0.03, 10.0, 0.0),
        (-0.03, 10.0, 0.5),
    ])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(InvalidParameter):
            derive_linearization(*args)


class TestPipelineConfig:
    def test_alpha_reference(self, cfg):
        assert cfg.alpha() == pytest.approx(0.06445, abs=1e-4)

    def test_alpha_identity(self, cfg):
        # 2*pi^2 = alpha * a * L^2 / c^2, algebraically exact
        lhs = cfg.alpha() * cfg.linearization_a * cfg.length_m**2
        assert lhs / cfg.sound_speed_m_s**2 == pytest.approx(
            2.0 * math.pi**2, rel=1e-15)

    def test_alpha_length_scaling(self, cfg):
        doubled = PipelineConfig(2 * cfg.length_m, cfg.sound_speed_m_s,
                                 cfg.linearization_a, cfg.inlet_pressure_pa,
                                 cfg.base_flow)
        assert doubled.alpha() == pytest.approx(cfg.alpha() / 4.0)

    def test_alpha_sound_speed_scaling(self, cfg):
        halved = PipelineConfig(cfg.length_m, cfg.sound_speed_m_s / 2.0,
                                cfg.linearization_a, cfg.inlet_pressure_pa,
                                cfg.base_flow)
        assert halved.alpha() == pytest.approx(cfg.alpha() / 4.0)

    def test_nominal_pressure_reference(self, cfg):
        assert cfg.nominal_pressure() == 125000.0

    def test_nominal_pressure_without_base_flow(self, cfg):
        quiet = PipelineConfig(cfg.length_m, cfg.sound_speed_m_s,
                               cfg.linearization_a, cfg.inlet_pressure_pa,
                               base_flow=0.0)
        assert quiet.nominal_pressure() == cfg.inlet_pressure_pa

    def test_diffusivity(self, cfg):
        assert cfg.diffusivity() == pytest.approx(383.3**2 / 0.1)

    @pytest.mark.parametrize("field,value", [
        ("length_m", 0.0),
        ("length_m", -1.0),
        ("sound_speed_m_s", 0.0),
        ("linearization_a", 0.0),
        ("inlet_pressure_pa", 0.0),
        ("base_flow", -1.0),
    ])
    def test_rejects_nonpositive(self, cfg, field, value):
        values = {
            "length_m": cfg.length_m,
            "sound_speed_m_s": cfg.sound_speed_m_s,
            "linearization_a": cfg.linearization_a,
            "inlet_pressure_pa": cfg.inlet_pressure_pa,
            "base_flow": cfg.base_flow,
        }
        values[field] = value
        with pytest.raises(InvalidParameter):
            PipelineConfig(**values)

    @pytest.mark.parametrize("field", ["length_m", "sound_speed_m_s",
                                       "linearization_a",
                                       "inlet_pressure_pa", "base_flow"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, cfg, field, value):
        values = dict(vars(cfg))
        values[field] = value
        with pytest.raises(InvalidParameter, match=f"{field} must be finite"):
            PipelineConfig(**values)

    @pytest.mark.parametrize("field,value", [
        ("sound_speed_m_s", 1e308),      # c^2 overflows
        ("length_m", 1e160),             # L^2 overflows
        ("sound_speed_m_s", 1e-200),     # c^2, and so alpha, is 0
        ("length_m", 1e-170),            # a*L^2 is 0
    ])
    def test_rejects_alpha_that_cannot_be_formed(self, cfg, field, value):
        values = dict(vars(cfg), base_flow=0.0)
        values[field] = value
        with pytest.raises(InvalidParameter, match="alpha"):
            PipelineConfig(**values)

    def test_rejects_nonpositive_nominal(self):
        # P1 - a*G0*L = 140000 - 150000 < 0
        with pytest.raises(InvalidParameter):
            PipelineConfig(30000.0, 383.3, 0.05, 140000.0, 100.0)


class TestWithdrawalSchedule:
    def test_point_validation(self):
        with pytest.raises(InvalidParameter):
            WithdrawalPoint(-1.0, 1.0)
        with pytest.raises(InvalidParameter):
            WithdrawalPoint(1000.0, -1.0)

    def test_total(self):
        sched = WithdrawalSchedule.from_pairs([(1000.0, 2.0), (2000.0, 3.0)])
        assert sched.total() == pytest.approx(5.0)
        assert len(sched) == 2

    def test_positions_strictly_increasing(self):
        with pytest.raises(InvalidParameter):
            WithdrawalSchedule.from_pairs([(2000.0, 1.0), (1000.0, 1.0)])
        with pytest.raises(InvalidParameter):
            WithdrawalSchedule.from_pairs([(1000.0, 1.0), (1000.0, 1.0)])

    def test_check_positions(self, cfg):
        WithdrawalSchedule.from_pairs([(0.0, 1.0)]).check_positions(30000.0)
        sched = WithdrawalSchedule.from_pairs([(30000.0, 1.0)])
        with pytest.raises(InvalidParameter, match="out of range"):
            sched.check_positions(30000.0)

    def test_empty_total(self):
        assert WithdrawalSchedule(()).total() == 0.0


class TestSeriesOptions:
    def test_defaults(self, opts):
        assert opts.truncation_n == 100
        assert opts.decay_mode is DecayMode.ALPHA
        assert opts.closed_form_acceleration

    def test_truncation_floor(self):
        with pytest.raises(InvalidParameter):
            SeriesOptions(truncation_n=0)

    def test_truncation_cap(self):
        # Only built, never evaluated: a plain-route field would sum that
        # many modes.
        assert SeriesOptions(truncation_n=MAX_TRUNCATION).truncation_n \
            == MAX_TRUNCATION
        for n in (MAX_TRUNCATION + 1, 10**12):
            with pytest.raises(InvalidParameter, match="truncation_n"):
                SeriesOptions(truncation_n=n)

    def test_decay_rate(self, cfg, opts):
        assert opts.decay_rate(cfg) == pytest.approx(cfg.alpha())
        slow = SeriesOptions(decay_mode=DecayMode.A)
        assert slow.decay_rate(cfg) == pytest.approx(cfg.linearization_a)


class TestSafetyThresholds:
    def test_defaults(self):
        bands = SafetyThresholds()
        assert (bands.optimal_max, bands.permissible_max,
                bands.unsafe_min) == (0.10, 0.20, 0.25)

    @pytest.mark.parametrize("args", [
        (0.0, 0.2, 0.25),
        (0.2, 0.1, 0.25),
        (0.1, 0.3, 0.25),
        (0.1, 0.2, 1.0),
    ])
    def test_rejects_bad_ordering(self, args):
        with pytest.raises(InvalidParameter):
            SafetyThresholds(*args)
