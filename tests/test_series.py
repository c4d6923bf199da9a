import math
from dataclasses import replace

import numpy as np
import pytest

import ringflow.series as series
from ringflow import (DecayMode, OutOfDomain, SeriesOptions, WithdrawalModel,
                      WithdrawalSchedule, base_pressure, pressure,
                      pressure_gradient, s_e, s_sin, sample,
                      withdrawal_response)
from ringflow.series import ProfileSample, gradient_periodicity_gap

PLAIN_50K = SeriesOptions(truncation_n=50000, closed_form_acceleration=False)


class TestBasePressure:
    @pytest.mark.parametrize("x", [0.0, 4000.0, 12000.0, 29000.0, 30000.0])
    def test_uniform_at_t0(self, cfg, x):
        assert base_pressure(x, 0.0, cfg) == 125000.0

    @pytest.mark.parametrize("t", [0.0, 50.0, 300.0, 1e6])
    def test_inlet_stays_nominal(self, cfg, t):
        assert base_pressure(0.0, t, cfg) == 125000.0
        assert base_pressure(30000.0, t, cfg) == 125000.0

    def test_tap_anchor(self, cfg):
        # 125000 + 2*a*G0*L * s_sin(12000, 300); s_sin saturates near 0.31583
        got = base_pressure(12000.0, 300.0, cfg)
        assert got == pytest.approx(134474.82, abs=0.5)
        assert got == pytest.approx(134475.0, abs=1.0)

    def test_domain_checks(self, cfg):
        with pytest.raises(OutOfDomain):
            base_pressure(-1.0, 10.0, cfg)
        with pytest.raises(OutOfDomain):
            base_pressure(30001.0, 10.0, cfg)
        with pytest.raises(OutOfDomain):
            base_pressure(1000.0, -1.0, cfg)

    @pytest.mark.parametrize("x,t", [(math.nan, 10.0), (1000.0, math.nan),
                                     (1000.0, math.inf), (1000.0, -math.inf)])
    def test_rejects_non_finite(self, cfg, schedule, x, t):
        for evaluate in (lambda: base_pressure(x, t, cfg),
                         lambda: pressure(x, t, schedule, cfg),
                         lambda: withdrawal_response(x, t, schedule, cfg),
                         lambda: pressure_gradient(x, t, schedule, cfg),
                         lambda: s_sin(x, t, cfg),
                         lambda: series.response_profile([x], t, schedule,
                                                         cfg)):
            with pytest.raises(OutOfDomain):
                evaluate()

    @pytest.mark.parametrize("x,t", [(5000.0, 30.0), (12000.0, 300.0),
                                     (22000.0, 120.0)])
    def test_acceleration_matches_partial_sums(self, cfg, x, t):
        # The closed forms replace the raw partial sums; a 50000-term plain
        # sum pins them down to the 1/N^2 sine-series tail.
        fast = base_pressure(x, t, cfg)
        slow = base_pressure(x, t, cfg, PLAIN_50K)
        assert fast == pytest.approx(slow, abs=1e-3)


class TestWithdrawalResponse:
    @pytest.mark.parametrize("x", [0.0, 6000.0, 12000.0, 25000.0])
    def test_zero_at_t0(self, cfg, schedule, x):
        assert withdrawal_response(x, 0.0, schedule, cfg) == 0.0
        flood = WithdrawalSchedule.from_pairs([(12000.0, math.inf)])
        assert withdrawal_response(x, 0.0, flood, cfg) == 0.0
        assert pressure(x, 0.0, flood, cfg) == cfg.nominal_pressure()

    def test_inlet_anchor(self, cfg, schedule):
        got = withdrawal_response(0.0, 50.0, schedule, cfg)
        assert got == pytest.approx(-1537.43, abs=0.5)
        # cross-check: published inlet value minus the nominal level
        assert got == pytest.approx(123462.0 - 125000.0, abs=1.0)

    @pytest.mark.parametrize("d", [1000.0, 5000.0, 11000.0])
    def test_symmetry_about_sink(self, cfg, schedule, d):
        left = withdrawal_response(12000.0 - d, 80.0, schedule, cfg)
        right = withdrawal_response(12000.0 + d, 80.0, schedule, cfg)
        assert right == pytest.approx(left, rel=1e-6)

    def test_superposition(self, cfg):
        a = WithdrawalSchedule.from_pairs([(5000.0, 3.0)])
        b = WithdrawalSchedule.from_pairs([(21000.0, 8.0)])
        both = WithdrawalSchedule.from_pairs([(5000.0, 3.0), (21000.0, 8.0)])
        for x in (0.0, 9000.0, 26000.0):
            combined = withdrawal_response(x, 140.0, both, cfg)
            split = (withdrawal_response(x, 140.0, a, cfg)
                     + withdrawal_response(x, 140.0, b, cfg))
            assert combined == pytest.approx(split, rel=1e-9)

    def test_linearity_in_rate(self, cfg):
        one = WithdrawalSchedule.from_pairs([(12000.0, 1.0)])
        seven = WithdrawalSchedule.from_pairs([(12000.0, 7.0)])
        for x in (0.0, 15000.0):
            assert withdrawal_response(x, 90.0, seven, cfg) == pytest.approx(
                7.0 * withdrawal_response(x, 90.0, one, cfg), rel=1e-12)

    def test_acceleration_matches_partial_sums(self, cfg, schedule):
        # cosine-series tail at N terms is within (2c^2/(L*alpha))*G/N
        fast = withdrawal_response(7000.0, 130.0, schedule, cfg)
        slow = withdrawal_response(7000.0, 130.0, schedule, cfg, PLAIN_50K)
        assert fast == pytest.approx(slow, abs=0.05)

    def test_heaviside_gates_upstream(self, cfg, schedule):
        opts = SeriesOptions(withdrawal_model=WithdrawalModel.HEAVISIDE)
        assert withdrawal_response(6000.0, 200.0, schedule, cfg, opts) == 0.0
        assert pressure(6000.0, 200.0, schedule, cfg, opts) == base_pressure(
            6000.0, 200.0, cfg, opts)
        # downstream of the tap the sink acts
        assert withdrawal_response(20000.0, 200.0, schedule, cfg, opts) != 0.0


class TestPressure:
    def test_published_inlet_anchors(self, cfg, schedule):
        assert pressure(0.0, 50.0, schedule, cfg) == pytest.approx(
            123462.0, abs=62.0)
        assert pressure(0.0, 300.0, schedule, cfg) == pytest.approx(
            110049.0, abs=62.0)
        heavy = WithdrawalSchedule.from_pairs([(12000.0, 14.0)])
        assert pressure(0.0, 300.0, heavy, cfg) == pytest.approx(
            105971.0, abs=62.0)

    @pytest.mark.parametrize("t", [0.0, 50.0, 137.0, 300.0])
    def test_ring_ends_agree_exactly(self, cfg, schedule, t):
        assert pressure(0.0, t, schedule, cfg) == pressure(
            30000.0, t, schedule, cfg)

    def test_ring_ends_agree_for_multi_point_schedules(self, cfg):
        sched = WithdrawalSchedule.from_pairs(
            [(701.0, 2.5), (12000.0, 11.0), (29999.0, 0.25)])
        assert pressure(0.0, 83.0, sched, cfg) == pressure(
            30000.0, 83.0, sched, cfg)

    @pytest.mark.parametrize("x", [0.0, 777.0, 12000.0, 30000.0])
    def test_uniform_at_t0(self, cfg, schedule, x):
        assert pressure(x, 0.0, schedule, cfg) == 125000.0


class TestRingAverage:
    def test_mean_response_is_linepack_drain(self, cfg, schedule):
        # cosine modes integrate to zero; midpoint rule on a power-of-two
        # grid kills every mode below the Nyquist index exactly
        m = 32768
        mids = (np.arange(m) + 0.5) * (cfg.length_m / m)
        for t in (50.0, 300.0):
            mean = float(np.mean(series.response_profile(
                mids, t, schedule, cfg, series.DEFAULT_OPTIONS)))
            expected = -cfg.sound_speed_m_s**2 * t * schedule.total() / cfg.length_m
            assert mean == pytest.approx(expected, rel=1e-6)


class TestPressureGradient:
    @pytest.mark.parametrize("x", [0.0, 8000.0, 19000.0, 30000.0])
    def test_zero_at_t0(self, cfg, schedule, x):
        assert pressure_gradient(x, 0.0, schedule, cfg) == 0.0
        flood = WithdrawalSchedule.from_pairs([(12000.0, math.inf)])
        full = SeriesOptions(gradient_mode=series.GradientMode.FULL)
        assert series.continuous_gradient(x, 0.0, flood, cfg, full) == 0.0

    def test_published_anchors(self, cfg, empty_schedule):
        assert pressure_gradient(0.0, 100.0, empty_schedule, cfg) == \
            pytest.approx(1.6334, rel=0.01)
        assert pressure_gradient(30000.0, 200.0, empty_schedule, cfg) == \
            pytest.approx(-0.8224, rel=0.01)

    def test_regularized_zero_at_withdrawal(self, cfg, schedule):
        assert pressure_gradient(12000.0, 150.0, schedule, cfg) == 0.0

    def test_full_mode_matches_finite_differences(self, cfg, schedule):
        # away from the tap by >= L/1000 the field is smooth
        opts = SeriesOptions(gradient_mode=series.GradientMode.FULL)
        h = 0.1
        for x in (3000.0, 9000.0, 15500.0, 20000.0, 27000.0):
            numeric = (pressure(x + h, 120.0, schedule, cfg, opts)
                       - pressure(x - h, 120.0, schedule, cfg, opts)) / (2 * h)
            analytic = pressure_gradient(x, 120.0, schedule, cfg, opts)
            assert analytic == pytest.approx(numeric, abs=1e-3)

    def test_base_only_ignores_schedule(self, cfg, schedule, empty_schedule):
        with_sched = pressure_gradient(7000.0, 100.0, schedule, cfg)
        without = pressure_gradient(7000.0, 100.0, empty_schedule, cfg)
        assert with_sched == without


class TestHelperSums:
    def test_s_sin_zeroes(self, cfg):
        assert s_sin(12000.0, 0.0, cfg) == 0.0
        assert s_sin(0.0, 250.0, cfg) == 0.0

    def test_s_sin_saturation(self, cfg):
        assert s_sin(12000.0, 1e9, cfg) == pytest.approx(0.31583, abs=1e-4)

    def test_s_e_zero_at_t0(self, cfg):
        assert s_e(0.0, cfg) == 0.0

    def test_s_e_saturation(self, cfg):
        assert s_e(1e9, cfg) == pytest.approx(
            math.pi / (6.0 * cfg.alpha()), rel=1e-4)

    def test_s_e_monotone(self, cfg):
        values = [s_e(t, cfg) for t in (0.0, 10.0, 50.0, 200.0, 1000.0)]
        assert values == sorted(values)


class TestTruncation:
    def test_tail_bound_on_reference_scenario(self, cfg, schedule):
        # plain partial sums: |P_100 - P_400| stays under the 1/n^2
        # cosine-tail bound (2c^2/(L*alpha))*G/100 ~ 17 Pa
        n100 = SeriesOptions(truncation_n=100, closed_form_acceleration=False)
        n400 = SeriesOptions(truncation_n=400, closed_form_acceleration=False)
        worst = max(
            abs(pressure(x, 300.0, schedule, cfg, n100)
                - pressure(x, 300.0, schedule, cfg, n400))
            for x in (0.0, 3000.0, 11000.0, 13000.0, 24000.0))
        assert worst <= 18.0

    def test_accelerated_tail_is_negligible(self, cfg, schedule):
        n100 = SeriesOptions(truncation_n=100)
        n400 = SeriesOptions(truncation_n=400)
        worst = max(
            abs(pressure(x, 300.0, schedule, cfg, n100)
                - pressure(x, 300.0, schedule, cfg, n400))
            for x in (0.0, 11000.0, 24000.0))
        assert worst <= 1e-6


class TestDecayModeVariant:
    def test_slower_rate_changes_transient_only(self, cfg, schedule):
        slow = SeriesOptions(decay_mode=DecayMode.A)
        assert pressure(4000.0, 0.0, schedule, cfg, slow) == 125000.0
        assert pressure(4000.0, 50.0, schedule, cfg, slow) != pressure(
            4000.0, 50.0, schedule, cfg)


class TestGradientPeriodicityGap:
    def test_zero_at_t0(self, cfg):
        assert gradient_periodicity_gap(0.0, cfg) == 0.0

    def test_saturation_level(self, cfg):
        # a*G0*pi^2/2 for the reference ring
        expected = cfg.linearization_a * cfg.base_flow * math.pi**2 / 2.0
        assert gradient_periodicity_gap(1e9, cfg) == pytest.approx(
            expected, rel=1e-6)


class TestProfileSample:
    def test_sample_bundles_value_and_gradient(self, cfg, schedule):
        got = sample(9000.0, 120.0, schedule, cfg)
        assert got.pressure_pa == pressure(9000.0, 120.0, schedule, cfg)
        assert got.gradient_pa_per_m == pressure_gradient(
            9000.0, 120.0, schedule, cfg)

    def test_validation(self):
        with pytest.raises(OutOfDomain):
            ProfileSample(-1.0, 10.0, 125000.0)
        with pytest.raises(OutOfDomain):
            ProfileSample(1000.0, -1.0, 125000.0)
