import math

import numpy as np
import pytest
import sympy

from ringflow import (InvalidParameter, OracleGrid, WithdrawalSchedule,
                      compare_with_series, simulate)
from ringflow.oracle import EXCLUSION_RADIUS_CELLS, comparison_mask

QUICK = OracleGrid(cells=750, dt_s=0.4, horizon_s=60.0)


@pytest.fixture(scope="module")
def sink():
    return WithdrawalSchedule.from_pairs([(12000.0, 1.0)])


@pytest.fixture(scope="module")
def quick_run(cfg, sink):
    return simulate(cfg, sink, QUICK, [20.0, 60.0])


class TestOracleGrid:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            OracleGrid(cells=32, dt_s=0.1, horizon_s=10.0)
        with pytest.raises(InvalidParameter):
            OracleGrid(cells=128, dt_s=0.0, horizon_s=10.0)
        with pytest.raises(InvalidParameter):
            OracleGrid(cells=128, dt_s=1.0, horizon_s=0.5)

    @pytest.mark.parametrize("dt,horizon", [(math.nan, 10.0), (math.inf, 10.0),
                                            (0.1, math.nan), (0.1, math.inf)])
    def test_rejects_non_finite(self, dt, horizon):
        with pytest.raises(InvalidParameter, match="finite"):
            OracleGrid(cells=128, dt_s=dt, horizon_s=horizon)


class TestSimulate:
    def test_empty_schedule_stays_uniform(self, cfg):
        # constant fields are fixed points up to solver round-off
        run = simulate(cfg, WithdrawalSchedule(()), QUICK, [0.0, 60.0])
        for snap in run.snapshots:
            assert np.allclose(snap, cfg.nominal_pressure(),
                               rtol=0.0, atol=1e-4)

    def test_rejects_infinite_rate(self, cfg):
        sinks = WithdrawalSchedule.from_pairs([(12000.0, math.inf)])
        with pytest.raises(InvalidParameter, match="finite"):
            simulate(cfg, sinks, QUICK, [20.0])

    def test_snapshot_bookkeeping(self, quick_run):
        assert quick_run.times == [20.0, 60.0]
        assert all(snap.shape == (750,) for snap in quick_run.snapshots)

    def test_snapshot_times_round_to_steps(self, cfg, sink):
        run = simulate(cfg, sink, QUICK, [19.9])
        assert run.times == [20.0]

    def test_snapshot_time_outside_horizon(self, cfg, sink):
        with pytest.raises(InvalidParameter):
            simulate(cfg, sink, QUICK, [61.0])

    def test_solver_residuals_tiny(self, quick_run):
        assert quick_run.max_residual_rel <= 1e-10

    def test_discrete_conservation(self, cfg, sink, quick_run):
        # ring mean must drop by dt*c^2*G/L per step, to solver tolerance
        rate = cfg.sound_speed_m_s**2 * sink.total() / cfg.length_m
        expected = cfg.nominal_pressure() - rate * quick_run.mean_times
        assert np.max(np.abs(quick_run.mean_series - expected)) <= 1e-6

    def test_symmetry_about_sink(self, cfg, sink, quick_run):
        # 12000 m lands exactly on node 300 of the 750-cell grid
        j = 300
        snap = quick_run.snapshots[-1]
        shifted = np.roll(snap, -j)
        drop = cfg.nominal_pressure() - snap
        scale = float(np.max(np.abs(drop)))
        mirror = np.abs(shifted[1:] - shifted[::-1][:-1])
        assert float(np.max(mirror)) <= 1e-6 * scale

    def test_translation_equivariance(self, cfg, quick_run):
        dx = cfg.length_m / QUICK.cells
        shifted_sink = WithdrawalSchedule.from_pairs([(12000.0 + 40 * dx,
                                                       1.0)])
        run = simulate(cfg, shifted_sink, QUICK, [60.0])
        assert np.allclose(run.snapshots[0],
                           np.roll(quick_run.snapshots[-1], 40), atol=1e-6)

    def test_maximum_principle(self, quick_run, cfg):
        limit = cfg.nominal_pressure() + 1e-6
        for snap in quick_run.snapshots:
            assert float(np.max(snap)) <= limit


class TestModeDecayIdentity:
    def test_alpha_matches_diffusive_rates(self):
        # alpha*n^2 == D*(2*pi*n/L)^2 with D = c^2/(2a), symbolically
        length, c, a, n = sympy.symbols("L c a n", positive=True)
        alpha = 2 * sympy.pi**2 * c**2 / (a * length**2)
        diffusivity = c**2 / (2 * a)
        for k in range(1, 6):
            gap = (alpha * n**2
                   - diffusivity * (2 * sympy.pi * n / length)**2)
            assert sympy.simplify(gap.subs(n, k)) == 0


class TestCompareWithSeries:
    def test_exclusion_zone(self, cfg, sink):
        mask = comparison_mask(cfg, sink, QUICK)
        assert int(np.count_nonzero(~mask)) == 2 * EXCLUSION_RADIUS_CELLS + 1

    def test_quick_grid_is_already_accurate(self, cfg, sink, quick_run):
        metrics = compare_with_series(quick_run, cfg, sink)
        assert metrics.worst_rel_l2() <= 1e-3
        assert metrics.worst_mean_drop_err() <= 1e-6
        assert quick_run.comparison is metrics

    def test_t0_snapshot_agrees_exactly(self, cfg, sink):
        run = simulate(cfg, sink, QUICK, [0.0])
        metrics = compare_with_series(run, cfg, sink)
        assert metrics.entries[0].rel_l2 == 0.0
        assert metrics.entries[0].max_abs_pa == 0.0

    def test_refinement_improves_error(self, cfg, sink):
        coarse = simulate(cfg, sink,
                          OracleGrid(cells=750, dt_s=0.4, horizon_s=50.0),
                          [50.0])
        fine = simulate(cfg, sink,
                        OracleGrid(cells=1500, dt_s=0.2, horizon_s=50.0),
                        [50.0])
        e_coarse = compare_with_series(coarse, cfg, sink).entries[0].rel_l2
        e_fine = compare_with_series(fine, cfg, sink).entries[0].rel_l2
        assert e_fine < e_coarse
