import copy
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from importlib.machinery import FileFinder
from pathlib import Path

import numpy as np
import pytest
import scipy
import sympy
from scipy.linalg import get_lapack_funcs

import ringflow
from oracle_reference import march
from ringflow import (ConvergenceFailure, InvalidParameter, OracleGrid,
                      PipelineConfig, WithdrawalSchedule,
                      compare_with_series, oracle, simulate)
from ringflow.cli import run
from ringflow.oracle import EXCLUSION_RADIUS_CELLS, comparison_mask

REF = str(Path(__file__).resolve().parent.parent / "scenarios"
          / "reference.yaml")

QUICK = OracleGrid(cells=750, dt_s=0.4, horizon_s=60.0)

#: Three taps on the 30 km ring: one on node 0, one off every node, and one
#: that rounds across the seam back to node 0 on coarse grids.
MULTI_TAP = [(0.0, 2.0), (12345.6, 5.5), (29999.0, 1.25)]


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

    def test_cell_cap(self):
        with pytest.raises(InvalidParameter,
                           match=r"^cells must be <= 1000000$"):
            OracleGrid(cells=10**6 + 1, dt_s=1.0, horizon_s=10.0)

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

    def test_nan_snapshot_time(self, cfg, sink):
        with pytest.raises(InvalidParameter, match="snapshot time nan"):
            simulate(cfg, sink, QUICK, [math.nan])

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

    def test_pure(self, cfg, sink, quick_run):
        before = copy.deepcopy(vars(quick_run))
        first = compare_with_series(quick_run, cfg, sink)
        second = compare_with_series(quick_run, cfg, sink)
        assert first == second
        assert vars(quick_run).keys() == before.keys()
        for name, value in vars(quick_run).items():
            assert _same(value, before[name]), name

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


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class TestBitIdentity:
    """simulate() against the reference marching loop in oracle_reference."""

    @pytest.mark.parametrize("cells,dt,horizon,times,taps", [
        (64, 1.0, 1.0, [0.0, 1.0], MULTI_TAP),           # backward Euler only
        (64, 1.0, 2.0, [0.0, 1.0, 2.0], MULTI_TAP),      # both startup steps
        (64, 0.5, 1.5, [0.0, 0.5, 1.5], MULTI_TAP),      # first trapezoidal
        (750, 0.4, 60.0, [0.0, 20.0, 60.0], [(12000.0, 1.0)]),
        (1001, 0.05, 5.0, [2.5, 0.0, 5.0, 2.5], MULTI_TAP),
        (3000, 0.05, 2.0, [1.0, 2.0], [(12000.0, 11.0)]),
    ])
    def test_matches_reference(self, cfg, cells, dt, horizon, times, taps):
        schedule = WithdrawalSchedule.from_pairs(taps)
        grid = OracleGrid(cells=cells, dt_s=dt, horizon_s=horizon)
        run = simulate(cfg, schedule, grid, times)
        ref_times, ref_snaps, ref_means, ref_residual = march(
            cfg, schedule, grid, times)
        assert run.times == ref_times
        assert len(run.snapshots) == len(ref_snaps)
        for snap, ref in zip(run.snapshots, ref_snaps):
            assert np.array_equal(snap, ref)
        assert np.array_equal(run.mean_series, ref_means)
        assert run.max_residual_rel == ref_residual


class TestResidualCheck:
    def test_failure_names_the_step(self, cfg, monkeypatch):
        monkeypatch.setattr(oracle, "RESIDUAL_LIMIT", 0.0)
        schedule = WithdrawalSchedule.from_pairs(MULTI_TAP)
        grid = OracleGrid(cells=64, dt_s=1.0, horizon_s=3.0)
        with pytest.raises(ConvergenceFailure,
                           match=r"exceeds 0 at step [1-3]$"):
            simulate(cfg, schedule, grid, [3.0])

    def test_nan_residual_fails(self):
        # D = c^2/(2a) overflows, so the step matrices and states are NaN
        cfg = PipelineConfig(length_m=30000.0, sound_speed_m_s=383.3,
                             linearization_a=1e-308,
                             inlet_pressure_pa=140000.0, base_flow=10.0)
        sink = WithdrawalSchedule.from_pairs([(12000.0, 1.0)])
        grid = OracleGrid(cells=64, dt_s=1.0, horizon_s=3.0)
        with pytest.raises(ConvergenceFailure, match="nan .* at step 1$"):
            simulate(cfg, sink, grid, [3.0])


def test_cli_import_leaves_scipy_unloaded():
    code = textwrap.dedent("""
        import json
        import sys
        import ringflow.cli
        found = {"cli": sorted(m for m in sys.modules if m.startswith("scipy"))}
        import numpy as np
        from ringflow import (OracleGrid, PipelineConfig, WithdrawalSchedule,
                              oracle, simulate)
        cfg = PipelineConfig(length_m=30000.0, sound_speed_m_s=383.3,
                             linearization_a=0.05,
                             inlet_pressure_pa=140000.0, base_flow=10.0)
        args = (cfg, WithdrawalSchedule.from_pairs([(12000.0, 1.0)]),
                OracleGrid(cells=64, dt_s=1.0, horizon_s=3.0), [3.0])
        first = simulate(*args)
        found["simulate"] = sorted(
            m for m in ("scipy.linalg._flapack", "scipy.linalg",
                        "scipy._lib._array_api", "numpy.f2py",
                        "numpy.testing") if m in sys.modules)
        import scipy.linalg
        routines = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"),
                                                 (np.zeros(3),))
        found["same_routines"] = all(
            a is b for a, b in zip(routines, oracle._lapack_gttrf_gttrs()))
        second = simulate(*args)
        found["same_run"] = (
            second.times == first.times
            and np.array_equal(second.snapshots, first.snapshots)
            and np.array_equal(second.mean_series, first.mean_series))
        print(json.dumps(found))
    """)
    src = str(Path(ringflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "cli": [], "simulate": ["scipy.linalg._flapack"],
        "same_routines": True, "same_run": True}


class _FindsNothing(FileFinder):
    def find_spec(self, fullname, target=None):
        return None


class TestLapackLoader:
    """The loader in a process where ``scipy.linalg`` is already loaded,
    as ``oracle_reference`` has done here, and when the search fails."""

    @pytest.fixture
    def loader(self):
        oracle._lapack_gttrf_gttrs.cache_clear()
        yield oracle._lapack_gttrf_gttrs
        oracle._lapack_gttrf_gttrs.cache_clear()

    def test_reuses_the_loaded_module(self, loader, monkeypatch):
        assert "scipy.linalg" in sys.modules
        monkeypatch.setattr(oracle, "FileFinder", None)     # never searched
        module = sys.modules["scipy.linalg._flapack"]
        gttrf, gttrs = loader()
        assert gttrf is module.dgttrf and gttrs is module.dgttrs
        routines = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(3),))
        assert routines[0] is gttrf and routines[1] is gttrs
        assert loader() == (gttrf, gttrs)

    @pytest.fixture
    def nothing_found(self, loader, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(oracle, "FileFinder", _FindsNothing)
        return os.path.join(scipy.__path__[0], "linalg")

    def test_nothing_found_names_the_directory(self, cfg, sink,
                                                nothing_found):
        grid = OracleGrid(cells=64, dt_s=1.0, horizon_s=3.0)
        with pytest.raises(ImportError, match=re.escape(nothing_found)):
            simulate(cfg, sink, grid, [3.0])

    def test_validate_reports_it_as_one_json_line(self, capsys,
                                                  nothing_found):
        code = run(["validate", "--scenario", REF,
                    "--cells", "64", "--dt", "1", "--times", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        line, = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ImportError"
        assert nothing_found in payload["message"]
