"""Finite-difference validator for the ring pressure model.

Integrates the forward diffusion form of the linearized flow equation,

    dP/dt = D * d2P/dx2 - c^2 * sum_i G_i * delta(x - x_i),   D = c^2/(2a),

on N equispaced ring nodes with an implicit trapezoidal scheme.  Each sink
is deposited into its containing node-centred cell as c^2*G_i/dx, which
makes the ring mean decay at exactly c^2*sum(G_i)/L per unit time and gives
mode k the decay rate D*(2*pi*k/L)^2 = alpha*k^2, the same rates the
analytical cosine response carries.  The validator therefore agrees with
``nominal + withdrawal_response`` up to discretization error.

The first two steps use backward Euler: the trapezoidal scheme is only
neutrally damping for stiff modes, and the point forcing otherwise excites
a slowly decaying odd-even start-up oscillation that caps the observable
refinement order near 1.5.  With the smoothed start the scheme shows its
clean second-order trend.

Each step solves a cyclic tridiagonal system: a plain tridiagonal part plus
a Sherman-Morrison corner correction.  The tridiagonal parts of the two
step matrices (backward Euler and trapezoidal) are LU-factored once with
LAPACK ``gttrf``; each step is one ``gttrs`` substitution plus the
correction, in place in preallocated buffers.  That is the arithmetic of a
banded ``gtsv`` solve per step in the same order, so the results are the
same bit for bit.  Every step's residual is checked against 1e-10 of the
right-hand-side scale.  The two LAPACK routines come from scipy's compiled
``scipy.linalg._flapack`` module, loaded once per process when the first
solver is built, without the ``scipy.linalg`` package, whose set-up costs
about 0.25 s and 20 MiB more.
The forcing and the comparison mask place a tap by one rule, ``_tap_node``;
the comparison takes every snapshot's reference from one point-mode call.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec

import numpy as np

from .core import PipelineConfig, SeriesOptions, WithdrawalSchedule
from .errors import ConvergenceFailure, InvalidParameter
from .series import DEFAULT_OPTIONS, _point_response

RESIDUAL_LIMIT = 1e-10

#: Number of leading backward-Euler steps before trapezoidal stepping.
STARTUP_STEPS = 2

#: Cells within this circular distance of a sink node are excluded from
#: field comparisons; the discrete delta cannot match the series there.
EXCLUSION_RADIUS_CELLS = 2

#: Largest grid accepted, in cells and in time steps (horizon / dt): far
#: above the CLI default of 3000 cells x 6000 steps, and low enough that
#: no grid's arrays exhaust memory before a step is taken.
MAX_CELLS = 10**6
MAX_STEPS = 10**7


@dataclass(frozen=True)
class OracleGrid:
    """Uniform space-time grid over the ring, of at most
    :data:`MAX_CELLS` cells and :data:`MAX_STEPS` time steps."""

    cells: int
    dt_s: float
    horizon_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.cells, int) or self.cells < 64:
            raise InvalidParameter("cells must be an integer >= 64")
        if not 0.0 < self.dt_s < np.inf:
            raise InvalidParameter("dt_s must be finite and > 0")
        if not self.dt_s <= self.horizon_s < np.inf:
            raise InvalidParameter("horizon_s must be finite and >= dt_s")
        # Checked as floats, before any int() or allocation.
        if self.cells > MAX_CELLS:
            raise InvalidParameter(f"cells must be <= {MAX_CELLS}")
        if not self.horizon_s / self.dt_s <= MAX_STEPS:
            raise InvalidParameter(
                f"horizon_s / dt_s must be <= {MAX_STEPS} steps")


@dataclass
class SnapshotError:
    time_s: float
    rel_l2: float
    max_abs_pa: float
    mean_drop_rel_err: float


@dataclass
class OracleComparison:
    entries: list[SnapshotError]
    excluded_cells: int

    def worst_rel_l2(self) -> float:
        return max((e.rel_l2 for e in self.entries), default=0.0)

    def worst_mean_drop_err(self) -> float:
        return max((abs(e.mean_drop_rel_err) for e in self.entries), default=0.0)


@dataclass
class OracleRun:
    """Simulation output: requested snapshots plus the ring-mean history."""

    grid: OracleGrid
    nominal_pa: float
    positions: np.ndarray
    times: list[float]
    snapshots: list[np.ndarray]
    mean_times: np.ndarray
    mean_series: np.ndarray
    max_residual_rel: float


_FLAPACK = "scipy.linalg._flapack"


@cache
def _lapack_gttrf_gttrs():
    """LAPACK ``dgttrf`` and ``dgttrs``: the very objects that
    ``scipy.linalg.get_lapack_funcs`` returns for float64.

    Only the top-level ``scipy`` package is imported; it sets up the
    wheel's libraries and gives the package path, where the import
    system's own extension finder locates ``_flapack``.  That module is
    loaded without running ``scipy/linalg/__init__.py``; once
    ``scipy.linalg`` is loaded, its module is reused.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        directory = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                          ).find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"no compiled {_FLAPACK} module in {directory}")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module.dgttrf, module.dgttrs


class _CyclicSolver:
    """Solves (I - s*Lap) v = rhs on the periodic ring for fixed s.

    The circulant tridiagonal matrix is split into a plain tridiagonal part
    and a rank-one corner correction (Sherman-Morrison).  The tridiagonal
    part is factored once, and so is the correction vector; each solve
    costs one substitution and one scaled vector update.
    """

    def __init__(self, n: int, s: float):
        self.s = s
        diag = 1.0 + 2.0 * s
        off = -s
        gamma = -diag
        d = np.full(n, diag)
        d[0] = diag - gamma
        d[-1] = diag - off * off / gamma
        band = np.full(n - 1, off)
        gttrf, self._gttrs = _lapack_gttrf_gttrs()
        # A zero pivot would make every state non-finite, which the
        # per-step residual check rejects.
        *self._lu, _ = gttrf(band, d, band)
        self._off_over_diag = off / diag
        self._q = np.zeros(n)
        self._q[0], self._q[-1] = gamma, off
        self._gttrs(*self._lu, self._q, overwrite_b=True)
        self._denom = 1.0 + self._q[0] - self._off_over_diag * self._q[-1]

    def solve(self, rhs: np.ndarray, out: np.ndarray,
              work: np.ndarray) -> None:
        """Write the solution into ``out``; ``work`` is overwritten."""
        np.copyto(out, rhs)
        self._gttrs(*self._lu, out, overwrite_b=True)
        factor = (out[0] - self._off_over_diag * out[-1]) / self._denom
        out -= np.multiply(self._q, factor, out=work)

    def residual(self, v: np.ndarray, neighbours: np.ndarray,
                 rhs: np.ndarray, out: np.ndarray, work: np.ndarray) -> float:
        """max |(I - s*Lap) v - rhs|, with the full periodic operator.

        ``neighbours`` holds ``_neighbour_sum(v)``.
        """
        np.multiply(v, 1.0 + 2.0 * self.s, out=out)
        out -= np.multiply(neighbours, self.s, out=work)
        out -= rhs
        return _max_abs(out, out)


def _neighbour_sum(v: np.ndarray, out: np.ndarray) -> None:
    """out[k] = v[k-1] + v[k+1] on the ring."""
    np.add(v[:-2], v[2:], out=out[1:-1])
    out[0] = v[-1] + v[1]
    out[-1] = v[-2] + v[0]


def _tap_node(position_m: float, dx: float, n: int) -> int:
    """Node nearest a tap; a tap in the last half cell rounds to node 0."""
    return int(np.floor(position_m / dx + 0.5)) % n


def _max_abs(v: np.ndarray, work: np.ndarray) -> float:
    """np.max(np.abs(v)) without the Python-level wrapper of np.max."""
    return float(np.maximum.reduce(np.abs(v, out=work)))


def simulate(cfg: PipelineConfig, schedule: WithdrawalSchedule,
             grid: OracleGrid, snapshot_times) -> OracleRun:
    """Run the validator and record snapshots at the requested times.

    Snapshot times are rounded to the nearest whole step; the realized
    times are reported on the returned run.
    """
    schedule.check_positions(cfg.length_m)
    if not np.all(np.isfinite([p.rate for p in schedule.points])):
        raise InvalidParameter("withdrawal rates must be finite")
    length = cfg.length_m
    n, dt = grid.cells, grid.dt_s
    dx = length / n
    steps = int(round(grid.horizon_s / dt))
    if steps < 1:
        raise InvalidParameter("horizon shorter than one step")

    snap_steps: set[int] = set()
    for t in snapshot_times:
        if not -1e-9 <= t <= grid.horizon_s + 1e-9:    # NaN fails too
            raise InvalidParameter(
                f"snapshot time {t:g} outside [0, {grid.horizon_s:g}]")
        snap_steps.add(min(max(int(round(t / dt)), 0), steps))

    c_sq = cfg.sound_speed_m_s**2
    forcing = np.zeros(n)
    for point in schedule.points:
        forcing[_tap_node(point.position_m, dx, n)] += c_sq * point.rate / dx
    dt_forcing = dt * forcing

    diff = cfg.diffusivity()
    s_full = diff * dt / dx**2
    implicit_be = _CyclicSolver(n, s_full)
    implicit_cn = _CyclicSolver(n, 0.5 * s_full)

    # One neighbour sum of each state serves the residual of the step that
    # made it and the explicit half of the next step.
    state = np.full(n, cfg.nominal_pressure())
    neighbours = np.empty(n)
    _neighbour_sum(state, neighbours)
    rhs, work, resid = np.empty(n), np.empty(n), np.empty(n)
    means = np.empty(steps + 1)
    means[0] = state.mean()
    snapshots: list[np.ndarray] = []
    times: list[float] = []
    if 0 in snap_steps:
        snapshots.append(state.copy())
        times.append(0.0)
    max_residual = 0.0

    for k in range(1, steps + 1):
        if k <= STARTUP_STEPS:
            solver = implicit_be
            np.subtract(state, dt_forcing, out=rhs)
        else:
            # (I + s*Lap) state - dt * forcing
            solver = implicit_cn
            np.multiply(state, 1.0 - 2.0 * solver.s, out=rhs)
            rhs += np.multiply(neighbours, solver.s, out=work)
            rhs -= dt_forcing
        solver.solve(rhs, state, work)
        _neighbour_sum(state, neighbours)
        residual = solver.residual(state, neighbours, rhs, resid, work)
        scale = _max_abs(rhs, work)
        rel = residual / scale if scale > 0.0 else residual
        if not rel <= RESIDUAL_LIMIT:           # a NaN residual fails too
            raise ConvergenceFailure(
                f"cyclic solve residual {rel:.3e} exceeds {RESIDUAL_LIMIT:g} "
                f"at step {k}")
        max_residual = max(max_residual, rel)
        means[k] = np.add.reduce(state) / n     # state.mean(), unwrapped
        if k in snap_steps:
            snapshots.append(state.copy())
            times.append(k * dt)

    return OracleRun(
        grid=grid,
        nominal_pa=cfg.nominal_pressure(),
        positions=np.arange(n) * dx,
        times=times,
        snapshots=snapshots,
        mean_times=np.arange(steps + 1) * dt,
        mean_series=means,
        max_residual_rel=max_residual,
    )


def comparison_mask(cfg: PipelineConfig, schedule: WithdrawalSchedule,
                    grid: OracleGrid) -> np.ndarray:
    """Boolean mask of cells retained for field comparison."""
    n = grid.cells
    dx = cfg.length_m / n
    mask = np.ones(n, dtype=bool)
    index = np.arange(n)
    for point in schedule.points:
        j = _tap_node(point.position_m, dx, n)
        dist = np.abs((index - j + n // 2) % n - n // 2)
        mask &= dist > EXCLUSION_RADIUS_CELLS
    return mask


def _relative(error: float, scale: float) -> float:
    """error / scale, where 0 / 0 is 0 and any other error over 0 is inf."""
    if scale > 0.0:
        return error / scale
    return 0.0 if error == 0.0 else float("inf")


def compare_with_series(run: OracleRun, cfg: PipelineConfig,
                        schedule: WithdrawalSchedule,
                        opts: SeriesOptions = DEFAULT_OPTIONS
                        ) -> OracleComparison:
    """Error metrics of the run against the analytical point-mode field.

    The reference is ``nominal + withdrawal_response`` in point mode (the
    oracle has no analogue of the one-sided heaviside gating), taken for
    every snapshot from one (times x positions) evaluation.  Relative L2
    is normalized by the response magnitude, the quantity actually being
    validated, and cells within :data:`EXCLUSION_RADIUS_CELLS` of a sink
    are excluded.  The ring-mean drop is checked against c^2*t*sum(G)/L.
    """
    mask = comparison_mask(cfg, schedule, run.grid)
    c_sq = cfg.sound_speed_m_s**2
    total = schedule.total()
    references = run.nominal_pa + _point_response(
        run.positions, run.times, schedule, cfg, opts)

    entries: list[SnapshotError] = []
    for t, snap, reference in zip(run.times, run.snapshots, references):
        diff = snap[mask] - reference[mask]
        scale = float(np.linalg.norm(reference[mask] - run.nominal_pa))
        expected_drop = -c_sq * t * total / cfg.length_m
        actual_drop = float(snap.mean()) - run.nominal_pa
        entries.append(SnapshotError(
            time_s=t,
            rel_l2=_relative(float(np.linalg.norm(diff)), scale),
            max_abs_pa=float(np.max(np.abs(diff))) if diff.size else 0.0,
            mean_drop_rel_err=_relative(actual_drop - expected_drop,
                                        abs(expected_drop)),
        ))

    return OracleComparison(
        entries=entries,
        excluded_cells=int(np.count_nonzero(~mask)),
    )
