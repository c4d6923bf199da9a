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

Each step solves a cyclic tridiagonal system via a banded factorization
plus a Sherman-Morrison corner correction; every solve's residual is
checked against 1e-10 of the right-hand-side scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from .core import (PipelineConfig, SeriesOptions, WithdrawalModel,
                   WithdrawalSchedule)
from .errors import ConvergenceFailure, InvalidParameter
from .series import DEFAULT_OPTIONS, response_profile

RESIDUAL_LIMIT = 1e-10

#: Number of leading backward-Euler steps before trapezoidal stepping.
STARTUP_STEPS = 2

#: Cells within this circular distance of a sink node are excluded from
#: field comparisons; the discrete delta cannot match the series there.
EXCLUSION_RADIUS_CELLS = 2


@dataclass(frozen=True)
class OracleGrid:
    """Uniform space-time grid over the ring."""

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
    comparison: OracleComparison | None = field(default=None)


class _CyclicSolver:
    """Solves (I - s*Lap) v = rhs on the periodic ring for fixed s.

    The circulant tridiagonal matrix is split into a plain tridiagonal part
    and a rank-one corner correction (Sherman-Morrison).  The correction
    vector is factored once; each solve costs one banded substitution.
    """

    def __init__(self, n: int, s: float):
        self.n, self.s = n, s
        diag = 1.0 + 2.0 * s
        off = -s
        gamma = -diag
        ab = np.zeros((3, n))
        ab[0, 1:] = off
        ab[1, :] = diag
        ab[2, :-1] = off
        ab[1, 0] = diag - gamma
        ab[1, -1] = diag - off * off / gamma
        self._ab = ab
        self._off_over_diag = off / diag
        u = np.zeros(n)
        u[0], u[-1] = gamma, off
        self._q = solve_banded((1, 1), ab, u, check_finite=False)
        self._denom = 1.0 + self._q[0] - self._off_over_diag * self._q[-1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = solve_banded((1, 1), self._ab, rhs, check_finite=False)
        factor = (y[0] - self._off_over_diag * y[-1]) / self._denom
        return y - factor * self._q

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the full periodic operator."""
        s = self.s
        return (1.0 + 2.0 * s) * v - s * (np.roll(v, 1) + np.roll(v, -1))


def _explicit_half(v: np.ndarray, s: float) -> np.ndarray:
    """(I + s*Lap) v with the periodic second-difference Laplacian."""
    return (1.0 - 2.0 * s) * v + s * (np.roll(v, 1) + np.roll(v, -1))


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

    snap_steps: list[int] = []
    for t in snapshot_times:
        if t < -1e-9 or t > grid.horizon_s + 1e-9:
            raise InvalidParameter(
                f"snapshot time {t:g} outside [0, {grid.horizon_s:g}]")
        k = min(max(int(round(t / dt)), 0), steps)
        if k not in snap_steps:
            snap_steps.append(k)
    snap_steps.sort()

    c_sq = cfg.sound_speed_m_s**2
    forcing = np.zeros(n)
    for point in schedule.points:
        j = int(np.floor(point.position_m / dx + 0.5)) % n
        forcing[j] += c_sq * point.rate / dx

    diff = cfg.diffusivity()
    s_full = diff * dt / dx**2
    implicit_be = _CyclicSolver(n, s_full)
    implicit_cn = _CyclicSolver(n, 0.5 * s_full)

    state = np.full(n, cfg.nominal_pressure())
    means = np.empty(steps + 1)
    means[0] = state.mean()
    snapshots: list[np.ndarray] = []
    times: list[float] = []
    if snap_steps and snap_steps[0] == 0:
        snapshots.append(state.copy())
        times.append(0.0)
    max_residual = 0.0

    for k in range(1, steps + 1):
        if k <= STARTUP_STEPS:
            solver, rhs = implicit_be, state - dt * forcing
        else:
            solver = implicit_cn
            rhs = _explicit_half(state, 0.5 * s_full) - dt * forcing
        state = solver.solve(rhs)
        residual = float(np.max(np.abs(solver.apply(state) - rhs)))
        scale = float(np.max(np.abs(rhs)))
        rel = residual / scale if scale > 0.0 else residual
        if rel > RESIDUAL_LIMIT:
            raise ConvergenceFailure(
                f"cyclic solve residual {rel:.3e} exceeds {RESIDUAL_LIMIT:g} "
                f"at step {k}")
        max_residual = max(max_residual, rel)
        means[k] = state.mean()
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
        j = int(np.floor(point.position_m / dx + 0.5)) % n
        dist = np.abs((index - j + n // 2) % n - n // 2)
        mask &= dist > EXCLUSION_RADIUS_CELLS
    return mask


def compare_with_series(run: OracleRun, cfg: PipelineConfig,
                        schedule: WithdrawalSchedule,
                        opts: SeriesOptions | None = None) -> OracleComparison:
    """Error metrics of the run against the analytical point-mode field.

    The reference is ``nominal + withdrawal_response`` in point mode (the
    oracle has no analogue of the one-sided heaviside gating).  Relative L2
    is normalized by the response magnitude, the quantity actually being
    validated, and cells within :data:`EXCLUSION_RADIUS_CELLS` of a sink
    are excluded.  The ring-mean drop is checked against c^2*t*sum(G)/L.
    """
    opts = opts or DEFAULT_OPTIONS
    opts = replace(opts, withdrawal_model=WithdrawalModel.POINT)
    mask = comparison_mask(cfg, schedule, run.grid)
    c_sq = cfg.sound_speed_m_s**2
    total = schedule.total()

    entries: list[SnapshotError] = []
    for t, snap in zip(run.times, run.snapshots):
        reference = run.nominal_pa + response_profile(
            run.positions, t, schedule, cfg, opts)
        diff = snap[mask] - reference[mask]
        scale = float(np.linalg.norm(reference[mask] - run.nominal_pa))
        norm = float(np.linalg.norm(diff))
        if scale > 0.0:
            rel_l2 = norm / scale
        else:
            rel_l2 = 0.0 if norm == 0.0 else float("inf")
        expected_drop = -c_sq * t * total / cfg.length_m
        actual_drop = float(snap.mean()) - run.nominal_pa
        if expected_drop != 0.0:
            mean_err = (actual_drop - expected_drop) / abs(expected_drop)
        else:
            mean_err = 0.0 if actual_drop == 0.0 else float("inf")
        entries.append(SnapshotError(
            time_s=t,
            rel_l2=rel_l2,
            max_abs_pa=float(np.max(np.abs(diff))) if diff.size else 0.0,
            mean_drop_rel_err=mean_err,
        ))

    result = OracleComparison(
        entries=entries,
        excluded_cells=int(np.count_nonzero(~mask)),
    )
    run.comparison = result
    return result
