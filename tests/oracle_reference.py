"""Reference time loop for the finite-difference oracle.

This is the marching solver as ringflow first shipped it: one
``scipy.linalg.solve_banded`` call per step, a Sherman-Morrison corner
correction, and ``np.roll`` neighbour terms.  ``ringflow.oracle.simulate``
must reproduce its snapshots, ring-mean history and largest residual bit for
bit; ``tests/test_oracle.py`` checks that.
"""

import numpy as np
from scipy.linalg import solve_banded

from ringflow.oracle import STARTUP_STEPS


class CyclicSolver:
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
        s = self.s
        return (1.0 + 2.0 * s) * v - s * (np.roll(v, 1) + np.roll(v, -1))


def explicit_half(v: np.ndarray, s: float) -> np.ndarray:
    return (1.0 - 2.0 * s) * v + s * (np.roll(v, 1) + np.roll(v, -1))


def march(cfg, schedule, grid, snapshot_times):
    """(times, snapshots, mean_series, max_residual_rel) of the old loop."""
    n, dt = grid.cells, grid.dt_s
    dx = cfg.length_m / n
    steps = int(round(grid.horizon_s / dt))
    snap_steps = sorted({min(max(int(round(t / dt)), 0), steps)
                         for t in snapshot_times})

    c_sq = cfg.sound_speed_m_s**2
    forcing = np.zeros(n)
    for point in schedule.points:
        j = int(np.floor(point.position_m / dx + 0.5)) % n
        forcing[j] += c_sq * point.rate / dx

    s_full = cfg.diffusivity() * dt / dx**2
    implicit_be = CyclicSolver(n, s_full)
    implicit_cn = CyclicSolver(n, 0.5 * s_full)

    state = np.full(n, cfg.nominal_pressure())
    means = np.empty(steps + 1)
    means[0] = state.mean()
    snapshots, times = [], []
    if snap_steps and snap_steps[0] == 0:
        snapshots.append(state.copy())
        times.append(0.0)
    max_residual = 0.0

    for k in range(1, steps + 1):
        if k <= STARTUP_STEPS:
            solver, rhs = implicit_be, state - dt * forcing
        else:
            solver = implicit_cn
            rhs = explicit_half(state, 0.5 * s_full) - dt * forcing
        state = solver.solve(rhs)
        residual = float(np.max(np.abs(solver.apply(state) - rhs)))
        scale = float(np.max(np.abs(rhs)))
        rel = residual / scale if scale > 0.0 else residual
        max_residual = max(max_residual, rel)
        means[k] = state.mean()
        if k in snap_steps:
            snapshots.append(state.copy())
            times.append(k * dt)
    return times, snapshots, means, max_residual
