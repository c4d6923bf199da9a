"""Machine-speed probe that puts every reported time on one scale.

On a shared host the same code can run at half speed for tens of seconds
while neighbours are busy; CPU time slows with wall time, so it does not
help.  The benchmark therefore runs a short, fixed probe (Python bytecode
plus small NumPy kernels, like the program's own mix, but no program code)
between operations, and scales each measured time by
``REFERENCE_S / probe time`` nearby.  A time reported as 10 ms means 10 ms
on a machine that runs the probe in ``REFERENCE_S``.  Raw wall times go to
the run's detail record.

The probe runs in a long-lived helper process of its own (this file run as a
script), so the program's heap, caches and garbage never slow it: the scale
depends on the machine, not on the change under test.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

#: Probe duration that defines the reporting scale: about one probe on an
#: uncontended 2-core x86-64 host.
REFERENCE_S = 0.006

#: Probes the helper runs before the first one that counts.
WARM_UP_PROBES = 5

#: Minimum spacing between probes, in seconds of operation time.
INTERVAL_S = 0.2

_MODES = np.arange(1.0, 101.0)


def _work() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for k in range(120):
        theta = np.linspace(0.0, 3.0, 8) + k * 1e-3
        weights = np.exp(-_MODES * _MODES * 1e-4 * k) / _MODES**2
        acc += float((weights @ np.cos(np.outer(_MODES, theta))).sum())
        for j in range(30):
            table[j] = table.get(j, 0.0) + j * 0.5
    return acc


class SpeedProbe:
    """Probe results over time and the scale factor they imply.

    Starts the helper process; :meth:`close` stops it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = -INTERVAL_S
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        for _ in range(WARM_UP_PROBES):
            self._ask()

    def _ask(self) -> float:
        """One probe in the helper; returns its duration in seconds."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def probe(self) -> None:
        start = time.perf_counter()
        self.durations.append(self._ask())
        self.times.append(start)
        self.last = start

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=60)

    def due(self, now: float) -> bool:
        return now - self.last >= INTERVAL_S

    def factor(self, at: float) -> float:
        """``REFERENCE_S`` over the median of the five probes nearest
        ``at``."""
        lo = max(0, bisect.bisect_left(self.times, at) - 5)
        window = range(lo, min(len(self.times), lo + 10))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - at))[:5]
        return REFERENCE_S / statistics.median(self.durations[j]
                                               for j in nearest)


if __name__ == "__main__":
    # Helper: one probe per input line, its duration on one output line.
    for _ in sys.stdin:
        began = time.perf_counter()
        _work()
        print(time.perf_counter() - began, flush=True)
