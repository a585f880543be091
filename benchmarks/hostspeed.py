"""Host-speed probe used to express timings at a fixed reference speed.

On a shared host the speed of one core changes by up to 2x, within
milliseconds and over minutes (other tenants, frequency changes), and it
changes for the probe and the library alike.  The benchmark runs a short fixed kernel in bursts between
operations and scales each operation's time by REFERENCE_S over the probe
time measured around it.  The kernel does the kind of work the library
does: float math, small frozen dataclasses, and short numpy ufunc calls.
It never calls the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Probe time taken to define the reference host: a 2-CPU Intel Xeon when
# it is not slowed by other tenants.  Scaled times read as seconds there.
REFERENCE_S = 5.0e-4
MIN_KERNELS = 3  # kernel runs in the shortest burst
BURST_SHARE = 0.1  # a burst lasts this share of the operation before it
MAX_BURST_S = 0.3
INTERVAL_S = 0.1  # least wall time between bursts


@dataclass(frozen=True)
class _Sample:
    x: float
    y: float
    t: float


def kernel() -> float:
    acc = 0.0
    for i in range(500):
        s = _Sample(math.sin(i * 1e-3), math.cos(i * 2e-3), 0.5 * i)
        acc += math.hypot(s.x, 1.0 + s.t) + math.atan2(s.y, s.x)
    a = np.arange(32.0)
    for _ in range(30):
        a = np.sin(a) + 1.0
    return acc + float(a[0])


class Probe:
    """Bursts of kernel timings, taken between operations.

    The host flips between a fast and a slow state within milliseconds, so
    a burst reports the mean kernel time over a stretch long enough to
    average the flips: a tenth of the operation it follows, at least
    MIN_KERNELS runs and at most MAX_BURST_S.
    """

    def __init__(self):
        self.bursts = array("d")
        self._last = -math.inf

    @property
    def last(self) -> int:
        """Index of the most recent burst."""
        return len(self.bursts) - 1

    def burst(self, length: float = 0.0) -> None:
        """Run the kernel for ``length`` seconds (at least MIN_KERNELS times)."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_KERNELS or time.perf_counter() - start < length:
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.bursts.append(statistics.fmean(times))
        self._last = time.perf_counter()

    def after_op(self, op_seconds: float) -> None:
        """Burst sized to the operation just run, unless one ran very recently."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.burst(min(BURST_SHARE * op_seconds, MAX_BURST_S))

    def scale(self, before: np.ndarray) -> np.ndarray:
        """Factor to the reference speed for operations run after burst ``before``.

        The probe time around an operation is the mean of the bursts just
        before and just after it; the caller takes a burst after the last one.
        """
        b = np.asarray(self.bursts)
        return REFERENCE_S / (0.5 * (b[before] + b[before + 1]))

    def median_s(self) -> float:
        return float(np.median(np.asarray(self.bursts)))
