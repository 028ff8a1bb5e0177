"""Machine speed, sampled while the benchmark runs, to scale its timings.

Other tenants of a shared host slow this process down by up to ~1.8x, in
phases that last from seconds to many minutes, so two runs of the same code
minutes apart can differ by 40% in wall time.  The sampler times a small
fixed reference kernel (scalar float math and small numpy operations, the
mix of the program's hot loops) ten times a second from a SIGALRM handler,
on the benchmark's own thread.  A call's time is then scaled by
NOMINAL_S / (reference time) averaged over the samples taken during the
call: the result reads as seconds of the host at the speed where the
reference kernel takes NOMINAL_S.  The handler's own time is taken out of
every call it interrupts.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.1          # one reference sample per PERIOD_S of wall time
NOMINAL_S = 1.0e-3      # reference kernel time, unloaded, on a 2-vCPU Xeon VM

_Z0 = np.array([1.3, 0.7, 0.4, 1.05])


def reference_kernel() -> float:
    """Seconds taken by a fixed amount of work (about NOMINAL_S unloaded)."""
    t0 = perf_counter()
    z = _Z0
    acc = 0.0
    for _ in range(400):
        r, phi, y, G = z
        d = r * r - 0.1 * r * math.cos(phi) + 0.01
        acc += 1.0 / (d * math.sqrt(d)) + G * G / (r * r * r)
        z = z + 1e-12 * z
    return perf_counter() - t0


def scale(durations) -> float:
    """Factor turning wall seconds into nominal-speed seconds."""
    return NOMINAL_S * sum(1.0 / d for d in durations) / len(durations)


class SpeedSampler:
    """Use as a context manager around the timed part of a run."""

    def __init__(self):
        self.times: list[float] = []    # sample start times
        self.durations: list[float] = []
        self.busy = 0.0                 # total time spent sampling

    def _tick(self, signum, frame):
        t0 = perf_counter()
        d = reference_kernel()
        self.times.append(t0)
        self.durations.append(d)
        self.busy += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """scale() of the samples taken in [t0, t1], or of the nearest one
        when the interval is shorter than the sampling period."""
        inside = [d for t, d in zip(self.times, self.durations) if t0 <= t <= t1]
        if not inside:
            mid = 0.5 * (t0 + t1)
            k = min(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            inside = [self.durations[k]]
        return scale(inside)
