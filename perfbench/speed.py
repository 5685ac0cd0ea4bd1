"""Timings scaled to a nominal machine speed.

The host changes speed by tens of percent while the benchmark keeps its
core, since CPU time equals wall time.  Some of these speed states last a
few seconds.  There is also a drift over tens of minutes: a fixed loop's
median time grew by half from one measurement to one twenty minutes later,
on a 2-core x86-64 VM.  A raw wall time therefore says more about the host
than about the code.

A fixed piece of work, ``calibration()``, is timed every SAMPLE_INTERVAL
seconds throughout the timed passes, from a SIGALRM handler that runs
between bytecodes of the pass.  A pass is reported as its wall time less the
sampling done inside it, times CALIBRATION_S over the mean sample taken
during the pass and within MARGIN of it.  That is, it is reported in seconds
at the speed where ``calibration()`` takes CALIBRATION_S.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

CALIBRATION_S = 0.01
SAMPLE_INTERVAL = 0.25
MARGIN = 0.5


def calibration():
    """Seconds taken by a fixed mix of the workloads' kinds of work: Python
    float math, 2-element numpy arrays, and FFTs of 100 points."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += math.sin(i * 1e-3)
    v = np.ones(2, dtype=complex)
    for _ in range(2_500):
        v = np.array([v[0] + 1e-9, v[1] * 0.9999999], dtype=complex)
    x = np.ones(100, dtype=complex)
    for _ in range(250):
        x = np.fft.ifft(np.fft.fft(x))
    return time.perf_counter() - start


class SpeedMonitor:
    """Samples the machine's speed in the background of the timed passes."""

    def __init__(self):
        self.samples = []          # (start, duration) of each calibration
        calibration()              # the first call also imports numpy.fft

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, calibration()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end):
        """Seconds from start to end, less the sampling inside, at nominal speed."""
        inside = sum(d for s, d in self.samples if start <= s < end)
        near = [d for s, d in self.samples if start - MARGIN <= s < end + MARGIN]
        if not near:
            near = [calibration()]
        return (end - start - inside) * CALIBRATION_S / statistics.mean(near)
