"""The host's speed, read from a fixed reference kernel while a pass runs.

On a shared host the same pass takes up to half again as long in a slow
phase, and slow phases come and go within seconds or last for minutes, so
no statistic over the passes of one run removes them.  `SpeedProbe` runs a
small fixed kernel (Python dict work and a 60x60 dense solve, the mix the
interior-point solver runs) every `PERIOD_S` seconds from a SIGALRM handler
in the main thread, between two bytecodes of the program under test.  The
kernel's time tracks the program's own slowdown closely.  On a 2-core x86_64
VM, over 3-second windows of the same relaxation repeated for 90 s, raw
times spread 0.21 (interquartile range over the median) and times divided
by the kernel's spread 0.05.

A pass's time at reference speed is its own time, less the kernel's, times
``REF_S * mean(1 / kernel time)``: each tick interval's work is scaled by
how much slower than `REF_S` the kernel ran in it.  The kernel never
touches radopf, so at a given host speed a change to the program moves the
scaled time in the same proportion as the raw time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
# kernel time between a pass's steps on a 2-core x86_64 VM in its fast state,
# so that a factor near 1 means a fast host; it only sets the scale
REF_S = 0.0015

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((60, 60))
_A = _M @ _M.T + 60.0 * np.eye(60)
_B = _rng.standard_normal(60)


def kernel() -> float:
    x = 0.0
    for _ in range(30):
        x += float(np.linalg.solve(_A, _B)[0])
        d = {j: j * x for j in range(200)}
        x += d[199] * 1e-12
    return x


class SpeedProbe:
    """Context manager that times the kernel every `PERIOD_S` seconds of
    wall time.  After the block, `spent_wall`/`spent_cpu` hold the kernel's
    own time, to be taken off the block's, and `factor` turns the rest into
    seconds at reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._old = None

    def _tick(self, signum, frame):
        w, c = time.perf_counter(), time.process_time()
        kernel()
        dw = time.perf_counter() - w
        self.samples.append(dw)
        self.spent_wall += dw
        self.spent_cpu += time.process_time() - c

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def factor(self) -> float:
        if not self.samples:
            raise RuntimeError("the block ended before the first tick")
        return REF_S * sum(1.0 / s for s in self.samples) / len(self.samples)
