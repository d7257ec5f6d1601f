"""Machine-speed correction for wall times on a shared, contended CPU.

On a 2-vCPU sandbox the speed of one core drifts by up to 2x within
seconds as other tenants load the host, so raw wall times of one operation
spread by 10-30% from run to run.  The two vCPUs drift independently, and
no hardware counters are exposed, so the speed is sampled in the measured
thread itself: every ``INTERVAL`` seconds a SIGALRM handler runs a fixed
calibration chunk (exact Fraction arithmetic and dict stores, like the
program) and records how long it took.  The program time before each chunk
is scaled by ``C_REF`` over that chunk's duration, giving seconds at the
speed where one chunk takes ``C_REF``.  On 12 consecutive verify-a1n5
operations this cut the spread (interquartile range over median) from 13%
raw to 2%.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.003   # seconds between calibration chunks
C_REF = 0.0005     # nominal seconds of one chunk (typical on the 2-vCPU box)


def _chunk():
    acc = Fraction(0)
    store = {}
    for i in range(60):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        store[(i, i % 7)] = acc
    return acc


class SpeedSampler:
    """Times one interval at a time.

    ``stop()`` returns (wall time less the chunks' time, scaled time).  Each
    stretch of program time between two chunks is scaled by the speed of
    the chunk that ends it, so a mix of fast and slow periods weighs each
    period by its own speed.  Running sums keep memory flat however long
    the interval.
    """

    def __init__(self):
        self.prev = self.speed = self.program = self.scaled = 0.0

    def _tick(self, signum, frame):
        t = perf_counter()
        _chunk()
        took = perf_counter() - t
        self.speed = C_REF / took
        self.program += t - self.prev
        self.scaled += (t - self.prev) * self.speed
        self.prev = t + took

    def start(self, t0=None):
        """Start sampling; ``t0`` backdates the interval's start."""
        signal.signal(signal.SIGALRM, self._tick)
        self.prev = perf_counter() if t0 is None else t0
        self.speed, self.program, self.scaled = 1.0, 0.0, 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        tail = perf_counter() - self.prev
        return self.program + tail, self.scaled + tail * self.speed
