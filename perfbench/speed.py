"""Wall time converted to time at the host's full speed.

The host is slowed by up to 2x most of the time, in spells of 0.1 s to a
minute, so the wall time of the same study or stream pass varies by
20-60% between runs.  While a SpeedClock runs, a timer signal every
INTERVAL_S runs a fixed reference kernel (small numpy operations in a
Python loop, the same mix as the estimators) and records when it ran and
how long it took.  The kernel's fastest time in a run is the host at full
speed, so its time over that is how much the host was slowed just then.
``full_speed(t0, t1)`` divides each stretch of wall time between two
kernels by the mean slowdown of the two kernels around it, and leaves the
kernels themselves out.  The work measured is unchanged: a program that
costs more, anywhere, takes longer on this clock as on the wall clock.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.002
KERNEL_LOOPS = 10

_M = np.eye(4) * 0.5
_V = np.ones(4)


def reference_kernel() -> None:
    x = _V
    for _ in range(KERNEL_LOOPS):
        x = np.maximum(_M @ x + _V, -1.0)


class SpeedClock:
    """Samples the host's speed while in a ``with`` block; may be re-entered.

    Every block starts and ends with a kernel, so each interval inside a
    block lies between two kernels.
    """

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._previous = None
        self._ticking = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._ticking:  # the timer fired again during a tick
            return
        self._ticking = True
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.start.append(t0)
        self.end.append(t1)
        self._ticking = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def fastest(self) -> float:
        """The fastest kernel this clock ran, in seconds: the host at full speed."""
        return float(np.min(np.subtract(self.end, self.start)))

    def full_speed(self, t0: float, t1: float, fastest: float | None = None) -> float:
        """Seconds that the wall-time interval [t0, t1] takes at full speed.

        Full speed is `fastest`, by default this clock's own fastest kernel.
        """
        if fastest is None:
            fastest = self.fastest()
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        took = end - start
        # Stretch j runs from the end of kernel j to the start of kernel j + 1.
        factor = 2.0 * fastest / (took[:-1] + took[1:])
        overlap = np.clip(np.minimum(t1, start[1:]) - np.maximum(t0, end[:-1]), 0.0, None)
        return float(overlap @ factor)
