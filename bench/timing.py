"""Times scaled to a fixed machine speed, measured by a reference computation.

The benchmark runs on shared machines whose speed drifts while it runs: on
a 2-core shared VM, identical operon calls varied by 20% in CPU time as well
as wall time from one second to the next, so the process was getting a
slower CPU, not waiting.  A fixed pure-Python computation (Fractions, big
integers, a dict: the kinds of work operon does) is therefore timed before
every operation and once after the last.  Each measured time is scaled by
REFERENCE_S over the mean of the reference timings just before and just
after it: the time it would have taken at the speed where the reference
computation takes REFERENCE_S.  On that VM this cut the spread of 20-op
averages from 13% to 3-5% (coefficient of variation).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0025  # the reference computation at nominal speed


def reference_work() -> float:
    """Seconds taken by one fixed reference computation."""
    start = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(1, i)
        seen[i] = acc.numerator % 97
    x = 3 ** 2000
    for i in range(200):
        x = (x * 7 + i) % (1 << 4000)
    return perf_counter() - start


class SpeedLog:
    """Reference timings taken through a run, and the scale they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def calibrate(self) -> None:
        start = perf_counter()
        took = reference_work()
        self.at.append(start + took / 2)
        self.took.append(took)

    def scale(self, t: float) -> float:
        """Factor that turns a time measured around `t` into nominal time."""
        i = bisect(self.at, t)
        around = self.took[max(0, i - 1):i + 1] or self.took[-1:]
        return REFERENCE_S * len(around) / sum(around)
