"""The host's speed, measured with a fixed reference loop, and times scaled
to a reference speed.

The benchmark runs on a few cores of a shared machine.  Its speed swings by
up to a factor of two, for seconds or minutes at a time, as other tenants
load it: the same evaluation takes 3.6 ms in one minute and 6.5 ms in the
next.  A run's raw percentiles follow that swing, so runs of the same code
disagree by more than any useful regression bound.

A HostSpeed times a fixed pure-Python loop (``reference_work``, which uses
nothing of the program under test) between evaluations, about ten times a
second.  ``scale`` multiplies a time by REFERENCE_S / (median loop time in
the run): a run made while the host is slow has a slow loop too, and the
swing cancels.  A change to the program does not touch the loop, so a
program that got x % slower still reports x % more.  The raw times go to
stderr beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Median time of ``reference_work()``, sampled between evaluations, at full
#: speed on the host the benchmark was defined on (2 vCPUs of a shared
#: x86-64 VM, CPython 3.11).  Reported times are scaled to that speed.
REFERENCE_S = 0.0015
#: The loop runs again once this long has passed since the last time.
SAMPLE_EVERY_S = 0.1


def reference_work() -> int:
    """A fixed interpreter-bound loop.  Of the loops tried, this one's time
    followed the engine's through the host's slow spells most closely."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class HostSpeed:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = self.clock()
        reference_work()
        self._last = self.clock()
        self.samples.append(self._last - t0)

    @property
    def spent(self) -> float:
        """Time spent in the reference loop so far."""
        return sum(self.samples)

    def tick(self) -> None:
        """Sample if SAMPLE_EVERY_S has passed since the last sample."""
        if self.clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def reference_time(self) -> float:
        return statistics.median(self.samples)

    def relative(self) -> float:
        """The host's speed in this run, as a share of the reference."""
        return REFERENCE_S / self.reference_time()

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in this run, at the reference speed."""
        return seconds * self.relative()
