"""The machine's speed, measured around every timed operation.

On a shared virtual machine the same code can run half again as slow
from one second to the next, and the share of slow periods changes
over minutes, because other tenants share the host's cores.  No
statistic over one run undoes a slow period that lasts longer than the
run.  So the benchmark times a fixed reference loop, made of the
benchmark's own stdlib order code and none of latkit's, right before
and after every operation and set-up, and scales each measured time by
NOMINAL / (mean of the two reference times): the time the operation
would have taken had the machine run the reference loop in NOMINAL
seconds.  A change to latkit moves the operation and not the loop, so
it shows in full.
"""

from __future__ import annotations

import itertools
import statistics
import time

from orders import Order
from verify import FrameFacts

# Seconds that one reference loop takes on a 2 vCPU Intel Xeon VM at
# 2.0 GHz with CPython 3.11 in a quiet period.  It only sets the scale.
NOMINAL = 0.001
REPEATS = 3  # loops per sample; a sample is their median


def _grid(a: int, b: int) -> Order:
    keys = list(itertools.product(range(a), range(b)))
    pairs = [(k, (k[0] + 1, k[1])) for k in keys if k[0] + 1 < a]
    pairs += [(k, (k[0], k[1] + 1)) for k in keys if k[1] + 1 < b]
    return Order(keys, pairs)


class Probe:
    """Times the reference loop: the nuclear-system test on every subset
    of the 3x3 grid.  The tables are built once, so a loop allocates
    nothing that outlives it."""

    def __init__(self):
        self.facts = FrameFacts(_grid(3, 3))
        self.masks = range(self.facts.P.full + 1)

    def loop(self) -> int:
        test = self.facts.is_nuclear_system
        return sum(1 for m in self.masks if test(m))

    def sample(self) -> float:
        """The reference loop's time now: the median of REPEATS loops."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.loop()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between reference samples `before` and
    `after`, at the speed where the reference loop takes NOMINAL."""
    return seconds * NOMINAL / ((before + after) / 2.0)
