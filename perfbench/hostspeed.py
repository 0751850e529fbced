"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the host's speed for a single-threaded Python
process can change by up to 2x within seconds and stay changed for
minutes, with no steal time and CPU time tracking wall time.  Every op
class slows or speeds up by about the same factor.  Such swings are wider
than any bound a regression check can use.

So the benchmark times a fixed pure-Python loop of `Fraction` operations
on small and on larger integers, which calls no steinv code, between ops
(at most every EVERY_S seconds).  Each op's time is scaled by NOMINAL_S
over the median loop time measured within WINDOW_S of the op.  A
calibrated time reads as the time the op would take on a host that runs
the loop in NOMINAL_S.  The raw times stay in the run summary.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

SMALL, LARGE = 500, 350
# between the loop's times at the two speed levels of the 2-vCPU Xeon VM
# the benchmark was built on (about 4 and 6.6 ms)
NOMINAL_S = 0.005
EVERY_S = 0.25
WINDOW_S = 0.6


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(SMALL):
        x = (x + Fraction(i % 97, i % 13 + 1)) % 17
    signs = []
    for i in range(LARGE):
        y = Fraction(i * 1000003 + 7, (i % 13 + 1) * 999983)
        x = x * y + Fraction(1, i + 1) if i % 50 else Fraction(i, 7)
        signs.append((x.numerator % 7, x < y))
    signs.sort()
    return time.perf_counter() - start


class Sampler:
    """Loop times taken during a run, keyed by when they were taken."""

    def __init__(self):
        self.at: list = []
        self.seconds: list = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = loop_seconds()
        self.at.append(start + seconds / 2)
        self.seconds.append(seconds)
        self.spent += time.perf_counter() - start

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time within WINDOW_S of the
        interval [start, end]; the nearest samples if none lie there."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

    def median_factor(self) -> float:
        return NOMINAL_S / statistics.median(self.seconds)
