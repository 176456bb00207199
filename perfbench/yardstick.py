"""The speed reference the benchmark's timings are scaled by.

The host this benchmark was built on is a 2-vCPU VM whose CPU speed
drifts by tens of percent over minutes: a fixed pure-Python loop ran
28 to 47 iterations per second in 2-s windows, and wall-clock rates of
one workload spread by up to 26% (interquartile range over median)
across ten runs. That is wider than any bound a timing could be held to.

So commands are also timed in reference seconds. Between commands the
benchmark times a fixed computation of its own (work(), in the style of
oscdecay's per-point loops: scalar complex math and tiny numpy calls).
For the cold workload, whose commands are fresh interpreters, it times a
fresh interpreter running this file instead: start-up, the import of
scipy.optimize (the bulk of the CLI's cold start, though not part of the
program) and work(). A command's reference time is its wall time times
the nominal duration over the median duration of the five samples
around it. Changes to the program cannot alter the yardstick; on a
machine of steady speed reference seconds are wall seconds times a
constant. In the ten-run sets of BASELINE.md the wall-clock rates spread
0.10-0.26 and the scaled ones 0.03-0.14.
"""

import bisect
import cmath
import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# typical durations on the VM the baseline was recorded on: work() in
# this process, and a fresh interpreter running this file
NOMINAL_S = 0.0075
NOMINAL_COLD_S = 0.7
# least time between two samples
EVERY_S = 0.2
EVERY_COLD_S = 1.0


def work():
    acc = 0j
    v = np.arange(4.0)
    for i in range(1500):
        x = 1.0 + 1e-3 * i
        acc += cmath.exp(complex(-0.5 * x, x)) * math.sqrt(x)
        acc += float(np.exp(-v * x).sum())
    return acc


class Yardstick:
    """Samples of the yardstick's duration, and wall times converted by them."""

    def __init__(self, cold=False):
        self.cold = cold
        self.nominal = NOMINAL_COLD_S if cold else NOMINAL_S
        self.every = EVERY_COLD_S if cold else EVERY_S
        self.at = []
        self.took = []

    def sample(self, force=False):
        """Time the yardstick, unless the last sample is younger than self.every."""
        if self.at and not force and perf_counter() - self.at[-1] < self.every:
            return
        start = perf_counter()
        if self.cold:
            subprocess.run([sys.executable, __file__], check=True, timeout=60)
        else:
            work()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def reference_seconds(self, wall_s, at):
        """wall_s, measured up to time at, in reference seconds."""
        k = bisect.bisect(self.at, at)
        return wall_s * self.nominal / statistics.median(self.took[max(0, k - 3):k + 2])


if __name__ == "__main__":
    import scipy.optimize  # noqa: F401
    work()
