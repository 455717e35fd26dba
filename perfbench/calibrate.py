"""Timing at a reference speed, for a core whose speed changes under load.

On the shared 2-core machine this benchmark was tuned on, the same pass of
library calls ran up to 1.7x slower for seconds at a time, with CPU time
following wall time, so raw times of one pass spread by a third between
runs.  A Clock therefore times a fixed reference job just after every
measured interval and scales the interval by REF_S over the mean of the
reference times just before and just after it.  The reference is a loop with
the library's instruction mix (exact fractions, tuple-keyed dicts) and uses
no library code, so a change to the library cannot move it.  Intervals in
this process are calibrated by the loop run in this process; CLI commands,
which are fresh interpreters, by a fresh interpreter running the loop:

    python perfbench/calibrate.py
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

CHILD_ITERATIONS = 1500
CHILD_TIMEOUT_S = 60


def kernel(iterations: int = 1200) -> Fraction:
    counts = {}
    total = Fraction(0)
    for i in range(1, iterations):
        key = (i % 17, i % 5, i % 3)
        total += Fraction(i % 7, i % 5 + 1)
        counts[key] = counts.get(key, 0) + 1
    return total


def in_process() -> float:
    """The faster of two runs, so that one interrupt does not skew the scale."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def in_child() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


# (reference job, its typical time on the machine the bounds were set on);
# the time only fixes the unit, so that scaled figures read close to raw ones
IN_PROCESS = (in_process, 0.004)
IN_CHILD = (in_child, 0.1)


class Clock:
    """Measures intervals and scales them to the reference speed."""

    def __init__(self, reference=IN_PROCESS):
        self.reference, self.ref_s = reference
        self.reference()  # the first run warms caches
        self.last = self.reference()
        self.reference_s = [self.last]

    def measure(self, fn):
        """Returns (fn(), raw seconds, factor from raw to reference seconds)."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self.reference()
        self.reference_s.append(after)
        scale = self.ref_s / ((self.last + after) / 2)
        self.last = after
        return result, raw, scale


if __name__ == "__main__":
    kernel(CHILD_ITERATIONS)
