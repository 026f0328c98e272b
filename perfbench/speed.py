"""How fast the machine runs fixed reference work, measured during a run.

The benchmark runs on a shared host whose speed drifts over tens of seconds
to minutes: neighbours load the cores and caches it shares.  Exact rational
arithmetic drifts most, by up to a factor of two; a drift that long lasts
through a whole run, so no estimator over one run's calls removes it.  A
workload made of such arithmetic (``game``: ``games`` builds Fraction
coefficients and ``roots`` counts their sign changes) therefore times a fixed
reference kernel of the same kind of work between its calls, and scales each
call's duration by how much slower or faster the kernel ran than its
reference time around that call: over the four ticks before it and the four
after.  Pairing each call with its neighbours also follows the drift within
a run; taking eight ticks, not two, keeps the kernel's own noise out of the
tail percentile.  The kernel uses only Python and numpy, never
persistlab, so a change to the package moves the scaled timings exactly as
it moves the wall-clock ones.

The other workloads spend most of their time in numpy, whose speed drifts
less; a reference kernel tracked their drift no better than their own
run-to-run spread, so they report wall-clock timings.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Median seconds of one kernel run on the machine the benchmark was tuned on
# (2-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11), so that scaled
# timings read close to wall-clock ones there.
REFERENCE_S = 0.0075

EVERY_S = 0.25  # one kernel run per this much wall time of calls


_DRAWS = tuple(float(x) for x in np.random.default_rng(2468).standard_normal((80, 8)).ravel())


def kernel():
    """Exact rational coefficients from float draws, their sum and their sign
    changes, 80 polynomials of degree 7."""
    changes = 0
    for k in range(0, len(_DRAWS), 8):
        coeffs = [Fraction(x) * math.comb(7, j) for j, x in enumerate(_DRAWS[k : k + 8])]
        changes += sum(1 for a, b in zip(coeffs, coeffs[1:]) if (a > 0) != (b > 0))
        changes += sum(coeffs) > 0
    return changes


class Speed:
    """Times the reference kernel between calls: a tick before every call and
    one after the last, each running the kernel about once per EVERY_S of
    calls since the previous tick."""

    def __init__(self):
        self.ticks: list[list[float]] = []
        self._last = None

    def tick(self) -> None:
        """Runs the kernel once per EVERY_S of wall time since the last tick,
        at least once at the first tick and at most eight times, so long calls
        get as many samples per second as short ones."""
        now = time.perf_counter()
        runs = 1 if self._last is None else min(8, int((now - self._last) / EVERY_S))
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.ticks.append(times)
        if runs:
            self._last = time.perf_counter()

    def samples(self) -> list[float]:
        return [t for times in self.ticks for t in times]

    def factors(self, calls: int) -> list[float]:
        """Per call i, reference time over the median kernel time of ticks
        i - 3 to i + 4 (tick i runs just before call i); when those ran no
        kernel (calls much shorter than EVERY_S), of the last ticks that did.
        Above 1 when the machine ran faster than the reference, below 1 when
        slower: multiply a duration by it to scale it to the reference
        speed."""
        out = []
        around = self.ticks[0]
        for i in range(calls):
            around = [t for tick in self.ticks[max(0, i - 3) : i + 5] for t in tick] or around
            out.append(REFERENCE_S / statistics.median(around))
        return out
