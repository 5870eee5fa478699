"""Scaling of measured times to a reference host speed.

Other tenants share the host, and the speed at which it runs Python moves
by up to 1.6x within seconds, for wall-clock and CPU time alike.  A fixed
calibration kernel, run between the operations, slows down and speeds up
with it: over 60 s on a 2-core Xeon the raw times of a p-adic operation
swung between 0.87 and 1.59 of their median (medians of 5 s windows),
while their ratio to the kernel stayed within 0.99-1.01.

`HostSpeed` runs the kernel at most every INTERVAL_S of measured work.
A time measured between kernel samples is scaled by
REFERENCE_KERNEL_S / (median of the nearest samples): it reads as the time
the work would take on a host where the kernel takes REFERENCE_KERNEL_S.
The kernel is frozen here and calls only the standard library, so no
change to the program under test changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.25
# the kernel's median time on a 2-core Intel Xeon shared host, Python 3.11
REFERENCE_KERNEL_S = 0.014
_ROUNDS = 50


def kernel() -> Fraction:
    """Exact arithmetic of the kind the program does: repeated products of
    polynomials with Fraction coefficients modulo x^5 - 1."""
    a = [Fraction(i + 1, i + 7) for i in range(5)]
    acc = [Fraction(1)] + [Fraction(0)] * 4
    for _ in range(_ROUNDS):
        out = [Fraction(0)] * 5
        for i, x in enumerate(acc):
            for j, y in enumerate(a):
                out[(i + j) % 5] += x * y
        acc = [c.limit_denominator(10**12) for c in out]
    return sum(acc)


class HostSpeed:
    """Kernel samples taken between measured intervals, and the scaling of
    each interval by the samples that bracket it."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def mark(self, every: bool = False) -> int:
        """Call before a measured interval: takes a kernel sample if one is
        due (or always, with `every`), and returns the index of the sample
        that opens the interval."""
        if every or time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def close(self) -> None:
        """Call after the last measured interval."""
        self.sample()

    def estimate(self, seconds: float, mark: int) -> float:
        """`seconds` at the reference speed, from the opening sample alone."""
        return seconds * REFERENCE_KERNEL_S / self.samples[mark]

    def scaled(self, seconds: float, mark: int) -> float:
        """`seconds`, measured after mark(), at the reference speed: scaled
        by the median of the two samples before the interval and the two
        after it, so that one sample slowed by an interrupt does not count."""
        local = statistics.median(self.samples[max(0, mark - 1): mark + 3])
        return seconds * REFERENCE_KERNEL_S / local
