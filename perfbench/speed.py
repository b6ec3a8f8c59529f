"""Wall time corrected for the machine's momentary speed.

On a shared host the same op can take twice as long when other tenants
load the CPU; all of it shows as user time of this process.  ``SpeedProbe``
runs a fixed exact-arithmetic kernel -- dict updates with Fraction sums,
the operations the package spends its time on -- every ``PERIOD_S`` seconds
from a SIGALRM handler, so the samples interleave with the program's own
bytecode.  The garbage collector is off during a kernel run, so no
collection of the program's heap starts inside it.  ``seconds(a, b)``
integrates the program time in [a, b], with the probe's own kernel runs
left out, and weights each stretch by ``REFERENCE_KERNEL_S`` over the
median duration of the last ``RATE_WINDOW`` kernel runs: the result is the
time the work would have taken at the reference speed.  The median keeps
one stalled kernel run from discounting the stretch after it.  The package
code is never in the kernel, so a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Kernel duration at full speed on a 2-vCPU Intel Xeon VM with Python 3.11
# (the fastest 5% of 2000 runs): reference seconds are seconds at that speed.
REFERENCE_KERNEL_S = 0.0006
PERIOD_S = 0.05
RATE_WINDOW = 5  # kernel runs whose median duration sets a stretch's weight
_ZERO = Fraction(0)


def kernel() -> None:
    acc: dict = {}
    for i in range(200):
        k = (i * 7919) & 127
        acc[k] = acc.get(k, _ZERO) + Fraction(i & 7, 3)


class SpeedProbe:
    """Samples the interpreter's speed while the program runs."""

    def __init__(self):
        self.starts: list = []  # kernel start times, increasing
        self.ends: list = []
        self._previous = None
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that lands inside a kernel run is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the program's work between clock readings
        a and b.  Each gap between kernel runs is weighted by the median
        duration of the kernel run that opened it and the ones just before."""
        total = 0.0
        i = max(bisect.bisect_right(self.starts, a) - 1, 0)
        while i < len(self.starts) and self.starts[i] < b:
            gap_end = self.starts[i + 1] if i + 1 < len(self.starts) else b
            lo, hi = max(a, self.ends[i]), min(b, gap_end)
            if hi > lo:
                recent = range(max(i - RATE_WINDOW + 1, 0), i + 1)
                rate = REFERENCE_KERNEL_S / statistics.median(
                    self.ends[j] - self.starts[j] for j in recent)
                total += (hi - lo) * rate
            i += 1
        return total
