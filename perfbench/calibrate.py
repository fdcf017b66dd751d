"""Machine-speed calibration for wall-clock measurements on a shared host.

On a virtual machine whose cores are shared with other tenants, the speed of
interpreted code changes by up to 2x within seconds, which swamps the
differences a benchmark must resolve.  A ``Calibrator`` runs a fixed
stdlib-only kernel (exact Gauss-Jordan inversion of a 6x6 rational matrix,
the same kind of Fraction churn the package does) from a timer signal ten
times a second while a run is measured.  A latency measured between
``t0`` and ``t1`` is then rescaled to the reference speed:

    calibrated = raw * REFERENCE_S / (mean kernel time in [t0 - WINDOW_S, t1])

REFERENCE_S is roughly the kernel's time on an unloaded host, so calibrated
times read about as the raw times that host would show.  The time spent in
the signal handler is recorded so that callers can remove it from their
latencies.  The kernel does not use the package, so a faster program is not
hidden.  Code that slows down less than the kernel under contention (the
allocation-light restriction_corpus, for one) is over-corrected a little on
a loaded host, which is why the raw figures are reported as well.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# roughly the kernel time on an unloaded 2-vCPU Intel Xeon VM with Python 3.11
REFERENCE_S = 1.3e-3
INTERVAL_S = 0.1
WINDOW_S = 0.25

clock = time.perf_counter

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
           for i in range(6)]


def kernel():
    """Exact inverse of a fixed invertible 6x6 rational matrix."""
    n = len(_MATRIX)
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_MATRIX)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


class Calibrator:
    """Samples the kernel's time from SIGALRM while used as a context manager."""

    def __init__(self):
        self.times = []      # start of each sample
        self.samples = []    # kernel seconds
        self.spent = 0.0     # seconds spent in the handler, all told
        self._old = None

    def _tick(self, signum, frame):
        t0 = clock()
        kernel()
        t1 = clock()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent += clock() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time in [t0 - WINDOW_S, t1].

        Only samples taken so far are used, so the factor is known as soon
        as the measured interval ends.
        """
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1)
        if lo >= hi:  # none that recent: the latest one
            lo, hi = hi - 1, hi
        near = self.samples[lo:hi]
        return REFERENCE_S * len(near) / sum(near)
