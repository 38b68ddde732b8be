"""Host-speed sampling, to express measured times at a fixed reference speed.

On a shared host the same pure-Python code runs at two speeds about 1.8x
apart, switching every few milliseconds, and the share of slow time drifts
over minutes: raw wall times of one workload spread by 20-30 % between runs
a minute apart.  While the benchmark measures, a timer signal (SIGALRM every
``INTERVAL_S``) runs a tiny fixed Fraction loop and records how long it took.
An interval of measured work is then converted to reference seconds: its raw
time minus the probes inside it, times ``REFERENCE_S`` times the mean of
1/(probe time) over the probes near it.  That is the time the same work
takes on a host that runs the probe loop in ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# Typical time of ``probe_loop`` while a workload runs on the 2-vCPU Xeon
# host the benchmark was defined on; only a scale, it cancels in comparisons.
REFERENCE_S = 2e-4
# Short intervals are judged by the probes of a window at least this long.
MIN_WINDOW_S = 0.5


def probe_loop() -> None:
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)


class SpeedSampler:
    """Context manager sampling the host's speed in this process."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> tuple:
        """(probe seconds inside [start, end), reference seconds per raw
        second) from the probes of the interval, widened to MIN_WINDOW_S."""
        widen = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.starts, start - widen)
        hi = bisect.bisect_right(self.starts, end + widen)
        if hi == lo:
            raise RuntimeError("no host-speed samples near the interval")
        inside = sum(
            d for t, d in zip(self.starts[lo:hi], self.durations[lo:hi]) if start <= t < end
        )
        factor = REFERENCE_S * sum(1.0 / d for d in self.durations[lo:hi]) / (hi - lo)
        return inside, factor

    def reference_seconds(self, start: float, end: float) -> float:
        inside, factor = self.window(start, end)
        return (end - start - inside) * factor
