"""Machine speed sampling, so that timings survive a shared, drifting CPU.

On a shared 2-CPU machine the same benchmark pass took anywhere from 4.3 s
to 7.9 s within a few minutes: the speed the process gets drifts with
other tenants' load, within seconds, while the work stays the same.  A
``SpeedSampler`` times a fixed interpreter-bound kernel at regular
intervals while the measured code runs, from a SIGALRM handler that runs
between bytecodes of the main thread.  Each stretch of work between two
samples is divided by the kernel times at its two ends, which gives the
work's duration on a machine where the kernel takes ``KERNEL_REF_S``.
The module uses the standard library only, so it can time an import.
"""

from __future__ import annotations

import signal
import time

KERNEL_REF_S = 1e-3
_KERNEL_DATA = list(range(40_000))


def kernel() -> int:
    """Fixed interpreter-bound work (about 1.3 ms on a 2.1 GHz Xeon)."""
    total = 0
    for x in _KERNEL_DATA:
        total += x
    return total


class SpeedSampler:
    """Times ``kernel`` at entry, at exit and every ``interval`` s in between."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, *_):
        self.starts.append(time.perf_counter())
        kernel()
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def kernel_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def work_s(self) -> float:
        """Unscaled time between the samples: the measured code less the sampler."""
        return sum(s - e for s, e in zip(self.starts[1:], self.ends))

    def scaled_s(self) -> float:
        """Work time on a machine where ``kernel`` takes ``KERNEL_REF_S``."""
        k = self.kernel_s()
        gaps = (s - e for s, e in zip(self.starts[1:], self.ends))
        return KERNEL_REF_S * sum(g / (0.5 * (a + b)) for g, a, b in zip(gaps, k, k[1:]))
