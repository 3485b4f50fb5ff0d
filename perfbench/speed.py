"""Machine-speed calibration.

The host this benchmark was built on shares its cores with other tenants, and
its speed swings by up to 1.7x in phases of a few seconds to minutes, which
neither steal time nor CPU time shows.  The raw time of a fixed amount of
work spreads by about 20% between 25-second runs.

So on the workloads whose jobs run in the interpreter (workloads.CALIBRATED)
run.py samples a fixed calibration kernel, which calls nothing in
commucount, before and after every job (at most every GAP_S seconds), and
scales each job's time by REFERENCE_S over the mean of the two samples that
bracket it.  Times are then "reference seconds": seconds on a machine where
the kernel takes REFERENCE_S.  A change to commucount moves them; a change
in the neighbours' load mostly does not.  On the workloads dominated by
bulk numpy work or by process start-up the kernel tracks the slowdown badly
and widens the spread, so there a Speedometer is built disabled and leaves
times as measured.
"""

from bisect import bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 0.004
GAP_S = 0.1


def kernel_seconds() -> float:
    """Time of the calibration kernel: a totient sieve over numpy slices and
    a Python-integer sum over it, the kind of work the jobs spend their
    time in."""
    start = perf_counter()
    limit = 3000
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    total = 0
    for m in range(1, limit + 1):
        total += int(phi[m]) * (limit // m) ** 2
    return perf_counter() - start


class Speedometer:
    """Calibration samples of one run, with the time each one ended.  A
    disabled one takes no samples and scales by 1."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.ends: list[float] = []
        self.samples: list[float] = []
        if enabled:
            kernel_seconds()  # the first call pays for lazy set-up

    def sample(self) -> None:
        if self.enabled:
            self.samples.append(kernel_seconds())
            self.ends.append(perf_counter())

    def sample_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def factor(self, start: float) -> float:
        """Scale for work that started at `start`: REFERENCE_S over the mean
        of the last sample before it and the first sample after it."""
        if not self.enabled:
            return 1.0
        k = bisect_right(self.ends, start)
        before = self.samples[max(k - 1, 0)]
        after = self.samples[k] if k < len(self.samples) else before
        return 2 * REFERENCE_S / (before + after)
