"""CPU-speed sampling, so that timings on a shared host can be compared.

On a host shared with other tenants the same pass can take 1.5x longer from
one minute to the next: the process is not descheduled (CPU time tracks wall
time), its core just runs slower.  A sampler on the other CPU does not see
this; a sample taken on the measuring thread itself does.  So, while a pass
runs, a timer signal interrupts it every INTERVAL_S seconds and times a fixed
reference kernel in the same thread.  A measured time t is then reported as
t * mean(REF_KERNEL_S / d_i) over the samples d_i taken while it ran: seconds
at the reference speed, unit ``ref_s``.  The kernel is benchmark code, so a
change to kummerlab cannot move it, and it runs once untimed before each
timed run so that the interrupted workload's cache state matters less.  The
sampling costs about 0.5 % of the pass, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
# Duration of one timed kernel run in the fast mode of a shared 2-vCPU
# Xeon host; it only sets the scale of ref_s.
REF_KERNEL_S = 3.3e-4

_A = np.linspace(0.0, 1.0, 64) * (1 + 1j)


def reference_kernel() -> float:
    """Small-array complex numpy and interpreted integer arithmetic, the
    same mix as the scalar and batched kummerlab code."""
    acc = 0.0
    for i in range(60):
        b = _A * _A - 0.5 * _A
        acc += float(np.abs(b).sum())
        x = 0
        for j in range(30):
            x += j * i
        acc += x
    return acc


def sample() -> tuple[float, float]:
    """(start, duration) of one timed kernel run, after one untimed run."""
    reference_kernel()
    start = perf_counter()
    reference_kernel()
    return start, perf_counter() - start


class SpeedSampler:
    """Context manager: while active, samples (time, kernel duration)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float | None:
        """Mean reference speed over [start, end], relative to REF_KERNEL_S;
        None when no sample fell inside."""
        inside = [REF_KERNEL_S / d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(inside) if inside else None

    def ref_seconds(self, start: float, end: float, fallback: float) -> float:
        """end - start in reference seconds; `fallback` is the factor for an
        interval too short to hold a sample."""
        return (end - start) * (self.factor(start, end) or fallback)
