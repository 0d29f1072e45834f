"""The host's speed, measured between operations, to correct timings for its load.

On a shared host the same call runs up to twice as slow, for seconds to
minutes at a time, while other tenants load the machine.  A run's raw
quantiles then follow the host more than the program: on the reference
machine the median of one call's time over 20 s windows spread by a quarter
of its median between windows a few minutes apart.  So the timed loop runs
a fixed reference kernel right before every operation (plain Python and
small numpy arithmetic, no relay_bounds code: its cost is the same for
every version of the program), and each timing is divided by the host's
slowdown around it, the median kernel time within WINDOW_S seconds of the
timed interval over REFERENCE_S.  A corrected time reads as the time on the
reference machine with the host at its least loaded.  With a kernel of the
same two parts, three times as long, this cut the spread of 20 s medians of
eight of the benchmark's operations from 0.04-0.11 to 0.02-0.05 of their
median.

The kernel runs in the same process while the program is idle between
calls, so it sees the host's load and not the program's; a program that
kept working in other threads between its calls would slow the kernel and
so flatter its own timings.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

WINDOW_S = 1.5
# kernel time on the reference machine with the host at its least loaded:
# the 5th percentile of 38,461 back-to-back samples, 0.707 ms, against a
# median of 1.058 ms.  Only the scale of the corrected times depends on it.
REFERENCE_S = 0.707e-3

_RNG = np.random.default_rng(0)
_W = _RNG.random((6, 5))
_W /= _W.sum(axis=1, keepdims=True)


def kernel() -> float:
    """Integer bytecode and a small Blahut-Arimoto iteration, the two kinds of work the program does."""
    s = 0
    for i in range(6000):
        s += (i * 7) % 13
    p = np.full(6, 1.0 / 6.0)
    for _ in range(40):
        q = p @ _W
        d = (_W * np.log(_W / q)).sum(axis=1)
        p = p * np.exp(d)
        p /= p.sum()
    return s + float(p[0])


class HostSpeed:
    """Kernel timings through a run, and timings corrected by the slowdown they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def correct(self, started, took) -> list[float]:
        """Each time in `took`, begun at `started`, over the slowdown around it.

        The slowdown is the median kernel time within WINDOW_S of the timed
        interval, over REFERENCE_S.
        """
        at, kernel_s = np.asarray(self.at), np.asarray(self.took)
        start, took = np.asarray(started), np.asarray(took)
        lo = np.searchsorted(at, start - WINDOW_S)
        hi = np.searchsorted(at, start + took + WINDOW_S, side="right")
        slowdown = np.array([np.median(kernel_s[a:b]) for a, b in zip(lo, hi)]) / REFERENCE_S
        return list(took / slowdown)
