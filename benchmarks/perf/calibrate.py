"""Reference seconds: timings normalised by a fixed reference loop.

This box is a 2-vCPU guest on a shared host.  Its speed drifts by 30-60 %
over minutes with no steal reported (a pure-Python spin loop and numpy
kernels slow together, CPU time inflates with wall time), so a wall-clock
rate measured now and one measured ten minutes later differ by more than
any regression bound, whichever estimator summarises the repetitions.

The harness therefore runs one fixed *reference loop* right beside
everything it times and reports end-to-end times in **reference
seconds**: wall seconds x ``PROBE_REF_S`` / (seconds the reference loop
took just then).  On this box with a quiet host a reference second is a
wall second; when the host slows the loop and the timed work by the same
factor, the factor cancels.  The loop never changes (a change to it moves
every number), touches nothing under ``src/repro`` and mixes what the
engines mix: numpy kernels over 10^5 elements, many small-array numpy
calls, and interpreter-bound Python.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Iterable

import numpy as np

__all__ = ["PROBE_REF_S", "Probe", "speed"]

#: What one run of the reference loop takes on the box this benchmark
#: was defined on while its host is quiet.
PROBE_REF_S = 0.042


class Probe:
    """The reference loop; ``run()`` does identical work every time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.big = rng.integers(0, 8, size=200_000)
        self.small = rng.integers(0, 8, size=(32, 64))
        self.run()  # first-call costs stay out of every measurement

    def run(self) -> float:
        """Seconds one pass of the loop took."""
        rng = np.random.default_rng(12345)
        big, small = self.big, self.small
        started = perf_counter()
        for _ in range(50):
            np.bincount(big, minlength=8)
            picks = rng.integers(0, big.size, 5000)
            big[picks] = (big[picks] + 1) % 8
            for _ in range(40):
                sums = small.sum(axis=1)
                small[rng.random(32) < 0.5, 0] += 1
                np.cumsum(sums)
            total = 0
            for i in range(3000):
                total += i * i
        return perf_counter() - started


def speed(probe_seconds: Iterable[float]) -> float:
    """Host speed beside a measurement, 1.0 = the quiet reference box.

    Wall seconds x ``speed`` are reference seconds; a wall-clock rate
    divided by ``speed`` is a rate per reference second.
    """
    return PROBE_REF_S / statistics.median(probe_seconds)
