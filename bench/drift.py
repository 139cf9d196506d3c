"""Drift correction for the timings in the result line.

The machines this benchmark runs on can change speed by tens of percent
within minutes (other tenants, clock frequency), which would drown any
regression bound. So every duration the result line reports is scaled by
``NOMINAL_S / t_ref``, where ``t_ref`` is the time of a fixed numpy
computation shaped like the program's work (small and 384-wide matrix
products, an elementwise exp over a 224 x 224 x 4 field, Python-level loop
overhead), measured on the same thread at most ``REFRESH_S`` before the
duration started. On a machine where the reference takes ``NOMINAL_S`` a
scaled duration equals the wall-clock one; a change to the program moves it
as much as it moves wall-clock time. The report line keeps the raw
wall-clock values beside the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the reference's time on the 2-core Xeon VM the benchmark was tuned on
NOMINAL_S = 0.0019
REFRESH_S = 0.5


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((64, 64))
        self._wide = rng.standard_normal((256, 384))
        self._proj = rng.standard_normal((384, 384)) / 20.0
        self._field = rng.standard_normal((224, 224, 4))
        # preallocated outputs: how the process's allocator happens to be
        # tuned (e.g. glibc's mmap threshold) must not change the reference
        self._small_out = np.empty((64, 64))
        self._wide_out = np.empty((256, 384))
        self._field_out = np.empty((224, 224, 4))
        self.samples: list[float] = []
        self._at: float | None = None

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(20):
            acc += float(np.matmul(self._small, self._small, out=self._small_out)[0, 0])
        acc += float(np.matmul(self._wide, self._proj, out=self._wide_out)[0, 0])
        out = np.multiply(self._field, self._field, out=self._field_out)
        np.negative(out, out=out)
        acc += float(np.exp(out, out=out).sum())
        return acc

    def measure(self) -> float:
        """Time the reference (best of three) and remember it."""
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)
        self._at = perf_counter()
        return best

    def scale(self) -> float:
        """Factor for a duration about to start; re-measures the reference
        when the last measurement is older than REFRESH_S."""
        if self._at is None or perf_counter() - self._at > REFRESH_S:
            self.measure()
        return NOMINAL_S / self.samples[-1]
