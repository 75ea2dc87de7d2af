"""Host-speed calibration for the benchmark's time metrics.

The shared test host ran the same code up to 1.5 times slower for stretches
of minutes, so raw times from runs minutes apart spread by more than any
useful bound. A fixed kernel owned by the benchmark, independent of
latentlab, is timed between jobs; its median over a run gives the host's
speed during that run. Times are reported in reference seconds: raw seconds
times REF_S over that median. A change to latentlab moves a job's time but
not the kernel's, so it shows in full. Raw times stay in the result file.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

# Kernel time that defines the reference speed: about its median on the
# 2-vCPU Intel Xeon virtual machine the bounds were set on.
REF_S = 0.004


class Calibration:
    """Samples of the kernel time taken during one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 64))
        self._x = rng.random(50_000)
        self.samples = []

    def sample(self):
        """Run the kernel once: a Python loop, small matmuls and a streaming pass."""
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(20):
            self._a @ self._a
        for _ in range(20):
            np.exp(self._x).sum()
        self.samples.append(perf_counter() - t0)

    def factor(self):
        """Multiplier from raw seconds to reference seconds."""
        return REF_S / median(self.samples)
