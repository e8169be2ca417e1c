"""Host-speed correction for the end-to-end timings.

The shared 2-vCPU x86-64 VM this benchmark was tuned on changes speed by up to
2.6x within two minutes: a trial that took 5.1 s took 1.9 s a little later.
The change hits the benchmark's own fixed reference kernel in nearly the
same proportion: the kernel slows somewhat more, by about 10% at a 1.6x
slowdown. So the end-to-end timings sample the kernel between every two pieces
of measured work, and scale each piece by REFERENCE_KERNEL_S / (median kernel
time around it). The result is in seconds on a host where the kernel takes
REFERENCE_KERNEL_S. The kernel is benchmark code, so a change to the program
moves the corrected times exactly as it moves the raw ones. The raw times are
printed next to the corrected ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on a shared 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) in its
# fastest observed state.
REFERENCE_KERNEL_S = 0.060
REPEATS = 3


def kernel() -> float:
    """Seconds taken by a fixed mix of the pipeline's kinds of work:
    dictionary and integer bit operations in the interpreter, then random
    boolean matrices made symmetric and counted in numpy. The matrices are
    small so that the kernel does not raise the peak memory it runs beside."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(300_000):
        key = i & 4095
        table[key] = table.get(key, 0) ^ ((i * 2654435761) & 0xFFFFFFFF)
    rng = np.random.default_rng(0)
    for _ in range(14):
        draws = rng.random((400, 400)) < 0.35
        int((draws | draws.T).sum())
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples taken before, between and after timed pieces of work:
    piece i ran between ``samples[i]`` and ``samples[i + 1]``."""

    def __init__(self):
        self.samples: list = []

    def sample(self) -> float:
        """Run the kernel REPEATS times; return the seconds it took."""
        times = [kernel() for _ in range(REPEATS)]
        self.samples.append(times)
        return sum(times)

    def factor(self, i: int) -> float:
        """Correction factor of piece i."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[i] + self.samples[i + 1])

    def run_factor(self) -> float:
        """Correction factor from every sample of the run."""
        return REFERENCE_KERNEL_S / statistics.median(t for batch in self.samples for t in batch)

    def corrected(self, times: list) -> list:
        if len(self.samples) != len(times) + 1:
            raise ValueError(f"{len(times)} timed pieces need {len(times) + 1} kernel samples")
        return [t * self.factor(i) for i, t in enumerate(times)]
