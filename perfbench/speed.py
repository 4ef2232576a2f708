"""Machine-speed normalisation of the benchmark's timings.

The benchmark's host is a 2-core VM on a shared machine whose speed drifts
over tens of seconds to minutes: a fixed pure-Python loop took from 7.3 to
16 ms, CPU time equal to wall time and no steal time reported, and the
median pipeline of a 25 s run moved by up to 1.7x with it.  A run's raw
median then says more about when it ran than about the code.

So every timed sample is bracketed by a fixed calibration kernel, run just
before and just after it, and is reported as

    wall_s * (REFERENCE_S / mean(kernel_before_s, kernel_after_s)) ** exponent

the time the sample would have taken had the machine run the kernel in
REFERENCE_S.  The kernel does not touch cavityspec, so a change to the
program moves the normalised time as it moves the wall time at a fixed
machine speed.  `exponent` is how strongly a workload's time follows the
kernel's speed (a log-log slope, set per workload in workloads.py): 1 to
1.25 for pipelines bound by Python-level loops and small-array numpy
calls, 0.5 for one bound by large-array numpy work, which slows less when
the interpreter slows.
"""

from __future__ import annotations

import time

# The kernel's time with the machine at its fastest seen (7.3-8 ms on the
# 2-core Intel Xeon VM the workloads were sized on); it only sets the scale.
REFERENCE_S = 0.008


def kernel_seconds() -> float:
    """Wall time of one run of a fixed interpreter-bound loop."""
    start = time.perf_counter()
    total = 0
    table = {}
    for k in range(60_000):
        total += k * k
        table[k & 1023] = total
    return time.perf_counter() - start


class SpeedMeter:
    """Runs the kernel between samples; scales each sample to REFERENCE_S."""

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self.kernels = [kernel_seconds()]

    def factor(self) -> float:
        """Run the kernel; the scale for the sample timed since the last run."""
        self.kernels.append(kernel_seconds())
        mean = 0.5 * (self.kernels[-2] + self.kernels[-1])
        return (REFERENCE_S / mean) ** self.exponent
