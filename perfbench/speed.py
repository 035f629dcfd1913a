"""Machine-speed reference for timing on a shared, noisy host.

On the two-core virtual machine the benchmark was sized on, other
tenants change the speed of our own CPU by up to 1.8x within seconds and
by 20% from one minute to the next; CPU time slows down with wall time,
so it is no escape.  Raw wall-clock metrics then spread 20-30% between
runs of the same code, wider than any useful regression bound.

So after every job the benchmark times a fixed reference that uses no
package code, and divides the job's time by the machine's slowdown at
that moment: the reference's time over its time on the machine the
benchmark was sized on (Intel Xeon, 2 vCPUs) when that machine is quiet.
Times are then milliseconds on that quiet machine.  A change to the
package moves job times and not the reference; a slower or busier host
moves both.  The raw wall-clock figures stay in each run's detail line.

Each job is divided by the sample taken right after it, not by a median
over its neighbours: the host's speed changes within a second, and on
the sizing machine the job's own sample made throughput 1.5 to 3 times
steadier over 20-second stretches than a median over 21 samples, and
the median latency as steady or steadier.

The tail is different.  The slowest jobs are often those that a burst
of contention hit, and a job's own sample can miss the burst.  For the
tail each run of a job is divided by the larger of the samples before
and after it, and where the job list runs twice, each job keeps its
least time: a burst seldom hits both runs of one job.  On the sizing
machine a run's tail divided by the host's slow-end slowdown (the 90th
percentile of its samples) moved by up to 40% from one pass of the same
jobs to the next, and from 15 to 42 ms between seeds in a busy stretch;
the least of two runs differed by at most 3% between the two halves of
one job list and by 5% between seeds.

Jobs in this process use an in-process kernel: small matrix-vector
products and elementwise functions, the same mix of numpy calls and
interpreter work as the package.  Jobs and cold starts in child
processes use a child process, ``python -S -c pass``: its time tracks a
CLI call's to within 1-2% while both swing by 20%, where the in-process
kernel does not see the CPU or the process start-up a child pays.

Known blind spot: contention the package itself creates while the
kernel runs (a thread left running between jobs) slows the kernel too
and so cancels out.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np


class SpeedProbe:
    """In-process reference: sample() is the slowdown against a quiet host."""

    reference_s = 1.6e-4

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((32, 32)) / 8.0
        self.vector = rng.standard_normal(32)

    def _kernel(self) -> float:
        start = time.perf_counter()
        v = self.vector
        total = 0.0
        for _ in range(60):
            v = np.tanh(self.matrix @ v)
            total += float(v @ v)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Best of three kernel runs: the first may find caches cold after a job."""
        return min(self._kernel() for _ in range(3)) / self.reference_s


class ProcessSpeedProbe:
    """Child-process reference: sample() is the slowdown against a quiet host."""

    reference_s = 1.0e-2

    def sample(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
        return (time.perf_counter() - start) / self.reference_s
