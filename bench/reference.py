"""Machine-speed probes, so that the end-to-end timings do not follow the host.

The benchmark runs on a few virtual CPUs of a shared host.  Their speed
moves by 20-40% as neighbours come and go: job by job, with a job of 30 ms
taking anywhere from one to two times its quiet time, and in phases of
seconds to minutes, so that a 30-second run can sit inside one slow phase.
A probe is fixed work that does not use sparkforge.  It runs just before and
just after every timed job, and the job's time is scaled by the probe's
nominal time over the mean of those two samples: the machine's state around
the job slows the probe and the job alike and cancels out, while a change to
sparkforge moves the jobs and not the probe.

Two probes match the two kinds of job.  The kernel probe is pure Python of
the kind of work the exact layers do in process: products of short integer
polynomials modulo x^n - 1.  The start-up probe starts a fresh interpreter
that imports json and exits, the fixed part of every CLI invocation, which
runs in a child process, on a vCPU that the kernel probe may not see.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time

_RNG = random.Random(20111015)
_POLYS = tuple(tuple(_RNG.randint(-99, 99) for _ in range(12)) for _ in range(8))
# Seconds one sample of each probe takes, typically, on the 2-vCPU machine
# of bench/README.md; the scale of the reported timings.
KERNEL_NOMINAL_S = 0.0015
STARTUP_NOMINAL_S = 0.035


def _kernel() -> int:
    total = 0
    for p in _POLYS:
        for q in _POLYS:
            out = [0] * len(p)
            for i, x in enumerate(p):
                for j, y in enumerate(q):
                    out[(i + j) % len(p)] += x * y
            total += out[0]
    return total


CHECKSUM = _kernel()


def kernel_sample() -> float:
    """Seconds for one kernel pass, with the cyclic garbage collector held
    off so that the workload's garbage is not collected inside the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = _kernel()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if total != CHECKSUM:
        raise RuntimeError("speed probe kernel gave a different checksum")
    return dt


def startup_sample() -> float:
    """Seconds to start a fresh interpreter that imports json and exits,
    isolated from the environment and without site-packages, which would
    more than double its cost."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "import json"], check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples of one probe taken between timed steps: one before the first
    step and one after each, so every step lies between two samples."""

    def __init__(self, sample, nominal_s: float):
        self._sample = sample
        self.nominal_s = nominal_s
        self.samples = []
        for _ in range(3):  # warm the interpreter and the page cache first
            sample()

    def take(self) -> None:
        self.samples.append(self._sample())

    def scale(self, seconds):
        """Each step's seconds times the nominal time over the mean of the
        samples just before and just after it: its time at nominal speed."""
        if len(self.samples) != len(seconds) + 1:
            raise ValueError(f"{len(seconds)} steps need {len(seconds) + 1} probe samples")
        pairs = zip(self.samples, self.samples[1:])
        return [t * self.nominal_s * 2 / (before + after) for t, (before, after) in zip(seconds, pairs)]

    def slowdown(self) -> float:
        """Mean sample time over the nominal time: above 1 in a slow phase."""
        return statistics.fmean(self.samples) / self.nominal_s


def kernel_probe() -> SpeedProbe:
    return SpeedProbe(kernel_sample, KERNEL_NOMINAL_S)


def startup_probe() -> SpeedProbe:
    return SpeedProbe(startup_sample, STARTUP_NOMINAL_S)
