"""Shared machinery: loading sparkforge from source, set-up timing, the
closed loop, percentiles, memory and the machine description."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SPARKFORGE_MODULES = (
    "exact_arith",
    "exact_linalg",
    "spark_engine",
    "matroid",
    "dft_analysis",
    "constructions",
)


def load_sparkforge(src: Path, with_cli: bool) -> SimpleNamespace:
    """Import sparkforge afresh from ``src`` and return its modules by name.

    Earlier imports are dropped first, so every call pays the import again
    and starts with empty module-level caches.
    """
    for name in [m for m in sys.modules if m == "sparkforge" or m.startswith("sparkforge.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    names = SPARKFORGE_MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{name: importlib.import_module(f"sparkforge.{name}") for name in names})


def timed_setup(setup, reps: int, probe):
    """Run ``setup()`` ``reps`` times, each between two speed-probe samples;
    return (last result, median seconds as read, median scaled seconds)."""
    times = []
    state = None
    probe.take()
    for _ in range(reps):
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
        probe.take()
    return state, statistics.median(times), statistics.median(probe.scale(times))


def closed_loop(rounds, run_job, seconds: float, min_jobs: int, probe=None):
    """One client: run whole rounds back to back until both ``seconds`` have
    passed and ``min_jobs`` jobs were attempted.  ``probe``, if given, takes
    a speed sample before the first job and after each job, outside the
    jobs' times.

    Returns (records, rounds run); a record is (job, output, seconds, error)
    with output None when the job raised.
    """
    records = []
    t_start = time.perf_counter()
    if probe is not None:
        probe.take()
    r = 0
    while True:
        for job in rounds[r % len(rounds)]:
            t0 = time.perf_counter()
            try:
                out, err = run_job(job), None
            except Exception as exc:  # a raising job is a failed job, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append((job, out, time.perf_counter() - t0, err))
            if probe is not None:
                probe.take()
        r += 1
        if time.perf_counter() - t_start >= seconds and len(records) >= min_jobs:
            return records, r


def run_once(jobs, run_job):
    """Run ``jobs`` once in order; same records as closed_loop."""
    records, _ = closed_loop([jobs], run_job, 0.0, 0)
    return records


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MiB of this process, or of it and the
    largest child it waited for."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def canonical_digest(outputs) -> str:
    """sha256 of the canonical JSON of a list of certificate documents."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
    }
