"""The benchmark's smoke test runs with this suite, so that a change which
moves a seed-0 digest in bench/golden.json fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_digests_hold():
    # A child process, since bench/harness.load_sparkforge drops every
    # sparkforge module from sys.modules.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
