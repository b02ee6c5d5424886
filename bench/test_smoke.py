"""Smoke test of the benchmark's workloads at the default seed.

The first round of every workload must produce certificates whose
canonical JSON hashes to the digest committed in golden.json, and every
one of them must pass the workload's independent check.  Run from the
repository root:

    python3 -m pytest -q bench/test_smoke.py

After an intended change of certificates, rewrite golden.json with

    python3 bench/test_smoke.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import harness
import run

ROOT = Path(__file__).resolve().parent.parent


def first_round(name, workdir):
    workload = run.WORKLOADS[name]
    sf = harness.load_sparkforge(ROOT / "src", workload.WITH_CLI)
    state = workload.setup(sf, run.DEFAULT_SEED, str(workdir))
    jobs = state["rounds"][0]
    outputs = [workload.run_job(sf, state, job) for job in jobs]
    errors = [workload.check(sf, state, job, out, {}) for job, out in zip(jobs, outputs)]
    return harness.canonical_digest(outputs), [e for e in errors if e is not None]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_first_round_matches_golden(name, tmp_path):
    digest, errors = first_round(name, tmp_path)
    assert errors == []
    assert json.loads(run.GOLDEN.read_text(encoding="utf-8"))[name] == digest


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: first_round(name, Path(tmp) / name)[0] for name in sorted(run.WORKLOADS)}
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
