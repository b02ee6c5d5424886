"""Run one sparkforge benchmark workload and print its metrics.

    python3 bench/run.py --workload dft-fullspark --seed 0 --seconds 20 --trace 0

Run it from the root of a sparkforge checkout: sparkforge is imported from
./src.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
a closed loop (one client, whole rounds of seeded jobs, at least --seconds
and 100 jobs), with every job's time scaled by the speed probe of
reference.py;
--trace 1 runs a fixed number of rounds once without and
once with layer probes and reports the per-layer metrics.  The line before
it is a JSON object with the machine, the certificate digest of the first
round, the tracing overhead and the first disagreements found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import cli_mix
import dft_fullspark
import harness
import int_spark_girth
import reference
from tracing import Tracer

WORKLOADS = {w.NAME: w for w in (dft_fullspark, int_spark_girth, cli_mix)}
SETUP_REPS = 7
MIN_JOBS = 100
GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 0


def _mul_us(sf, orders):
    """Warm CycInt product time in microseconds, averaged over ``orders``."""
    per_order = []
    for order in orders:
        phi = sf.exact_arith.euler_phi(order)
        rng = random.Random(order)
        a = sf.exact_arith.CycInt(order, [rng.randint(-99, 99) for _ in range(phi)])
        b = sf.exact_arith.CycInt(order, [rng.randint(-99, 99) for _ in range(phi)])
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(400):
                a * b
            batches.append((time.perf_counter() - t0) / 400)
        per_order.append(statistics.median(batches) * 1e6)
    return statistics.mean(per_order) if per_order else 0.0


def _hall_subsets(tracer, result, args, kwargs):
    """Subsets hall_girth examined, recovered from its size-then-lex witness."""
    n, k, w = result.ground_size, result.girth, result.witness
    if w is None:
        tracer.counters["hall_subsets"] += 2**n - 1
        return
    before = sum(math.comb(n, j) for j in range(1, k))
    rank, prev = 0, -1
    for i, c in enumerate(w):
        rank += sum(math.comb(n - x - 1, k - i - 1) for x in range(prev + 1, c))
        prev = c
    tracer.counters["hall_subsets"] += before + rank + 1


def _engine_subsets(tracer, result, args, kwargs):
    tracer.counters["subsets"] += result.checked_subsets


def install_probes(tracer, sf):
    engine_callers = [sf.spark_engine, sf.matroid] + ([sf.cli] if hasattr(sf, "cli") else [])
    for owner in engine_callers:
        for name in ("is_full_spark", "spark"):
            if hasattr(owner, name):
                tracer.wrap(owner, name, "engine", _engine_subsets)
    tracer.wrap(sf.spark_engine, "det_exact", "det")
    tracer.wrap(sf.spark_engine, "rank_exact", "rank")
    tracer.wrap(sf.exact_linalg.ExactMatrix, "column_submatrix", "submatrix")
    tracer.wrap(sf.exact_arith.ExactScalar, "inverse", "inverse")
    tracer.wrap(sf.matroid, "hall_girth", "hall", _hall_subsets)
    tracer.wrap(sf.matroid, "girth_via_representation", "repr")
    tracer.wrap(sf.dft_analysis, "is_uniformly_distributed", "uniformity")
    tracer.wrap(sf.dft_analysis, "closure_orbit", "orbit")
    for name in ("vandermonde", "harmonic", "harmonic_identity", "optimal_vandermonde", "parseval_projection"):
        tracer.wrap(sf.constructions, name, "build")
    tracer.wrap(sf.constructions, "coherence", "coherence")
    if hasattr(sf, "cli"):
        tracer.wrap(sf.cli, "run", "cli_run")


def layer_metrics(tr, extras):
    engine_s = tr.total["engine"]
    values = {
        "exact_arith.inverse_calls": (tr.calls["inverse"], "count"),
        "exact_arith.inverse_ms": (tr.total_ms("inverse"), "ms"),
        "exact_arith.inverse_us_p50": (tr.p50_us("inverse"), "us"),
        "exact_arith.mul_us": (extras["exact_arith.mul_us"], "us"),
        "exact_linalg.det_calls": (tr.calls["det"], "count"),
        "exact_linalg.det_ms": (tr.total_ms("det"), "ms"),
        "exact_linalg.det_self_ms": (tr.self_ms("det"), "ms"),
        "exact_linalg.rank_calls": (tr.calls["rank"], "count"),
        "exact_linalg.rank_ms": (tr.total_ms("rank"), "ms"),
        "exact_linalg.submatrix_ms": (tr.total_ms("submatrix"), "ms"),
        "spark_engine.subsets_checked": (tr.counters["subsets"], "count"),
        "spark_engine.subsets_per_s": (tr.counters["subsets"] / engine_s if engine_s else 0.0, "1/s"),
        "spark_engine.self_ms": (tr.self_ms("engine"), "ms"),
        "spark_engine.parallel_speedup": (extras.get("spark_engine.parallel_speedup", 0.0), "ratio"),
        "matroid.hall_ms": (tr.total_ms("hall"), "ms"),
        "matroid.hall_subsets": (tr.counters["hall_subsets"], "count"),
        "matroid.repr_ms": (tr.total_ms("repr"), "ms"),
        "dft_analysis.uniformity_us": (tr.mean_ms("uniformity") * 1e3, "us"),
        "dft_analysis.orbit_ms": (tr.total_ms("orbit"), "ms"),
        "constructions.build_ms": (tr.total_ms("build"), "ms"),
        "constructions.coherence_ms": (tr.total_ms("coherence"), "ms"),
        "cli.interp_ms": (extras.get("cli.interp_ms", 0.0), "ms"),
        "cli.import_ms": (extras.get("cli.import_ms", 0.0), "ms"),
        "cli.run_ms": (tr.mean_ms("cli_run"), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _jobs_per_s(records):
    return len(records) / sum(r[2] for r in records)


def _check_all(sf, workload, state, records):
    cache, errors = {}, []
    for i, (job, out, _, err) in enumerate(records):
        if err is None:
            try:
                err = workload.check(sf, state, job, out, cache)
            except Exception as exc:  # a check that cannot run is a disagreement
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            errors.append({"job": i, "input": repr(job)[:200], "error": err})
    return errors


def _untraced(workload, sf, state, seconds):
    """The closed loop; returns (records, end-to-end metrics, details).

    The timings are each job's time scaled by the speed probe around it
    (see reference.py); the details keep them as read.
    """
    run_job = lambda job: workload.run_job(sf, state, job)  # noqa: E731
    probe = workload.SPEED_PROBE()
    records, rounds = harness.closed_loop(state["rounds"], run_job, seconds, MIN_JOBS, probe)
    rss = harness.peak_rss_mb(include_children=workload.WITH_CLI)
    read = [r[2] for r in records]
    scaled = probe.scale(read)
    metrics, as_read = {}, {}
    for out, seconds_ in ((metrics, scaled), (as_read, read)):
        latencies = [t * 1e3 for t in seconds_]
        out["jobs_per_s"] = {"value": len(seconds_) / sum(seconds_), "unit": "1/s"}
        out["job_ms_p50"] = {"value": harness.percentile(latencies, 50), "unit": "ms"}
        out["job_ms_p90"] = {"value": harness.percentile(latencies, 90), "unit": "ms"}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    details = {"samples": len(records), "rounds": rounds, "job_s": sum(read),
               "as_read": {name: m["value"] for name, m in as_read.items()},
               "slowdown": probe.slowdown()}
    return records, metrics, details


def _traced(workload, sf, state):
    """The first TRACE_ROUNDS rounds without and then with probes; returns
    (records of both passes, per-layer metrics, details)."""
    jobs = [job for rnd in state["rounds"][: workload.TRACE_ROUNDS] for job in rnd]
    trace_job = getattr(workload, "trace_job", workload.run_job)
    run_job = lambda job: trace_job(sf, state, job)  # noqa: E731
    untraced = harness.run_once(jobs, run_job)
    tracer = Tracer()
    install_probes(tracer, sf)
    try:
        traced = harness.run_once(jobs, run_job)
    finally:
        tracer.restore()
    extras = {"exact_arith.mul_us": _mul_us(sf, state["orders"])}
    if hasattr(workload, "layer_extras"):
        extras.update(workload.layer_extras(sf, state))
    details = {"untraced_jobs_per_s": _jobs_per_s(untraced), "traced_jobs_per_s": _jobs_per_s(traced)}
    details["tracing_overhead_jobs_per_s"] = details["traced_jobs_per_s"] - details["untraced_jobs_per_s"]
    return untraced + traced, layer_metrics(tracer, extras), details


def run(args, root: Path):
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / str(os.getpid())
    t_process = time.perf_counter()

    def setup():
        shutil.rmtree(workdir, ignore_errors=True)
        sf = harness.load_sparkforge(root / "src", workload.WITH_CLI)
        return sf, workload.setup(sf, args.seed, os.path.relpath(workdir, root))

    setup_probe = reference.kernel_probe()
    try:
        (sf, state), setup_read_s, setup_s = harness.timed_setup(setup, SETUP_REPS, setup_probe)
        info = {"workload": workload.NAME, "seed": args.seed, "trace": args.trace,
                "machine": harness.machine_info(root), "setup_reps": SETUP_REPS,
                "first_job_ready_s": time.perf_counter() - t_process}
        if args.trace:
            records, metrics, details = _traced(workload, sf, state)
        else:
            records, metrics, details = _untraced(workload, sf, state, args.seconds)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            details["as_read"]["setup_s"] = setup_read_s
            details["setup_slowdown"] = setup_probe.slowdown()
        info.update(details)
        info["digest"] = harness.canonical_digest([r[1] for r in records[: len(state["rounds"][0])]])
        if args.seed == DEFAULT_SEED and GOLDEN.exists():
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
            info["golden_match"] = golden.get(workload.NAME) == info["digest"]
        errors = _check_all(sf, workload, state, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    attempted, failed = len(records), len(errors)
    info["error_rate"] = failed / attempted
    info["errors"] = errors[:20]
    if not args.trace:
        metrics["agree_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sparkforge" / "__init__.py").is_file():
        print(f"error: no sparkforge sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    run(args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
