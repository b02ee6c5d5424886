"""cli-mix: real `python -m sparkforge.cli` invocations, one at a time.

Every round runs all ten subcommands on files written at set-up, one
`construct | coherence` pipe, and one `full-spark` sweep above the
process-pool threshold with the default --threads.  Interpreter start-up,
the numpy import and JSON I/O dominate, which is what a CLI user pays.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import reference

NAME = "cli-mix"
WITH_CLI = True
SPEED_PROBE = reference.startup_probe
ROUNDS = 12
TRACE_ROUNDS = 4
TIMEOUT_S = 120

# 4 x 24 integers of height 1000: C(24, 4) = 10626 subsets, above the
# engine's 2048-subset process-pool threshold, and full spark in practice.
POOL_SHAPE = (4, 24, 1000)

# Cyclotomic orders of the DFT and harmonic jobs below.
ORDERS = (5, 7, 8, 10, 11, 12)


def _csv(values):
    return ",".join(str(v) for v in values)


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _int_matrix(rng, m, n, h):
    return {"schema_version": 1, "kind": "integer", "rows": m, "cols": n,
            "entries": [rng.randint(-h, h) for _ in range(m * n)]}


def _round(rng, d):
    os.makedirs(d, exist_ok=True)
    ground, right = 10, 6
    pairs = list(itertools.combinations(range(8), 2))
    frame = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(3 * 7)]
    files = {
        "ints": _write(f"{d}/ints.json", _int_matrix(rng, 4, 8, 3)),
        "pool": _write(f"{d}/pool.json", _int_matrix(rng, *POOL_SHAPE)),
        "rows": _write(f"{d}/rows.json", sorted(rng.sample(range(16), 5))),
        "frame": _write(f"{d}/frame.json", {"schema_version": 1, "kind": "complex_float",
                                            "rows": 3, "cols": 7, "entries": frame}),
        "bip": _write(f"{d}/bip.json", {"ground": ground, "right": right,
                                        "adj": [rng.sample(range(right), 2) for _ in range(ground)]}),
        "simple": _write(f"{d}/simple.json", {"vertices": 8, "edges": rng.sample(pairs, 14)}),
        "probe": _write(f"{d}/probe.json", _int_matrix(rng, 3, 8, 3)),
    }
    # Fourteen ordinary invocations, then three that cost about twice as
    # much: the pool sweep and two pipes.  A round's p50 (rank 8 of 0..16)
    # falls inside the ordinary block and its p90 (rank 14.4) inside the
    # block of three, so neither sits on the edge between two classes.
    return [
        ("cli", ("construct", "--harmonic", "--n", "7", "--rows", _csv(sorted(rng.sample(range(7), 3))), "--exact")),
        ("cli", ("construct", "--vandermonde", "--bases=" + _csv(rng.sample(range(-20, 21), 6)), "--m", "3")),
        ("cli", ("spark", "--matrix", files["ints"])),
        ("cli", ("spark", "--dft", "12", "--rows", _csv(sorted(rng.sample(range(12), 3))))),
        ("cli", ("full-spark", "--dft", "8", "--rows", _csv(sorted(rng.sample(range(8), 3))))),
        ("cli", ("full-spark", "--dft", "10", "--rows", _csv(sorted(rng.sample(range(10), 4))))),
        ("cli", ("full-spark", "--matrix", files["pool"])),
        ("cli", ("dft-analyze", "--n", "16", "--rows-file", files["rows"])),
        ("cli", ("orbit", "--n", "12", "--rows", _csv(sorted(rng.sample(range(12), 3))))),
        ("cli", ("rip-check", "--n", "20", "--k", "5", "--delta", "0.5",
                 "--rows", _csv(sorted(rng.sample(range(20), 8))))),
        ("cli", ("coherence", "--matrix", files["frame"])),
        ("cli", ("matroid-girth", "--graph", files["bip"])),
        ("cli", ("matroid-girth", "--graph", files["bip"], "--method", "representation",
                 "--trials", "3", "--seed", str(rng.randrange(1000)))),
        ("cli", ("clique-gadget", "--graph", files["simple"], "--k", "4", "--girth")),
        ("cli", ("probe", "--matrix", files["probe"], "--k", "2", "--seed", str(rng.randrange(1000)))),
        _pipe(rng),
        _pipe(rng),
    ]


def _pipe(rng):
    prime = rng.choice((5, 7, 11))
    return ("pipe", ("construct", "--harmonic-identity", "--n", str(prime),
                     "--rows", _csv(sorted(rng.sample(range(prime), 3))), "--k", "1"), ("coherence",))


def setup(sf, seed, workdir):
    rng = random.Random(f"{NAME}:{seed}")
    rounds = [_round(rng, f"{workdir}/r{r}") for r in range(ROUNDS)]
    for n in ORDERS:
        sf.exact_arith.root_power(n, 1)  # fills the order's reduction table
    env = {k: v for k, v in os.environ.items() if k != sf.cli.BUDGET_ENV}
    env["PYTHONPATH"] = os.path.abspath("src")
    return {"rounds": rounds, "orders": ORDERS, "env": env}


def _command(argv):
    return [sys.executable, "-m", "sparkforge.cli", *argv]


def _result(codes, stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        doc = None
    return {"exit": codes, "doc": doc}


def run_job(sf, state, job):
    env = state["env"]
    if job[0] == "cli":
        proc = subprocess.run(_command(job[1]), env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=TIMEOUT_S)
        return _result([proc.returncode], proc.stdout)
    first = subprocess.Popen(_command(job[1]), env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    try:
        second = subprocess.Popen(_command(job[2]), env=env, stdin=first.stdout,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            first.stdout.close()
            out, _ = second.communicate(timeout=TIMEOUT_S)
        finally:
            second.kill()
            second.wait()
        first.wait(timeout=TIMEOUT_S)
    finally:
        first.kill()
        first.wait()
    return _result([first.returncode, second.returncode], out)


def trace_job(sf, state, job):
    """The same job through cli.run in this process, so probes see it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        codes = [sf.cli.run(list(job[1]))]
    if job[0] == "pipe":
        first_out, buf = buf.getvalue(), io.StringIO()
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(first_out)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                codes.append(sf.cli.run(list(job[2])))
        finally:
            sys.stdin = old_stdin
    return _result(codes, buf.getvalue())


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _int_exact(sf, path):
    doc = _read(path)
    return sf.exact_linalg.ExactMatrix(doc["rows"], doc["cols"], doc["entries"])


def _complex(doc):
    return np.array([complex(re, im) for re, im in doc["entries"]]).reshape(doc["rows"], doc["cols"])


def _float_entries(matrix):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).reshape(-1)]


def _opt(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


def _ints(text):
    return [int(t) for t in text.split(",")]


def _coherence_doc(sf, matrix):
    result = sf.constructions.coherence(matrix)
    return {"mu": result.mu, "pair": list(result.pair)}


def expected(sf, job):
    """(exit codes, fields the CLI document must carry), from library calls."""
    argv = job[1]
    cmd = argv[0]
    lib, dft, da, mat = sf.spark_engine, sf.exact_linalg, sf.dft_analysis, sf.matroid
    if job[0] == "pipe":
        frame = sf.constructions.harmonic_identity(int(_opt(argv, "--n")), _ints(_opt(argv, "--rows")),
                                                   int(_opt(argv, "--k")))
        return [0, 0], _coherence_doc(sf, frame.matrix)
    if cmd == "construct" and "--harmonic" in argv:
        shadow = sf.constructions.harmonic(int(_opt(argv, "--n")), _ints(_opt(argv, "--rows"))).exact_shadow
        return [0], {"kind": "cyclotomic", "order": shadow.order, "rows": shadow.rows,
                     "cols": shadow.cols, "entries": [list(e.num.coeffs) for e in shadow.entries]}
    if cmd == "construct":
        frame = sf.constructions.vandermonde(_ints(_opt(argv, "--bases")), int(_opt(argv, "--m")))
        return [0], {"kind": "complex_float", "entries": _float_entries(frame.matrix)}
    if cmd in ("spark", "full-spark"):
        if "--dft" in argv:
            a = dft.dft_submatrix(int(_opt(argv, "--dft")), _ints(_opt(argv, "--rows")))
        else:
            a = _int_exact(sf, _opt(argv, "--matrix"))
        if cmd == "spark":
            return [0], lib.spark(a).as_dict()
        cert = lib.is_full_spark(a, threads=1)
        return [0 if cert.full_spark else 1], cert.as_dict()
    if cmd == "dft-analyze":
        rows = da.IndexSet.from_iterable(int(_opt(argv, "--n")), _read(_opt(argv, "--rows-file")))
        uniform = da.is_uniformly_distributed(rows).uniform
        return [0 if uniform else 1], {"uniform": uniform, "prime_power": True,
                                       "full_spark": da.full_spark_prime_power(rows).full_spark}
    if cmd == "orbit":
        rows = da.IndexSet.from_iterable(int(_opt(argv, "--n")), _ints(_opt(argv, "--rows")))
        members = sorted(list(s) for s in da.closure_orbit(rows))
        return [0], {"size": len(members), "orbit": members}
    if cmd == "rip-check":
        rows = da.IndexSet.from_iterable(int(_opt(argv, "--n")), _ints(_opt(argv, "--rows")))
        result = da.rip_necessary_check(rows, int(_opt(argv, "--k")), float(_opt(argv, "--delta")))
        return [0 if result.passes else 1], {"pass": result.passes,
                                             "violations": [list(v) for v in result.violations]}
    if cmd == "coherence":
        return [0], _coherence_doc(sf, _complex(_read(_opt(argv, "--matrix"))))
    if cmd == "matroid-girth":
        graph = mat.BipartiteGraph.from_dict(_read(_opt(argv, "--graph")))
        if "--method" in argv:
            result = mat.girth_via_representation(graph, int(_opt(argv, "--trials")), int(_opt(argv, "--seed")))
        else:
            result = mat.hall_girth(graph)
        return [0], result.as_dict()
    if cmd == "clique-gadget":
        graph = mat.SimpleGraph.from_dict(_read(_opt(argv, "--graph")))
        girth = mat.hall_girth(mat.clique_gadget(graph, 4)).as_dict()
        return [0], {"girth": girth, "target_girth": 6}
    if cmd == "probe":
        a = _int_exact(sf, _opt(argv, "--matrix"))
        k = int(_opt(argv, "--k"))
        result = lib.compressed_spark_probe(a, k, trials=10, rng_seed=int(_opt(argv, "--seed")))
        fields = result.as_dict()
        if not result.exceeds_k:
            cert = lib.spark(a)
            if cert.spark <= k:
                fields.update(spark=cert.spark, corroborated=True,
                              witness=list(cert.witness) if cert.witness else None)
        return [0 if result.exceeds_k else 1], fields
    raise ValueError(f"no expectation for {cmd}")


def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def check(sf, state, job, out, cache):
    codes, fields = expected(sf, job)
    if out["exit"] != codes:
        return f"exit codes {out['exit']}, library says {codes}"
    doc = out["doc"]
    if not isinstance(doc, dict):
        return "stdout is not one JSON document"
    bad = [k for k, v in fields.items() if k not in doc or not _same(doc[k], v)]
    return f"fields {bad} differ from the library certificate" if bad else None


def _median_process_ms(argv, env, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_extras(sf, state):
    """Start-up costs and the process-pool speed-up, measured outside the probes."""
    env = state["env"]
    interp = _median_process_ms([sys.executable, "-c", "pass"], env, 7)
    imported = _median_process_ms([sys.executable, "-c", "import sparkforge.cli"], env, 7)
    pool_argv = next(job[1] for job in state["rounds"][0]
                     if job[1][0] == "full-spark" and "--matrix" in job[1])
    pool = _int_exact(sf, _opt(pool_argv, "--matrix"))
    timings = {}
    for threads in (1, 2, 1, 2, 1, 2):
        t0 = time.perf_counter()
        sf.spark_engine.is_full_spark(pool, threads=threads)
        timings.setdefault(threads, []).append(time.perf_counter() - t0)
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "spark_engine.parallel_speedup": statistics.median(timings[1]) / statistics.median(timings[2]),
    }
