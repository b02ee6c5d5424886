"""int-spark-girth: integer spark, matroid girth and compressed probes.

Nothing here touches Q(w): spark levels are decided by integer Bareiss
rank, the compressed probe by integer determinants, and the clique gadget
by Hall's condition, so this workload bypasses exact_arith entirely.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import reference

NAME = "int-spark-girth"
WITH_CLI = False
SPEED_PROBE = reference.kernel_probe
ROUNDS = 64
TRACE_ROUNDS = 8

# One round: spark on m x n matrices with entries in [-h, h] (small h gives
# early dependent subsets, large h sweeps every level with big integers);
# girth_via_representation on random bipartite graphs (ground, right,
# degree, trials), whose entries reach ground * 2^(ground + 1); the
# compressed probe (m, n, k, trials, entry height); hall_girth on the
# 4-clique gadget of random simple graphs (vertices, edges).
#
# As in dft-fullspark, the job classes are grouped so that the median and
# the 90th percentile fall inside blocks of equal-cost jobs: seven cheap
# jobs, the median block of three 5 x 11 spark sweeps, then seven dearer
# jobs whose 90th percentile block is the three 11-ground representations
# (dense graphs, so their girth and work barely vary).
CHEAP_SPARK = ((4, 10, 1), (4, 10, 2))
PROBE = ((4, 12, 3, 3, 5), (3, 12, 3, 3, 5))
HALL = ((8, 14), (9, 18))
CHEAP_REPR = ((10, 6, 2, 2),)
MEDIAN_SPARK = ((5, 11, 2**32),) * 3
DEAR_SPARK = ((6, 11, 2**16), (5, 12, 2**128))
DEAR_REPR = ((10, 6, 5, 2),) + ((11, 7, 6, 1),) * 3 + ((12, 7, 6, 1),)


def _matrix(rng, m, n, h):
    return (m, n, tuple(rng.randint(-h, h) for _ in range(m * n)))


def _bipartite(rng, ground, right, degree):
    return (ground, right, tuple(tuple(sorted(rng.sample(range(right), degree))) for _ in range(ground)))


def _spark(rng, shapes):
    return [("spark", _matrix(rng, m, n, h)) for m, n, h in shapes]


def _repr(rng, shapes):
    return [("repr", _bipartite(rng, g, r, d), t, rng.randrange(2**31)) for g, r, d, t in shapes]


def _round(rng):
    jobs = _spark(rng, CHEAP_SPARK)
    jobs += [("probe", _matrix(rng, m, n, h), k, t, rng.randrange(2**31)) for m, n, k, t, h in PROBE]
    for v, e in HALL:
        pairs = list(itertools.combinations(range(v), 2))
        jobs.append(("hall", (v, tuple(sorted(rng.sample(pairs, e))))))
    return jobs + _repr(rng, CHEAP_REPR) + _spark(rng, MEDIAN_SPARK + DEAR_SPARK) + _repr(rng, DEAR_REPR)


def setup(sf, seed, workdir):
    rng = random.Random(f"{NAME}:{seed}")
    return {"rounds": [_round(rng) for _ in range(ROUNDS)], "orders": []}


def run_job(sf, state, job):
    kind = job[0]
    if kind == "spark":
        m, n, entries = job[1]
        return sf.spark_engine.spark(sf.exact_linalg.ExactMatrix(m, n, entries)).as_dict()
    if kind == "repr":
        ground, right, adj = job[1]
        graph = sf.matroid.BipartiteGraph(ground, right, adj)
        return sf.matroid.girth_via_representation(graph, job[2], job[3]).as_dict()
    if kind == "probe":
        m, n, entries = job[1]
        a = sf.exact_linalg.ExactMatrix(m, n, entries)
        return sf.spark_engine.compressed_spark_probe(a, job[2], job[3], job[4]).as_dict()
    vertices, edges = job[1]
    gadget = sf.matroid.clique_gadget(sf.matroid.SimpleGraph(vertices, edges), 4)
    return sf.matroid.hall_girth(gadget).as_dict()


def _columns(m, n, entries, cols):
    return [[entries[i * n + c] for c in cols] for i in range(m)]


def _sympy_rank(rows):
    import sympy

    return sympy.Matrix(rows).rank()


def _check_spark(job, cert):
    m, n, entries = job[1]
    w = cert["witness"]
    if w is None:
        if cert["spark"] != min(m, n) + 1 or _sympy_rank(_columns(m, n, entries, range(n))) != min(m, n):
            return "no witness, but sympy rank disagrees"
        return None
    if cert["spark"] != len(w) or _sympy_rank(_columns(m, n, entries, w)) >= len(w):
        return f"witness {w} is not singular under sympy"
    return None


def _check_repr(sf, job, out):
    ground, right, adj = job[1]
    hall = sf.matroid.hall_girth(sf.matroid.BipartiteGraph(ground, right, adj))
    if out["girth"] > hall.girth:
        return f"representation girth {out['girth']} exceeds Hall girth {hall.girth}"
    return None


def _check_probe(job, out):
    m, n, entries = job[1]
    k = job[2]
    if not out["spark_exceeds_k"]:
        cols = out["candidate_columns"]
        return None if cols is not None and len(cols) == k else "refutation without k candidate columns"
    # A True answer is a proof that every k columns are independent.
    f = np.array(entries, dtype=float).reshape(m, n)
    combos = np.array(list(itertools.combinations(range(n), k)))
    s = np.linalg.svd(np.transpose(f[:, combos], (1, 0, 2)), compute_uv=False)
    if np.any(s[:, -1] <= 1e-9 * s[:, 0]):
        return "probe claims spark > k, but numpy finds k dependent columns"
    return None


def _check_hall(job, out):
    vertices, edges = job[1]
    edge_set = set(edges)
    has_k4 = any(
        all(pair in edge_set for pair in itertools.combinations(quad, 2))
        for quad in itertools.combinations(range(vertices), 4)
    )
    if (out["girth"] == 6) != has_k4:
        return f"gadget girth {out['girth']} but 4-clique present: {has_k4}"
    w = out["witness"]
    if w is not None:
        # Edge e is adjacent to its two endpoints and one shared pad vertex.
        spanned = {v for e in w for v in edges[e]}
        if len(spanned) + 1 > len(w) - 1 or len(w) != out["girth"]:
            return f"witness {w} satisfies Hall's condition"
    return None


def check(sf, state, job, out, cache):
    kind = job[0]
    if kind == "spark":
        return _check_spark(job, out)
    if kind == "repr":
        return _check_repr(sf, job, out)
    if kind == "probe":
        return _check_probe(job, out)
    return _check_hall(job, out)
