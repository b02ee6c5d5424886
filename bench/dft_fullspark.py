"""dft-fullspark: is_full_spark(dft_submatrix(N, rows)) with threads=1.

Almost all of the time goes to exact elimination over Q(w): ExactScalar
inverses and CycInt products inside det_exact.  A round is one job per
slot below; every round draws fresh row sets for the same slots, so rounds
cost about the same and a run's mix does not depend on where it stops.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

import reference

NAME = "dft-fullspark"
WITH_CLI = False
SPEED_PROBE = reference.kernel_probe
ROUNDS = 16
TRACE_ROUNDS = 3

# (N, number of rows, wanted outcome).  "full" slots are drawn until the
# uniform-distribution theorem (prime-power N; prime N always qualifies)
# says full spark.  A (lo, hi) slot is drawn until numpy finds the first
# singular minor, in lexicographic order, at position lo..hi, so the job
# refutes after a known number of minors.  Fixing the work of each slot
# keeps rounds equally expensive whatever the seed.  The slots mix phi(N)
# from 4 to 20, full confirmations of 0.02-1.7 s and refutations after a
# few to about a hundred minors.
#
# Every round has the same slots, so the latency order statistics come in
# blocks of one slot class.  The slots are grouped so that the median falls
# inside the block of the three N=13, M=2 jobs and the 90th percentile
# inside the block of the three N=13, M=3 jobs, whatever the number of
# rounds; a percentile between two unequal classes would jump with the
# round count.
SLOTS = (
    # nine jobs cheaper than the median block
    (10, 3, (5, 12)),
    (8, 4, (5, 12)),
    (12, 3, (20, 35)),
    (9, 3, (10, 20)),
    (12, 4, (10, 35)),
    (20, 3, (3, 12)),
    (15, 4, (13, 24)),
    (20, 4, (4, 12)),
    (16, 2, "full"),
    # the median block
    (13, 2, "full"),
    (13, 2, "full"),
    (13, 2, "full"),
    # nine dearer jobs: five below the 90th percentile block, the block of
    # three, and one above it; the 90th percentile, at rank 18.9 R - 0.9 of
    # 21 R jobs in R rounds, stays inside the block's ranks 17 R .. 20 R - 1
    (10, 5, (60, 90)),
    (16, 5, (30, 60)),
    (9, 5, "full"),
    (25, 3, (50, 120)),
    (25, 3, (50, 120)),
    (13, 3, "full"),
    (13, 3, "full"),
    (13, 3, "full"),
    (13, 4, "full"),
)

ORDERS = sorted({n for n, _, _ in SLOTS})

# A minor counts as numerically singular below this ratio of smallest to
# largest singular value; the check also demands that no minor falls in
# the gap between SINGULAR and REGULAR, so the numeric verdict is unambiguous.
SINGULAR = 1e-10
REGULAR = 1e-6


def _draw_rows(sf, rng, n, m, want):
    for _ in range(10_000):
        rows = tuple(sorted(rng.sample(range(n), m)))
        if want == "full":
            if sf.dft_analysis.full_spark_prime_power(sf.dft_analysis.IndexSet(n, rows)).full_spark:
                return rows
            continue
        lo, hi = want
        try:
            first = numeric_first_singular(n, rows, limit=hi)
        except ValueError:
            continue
        if first is not None and lo <= first[0] + 1 <= hi:
            return rows
    raise RuntimeError(f"no row set of N={n}, M={m} meets {want}")


def setup(sf, seed, workdir):
    rng = random.Random(f"{NAME}:{seed}")
    rounds = [[(n, _draw_rows(sf, rng, n, m, want)) for n, m, want in SLOTS] for _ in range(ROUNDS)]
    for n in ORDERS:
        sf.exact_arith.root_power(n, 1)  # fills the order's reduction table
    return {"rounds": rounds, "orders": ORDERS}


def run_job(sf, state, job):
    n, rows = job
    a = sf.exact_linalg.dft_submatrix(n, rows)
    return sf.spark_engine.is_full_spark(a, threads=1).as_dict()


def numeric_first_singular(n, rows, limit=None):
    """(index, columns) of the first singular maximal minor of the DFT rows,
    in lexicographic column order, under numpy SVD; None when none of the
    first ``limit`` minors (default all) is singular.  Raises ValueError
    when a minor is neither clearly singular nor clearly regular."""
    m = len(rows)
    f = np.exp(-2j * np.pi * np.outer(rows, np.arange(n)) / n)
    combos = np.array(list(itertools.islice(itertools.combinations(range(n), m), limit)))
    minors = np.transpose(f[:, combos], (1, 0, 2))
    s = np.linalg.svd(minors, compute_uv=False)
    ratio = s[:, -1] / s[:, 0]
    if np.any((ratio > SINGULAR) & (ratio < REGULAR)):
        raise ValueError(f"ambiguous minor for N={n} rows={rows}")
    singular = np.nonzero(ratio <= SINGULAR)[0]
    return (int(singular[0]), tuple(int(c) for c in combos[singular[0]])) if singular.size else None


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def check(sf, state, job, cert, cache):
    n, rows = job
    if job not in cache:
        cache[job] = numeric_first_singular(n, rows)
    first = cache[job]
    m = len(rows)
    if first is None:
        ok = cert["full_spark"] and cert["witness"] is None and cert["checked_subsets"] == math.comb(n, m)
    else:
        index, cols = first
        ok = (
            not cert["full_spark"]
            and cert["spark"] == m
            and tuple(cert["witness"]) == cols
            and cert["checked_subsets"] == index + 1
        )
    if not ok:
        return f"disagrees with numpy SVD scan: {cert}"
    factors = _prime_factors(n)
    if factors == [n] and not cert["full_spark"]:
        return "prime order refuted, contradicting Chebotarev"
    if len(set(factors)) == 1:
        verdict = sf.dft_analysis.full_spark_prime_power(sf.dft_analysis.IndexSet(n, rows))
        if verdict.full_spark != cert["full_spark"]:
            return "disagrees with full_spark_prime_power"
    return None
