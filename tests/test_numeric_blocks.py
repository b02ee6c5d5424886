"""The numeric probe's block sweep against the per-subset SVD loop it replaced.

numeric_spark_probe stacks each block of a level as one (subsets, rows, k)
array and decides it by one batched SVD.  The oracle here is the loop it
replaced: one SVD per subset, in itertools.combinations order, through the
same size-then-lex budget rule.  Both must give the same certificate, or
the same BudgetExceeded text and k_reached, for every matrix, tolerance
and budget below, including the sizes where a level spans many blocks.
"""

import itertools
import math

import numpy as np
import pytest

from sparkforge import DEFAULT_BUDGET, numeric_spark_probe, spark_engine
from sparkforge.constructions import _complex_matrix, _unit_scaled
from sparkforge.errors import BudgetExceeded
from sparkforge.sweep import _first_dependent


def _per_subset_probe(f, tol, budget):
    """The per-subset sweep: a subset is dependent when its smallest singular
    value is at most tol * largest * max(shape), once scaled into range."""
    arr = _complex_matrix(f)
    m, n = arr.shape

    def dependent(cols):
        sub = _unit_scaled(arr[:, cols])
        s = np.linalg.svd(sub, compute_uv=False)
        smax = float(s[0])
        return smax == 0.0 or float(s[-1]) <= tol * smax * max(sub.shape)

    def search(k):
        return next(filter(dependent, itertools.combinations(range(n), k)), None)

    k, witness, checked = _first_dependent(n, range(1, min(m, n) + 1), budget, search)
    return {"spark": k, "rows": m, "cols": n, "full_spark": n >= m and k == m + 1,
            "sentinel": k == n + 1, "witness": list(witness) if witness is not None else None,
            "checked_subsets": checked, "mode": "numeric", "budget": budget}


def _outcome(call):
    try:
        return ("ok", call())
    except BudgetExceeded as exc:
        return ("error", str(exc), exc.k_reached)


def _matrices():
    """Seeded real and complex matrices, wide and tall, with zero columns,
    near-parallel columns, near-combinations and entries near 1e300 or
    1e-300; the three tolerances below give some of them three sparks."""
    rng = np.random.default_rng(7)
    for _ in range(24):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 11))
        a = rng.standard_normal((m, n))
        if rng.random() < 0.5:
            a = a + 1j * rng.standard_normal((m, n))
        if n > 1:
            i, j = rng.choice(n, 2, replace=False)
            kind = int(rng.integers(4))
            if kind == 0:
                a[:, j] = 0.0
            elif kind == 1:
                a[:, j] = 3.0 * a[:, i] + 1e-7 * rng.standard_normal(m)
            elif kind == 2:
                a[:, j] = a[:, i] * (1 + 1e-13)
            else:
                a[:, j] = a[:, :j].sum(axis=1)  # the zero column when j = 0
        scale = rng.random()
        if scale < 0.2:
            a = a * 1e300
        elif scale < 0.4:  # columns 600 orders of magnitude apart
            a = a * np.where(rng.random(n) < 0.5, 1e300, 1e-300)
        yield a


def _budgets(m, n):
    """The default budget and, per level, its cumulative size and one less."""
    budgets, total = {DEFAULT_BUDGET}, 0
    for k in range(1, min(m, n) + 1):
        total += math.comb(n, k)
        budgets.update((total, total - 1))
    return sorted(budgets)


@pytest.mark.parametrize("block_entries", [None, 1 << 5])
@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
def test_block_probe_matches_the_per_subset_loop(monkeypatch, tol, block_entries):
    if block_entries is not None:  # many small blocks per level
        monkeypatch.setattr(spark_engine, "_BLOCK_ENTRIES", block_entries)
    seen = set()
    for a in _matrices():
        m, n = a.shape
        for budget in _budgets(m, n):
            want = _outcome(lambda: _per_subset_probe(a, tol, budget))
            got = _outcome(lambda: numeric_spark_probe(a, tol=tol, budget=budget).as_dict())
            assert got == want, (a, tol, budget)
            seen.add(want[0] if want[0] == "error" else want[1]["sentinel"])
    assert seen == {"error", True, False}  # budget exits, sentinels and witnesses


def test_block_probe_matches_across_doubling_blocks():
    """A 5 x 16 matrix whose only dependent 4-subset is the last one: level
    4 runs through blocks of 32, 64, ..., 1,024 subsets to its final row."""
    rng = np.random.default_rng(16)
    a = rng.standard_normal((5, 16))
    a[:, 15] = a[:, 12] - 2.0 * a[:, 13] + 0.5 * a[:, 14]
    want = _per_subset_probe(a, 1e-10, DEFAULT_BUDGET)
    assert want["spark"] == 4 and want["witness"] == [12, 13, 14, 15]
    assert want["checked_subsets"] == 16 + 120 + 560 + 1820
    assert numeric_spark_probe(a).as_dict() == want


@pytest.mark.parametrize("tol, want", [(1e-3, 2), (1e-4, 4)])
def test_tolerance_scales_with_the_rows_not_the_subset_size(tol, want):
    """Columns e1 and e1 + 7e-3 e2 of a 5-row matrix have singular values in
    the ratio about 3.5e-3: dependent at tol = 1e-3, whose threshold is
    5e-3 with the factor rows = 5 (2e-3 with the factor k = 2 would miss
    it), and independent at tol = 1e-4."""
    a = np.zeros((5, 3))
    a[0, :2] = 1.0
    a[1, 1], a[2, 2] = 7e-3, 1.0
    cert = numeric_spark_probe(a, tol=tol)
    assert cert.spark == want and cert.as_dict() == _per_subset_probe(a, tol, DEFAULT_BUDGET)
