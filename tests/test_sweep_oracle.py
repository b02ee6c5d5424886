"""Subset sweeps and echelons against oracles that share no code with them.

spark, numeric_spark_probe and hall_girth all promise the same sweep: sizes
1, 2, ... in turn, each in lexicographic column order, a size entered only
when its whole level fits in what is left of the budget.  The oracle here
walks that order with Fraction elimination (or plain neighbourhood unions)
and predicts the certificate or the BudgetExceeded, message and k_reached
included, at the default budget and at both sides of every level boundary.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sparkforge import (
    DEFAULT_BUDGET,
    BipartiteGraph,
    ExactMatrix,
    ExactScalar,
    SimpleGraph,
    clique_gadget,
    det_exact,
    hall_girth,
    numeric_spark_probe,
    rank_exact,
    spark,
)
from sparkforge.errors import BudgetExceeded


def _fraction_rank(columns):
    """Rank of the given integer columns by Gauss over Fraction."""
    rows = [[Fraction(v) for v in row] for row in zip(*columns)]
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction_det(rows):
    """Determinant of square integer rows by Gauss over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _oracle(n, max_k, budget, dependent):
    """(answer, witness, checked) of the size-then-lex sweep, or the error.

    The error is returned as (message, k_reached) so that a test can compare
    it with what the library raised.
    """
    checked = 0
    for k in range(1, max_k + 1):
        level = math.comb(n, k)
        if checked + level > budget:
            return ("error", f"size-{k} level needs {level} more subsets, budget {budget}", k)
        for cols in itertools.combinations(range(n), k):
            checked += 1
            if dependent(cols):
                return ("ok", k, cols, checked)
    return ("ok", max_k + 1, None, checked)


def _outcome(call):
    try:
        result = call()
    except BudgetExceeded as exc:
        return ("error", str(exc), exc.k_reached)
    return ("ok", *result)


def _boundary_budgets(n, max_k):
    """The default budget and, per level, its cumulative size and one less."""
    budgets = {DEFAULT_BUDGET}
    total = 0
    for k in range(1, max_k + 1):
        total += math.comb(n, k)
        budgets.update((total, total - 1))
    return sorted(budgets)


def _random_int_matrix(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    entries = [rng.choice((-2, -1, 0, 0, 0, 1, 1, 2)) for _ in range(m * n)]
    if not any(entries):
        entries[rng.randrange(m * n)] = 1
    return m, n, entries


def _int_columns(m, n, entries):
    return [[entries[i * n + j] for i in range(m)] for j in range(n)]


@pytest.mark.parametrize(
    "engine, mode, build",
    [
        (spark, "exact", lambda m, n, entries: ExactMatrix(m, n, entries)),
        # Small integer entries: the probe's singular value decisions are
        # exact at the default tolerance, so the exact oracle predicts it.
        (numeric_spark_probe, "numeric",
         lambda m, n, entries: np.array(entries, dtype=float).reshape(m, n)),
    ],
)
def test_spark_engines_match_fraction_oracle_at_every_level_boundary(engine, mode, build):
    rng = random.Random(20110)
    seen = set()
    for _ in range(50):
        m, n, entries = _random_int_matrix(rng)
        columns = _int_columns(m, n, entries)
        a = build(m, n, entries)

        def dependent(cols):
            return _fraction_rank([columns[c] for c in cols]) < len(cols)

        for budget in _boundary_budgets(n, min(m, n)):
            expected = _oracle(n, min(m, n), budget, dependent)

            def run():
                cert = engine(a, budget=budget)
                assert (cert.rows, cert.cols, cert.mode, cert.budget) == (m, n, mode, budget)
                return cert.spark, cert.witness, cert.checked_subsets

            assert _outcome(run) == expected, (m, n, entries, budget)
            seen.add("error" if expected[0] == "error" else expected[2] is None)
    assert seen == {"error", True, False}  # refusals, sentinels and witnesses


def test_hall_girth_matches_union_oracle_at_every_level_boundary():
    rng = random.Random(20112)
    graphs = [BipartiteGraph(0, 0, ()), BipartiteGraph(2, 0, ((), ()))]
    for _ in range(60):
        ground, right = rng.randint(1, 7), rng.randint(1, 5)
        adj = tuple(
            tuple(rng.sample(range(right), rng.randint(0, min(right, 3))))
            for _ in range(ground)
        )
        graphs.append(BipartiteGraph(ground, right, adj))
    k4_girths = {}
    # 4-clique gadgets (more elements than right vertices), with and without
    # a K4: a graph on two colour classes has no triangle, let alone a K4.
    for vertices in (6, 7, 8):
        pairs = list(itertools.combinations(range(vertices), 2))
        split = list(itertools.product(range(0, vertices, 2), range(1, vertices, 2)))
        k4 = list(itertools.combinations(sorted(rng.sample(range(vertices), 4)), 2))
        others = rng.sample([p for p in pairs if p not in k4], vertices - 1)
        for edges, has_k4 in ((rng.sample(split, vertices + 3), False), (k4 + others, True)):
            gadget = clique_gadget(SimpleGraph(vertices, tuple(edges)), 4)
            assert gadget.ground_size > gadget.right_size
            graphs.append(gadget)
            k4_girths[gadget] = has_k4
    # Free matroids whose ground set fits into the right side: a matching, a
    # path, and one vertex per element, where the search prunes nothing.
    for n in (1, 4, 7, 10):
        graphs.append(BipartiteGraph(n, 2 * n, tuple((2 * e, 2 * e + 1) for e in range(n))))
        graphs.append(BipartiteGraph(n, n + 1, tuple((e, e + 1) for e in range(n))))
        graphs.append(BipartiteGraph(n, n, tuple((e,) for e in range(n))))
    for g in graphs:
        n = g.ground_size

        def dependent(cols):
            return len(set().union(*(g.adj[c] for c in cols))) < len(cols)

        for budget in _boundary_budgets(n, n):
            expected = _oracle(n, n, budget, dependent)
            if expected[0] == "ok":
                expected = expected[:3]  # GirthResult does not count subsets

            def run():
                res = hall_girth(g, budget=budget)
                assert (res.ground_size, res.method, res.trials, res.seed) == (
                    n, "hall_oracle", None, None,
                )
                return res.girth, res.witness

            assert _outcome(run) == expected, (g, budget)
            if budget == DEFAULT_BUDGET and g in k4_girths:
                assert (expected[1] == 6) == k4_girths[g], g  # girth 6 is a K4


def _embedded(a, order):
    """The integer matrix a with every entry read in Q(w_order)."""
    return ExactMatrix(
        a.rows, a.cols, [ExactScalar.from_int(order, v) for v in a.entries], order
    )


def _singular_with_gap(rng, side, gap):
    """side x side integer matrix whose elimination first lacks a pivot at gap.

    Columns before gap are random (independent with overwhelming
    probability, checked below); column gap is an integer combination of
    them, or zero when gap is 0.
    """
    cols = [[rng.randint(-5, 5) for _ in range(side)] for _ in range(side)]
    weights = [rng.randint(-3, 3) for _ in range(gap)]
    cols[gap] = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(side)]
    assert _fraction_rank(cols[:gap]) == gap
    return ExactMatrix(side, side, [cols[j][i] for i in range(side) for j in range(side)])


@pytest.mark.parametrize("order", [3, 7, 12])
def test_integer_and_cyclotomic_echelons_agree(order):
    rng = random.Random(order)
    for side in range(0, 6):
        mats = [
            ExactMatrix(side, side, [rng.randint(-6, 6) for _ in range(side * side)])
            for _ in range(4)
        ]
        for gap in range(side):  # first pivotless column at 0, in the middle, at the end
            mats.append(_singular_with_gap(rng, side, gap))
        for a in mats:
            det_int = det_exact(a)
            det_cyc = det_exact(_embedded(a, order))
            columns = _int_columns(a.rows, a.cols, a.entries)
            value = det_int.num.coeffs[0]
            assert det_int.den == 1 and value == _fraction_det(a.to_rows())
            assert det_cyc == ExactScalar.from_int(order, value)
            assert rank_exact(a) == rank_exact(_embedded(a, order)) == _fraction_rank(columns)
    for rows, cols in [(2, 5), (5, 2), (3, 4), (4, 3)]:
        for _ in range(6):
            a = ExactMatrix(rows, cols, [rng.choice((-1, 0, 0, 1, 2)) for _ in range(rows * cols)])
            columns = _int_columns(rows, cols, a.entries)
            assert rank_exact(a) == rank_exact(_embedded(a, order)) == _fraction_rank(columns)

