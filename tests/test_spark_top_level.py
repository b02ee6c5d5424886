"""spark's top-level-first search against the plain ascending sweep.

spark searches its top size K = min(rows, cols) first when the whole sweep
fits the budget, and returns the sentinel-style answer K + 1 when no
K-subset is dependent.  The oracle here is the plain ascending sweep over
the same level search, _first_dependent(n, range(1, K + 1), budget,
_block_search(a)): the certificate JSON, or the BudgetExceeded message and
k_reached, must be the same at the budgets around the whole sweep's size
and at a small one.
The work-count tests pin down that a full-spark matrix stacks only its top
level and that a refuted one searches no level twice.
"""

import functools
import itertools
import math
import random

import pytest

from sparkforge import spark_engine
from sparkforge.exact_arith import ExactScalar
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix, rank_exact
from sparkforge.spark_engine import (
    SparkCertificate,
    _block_search,
    _root_images,
    spark,
)
from sparkforge.sweep import _first_dependent, _lex_rank

from test_spark_fp import _outcome, _random_scalar


def ascending(a):
    """The plain sweep as a function of the budget: levels 1, 2, ..., K in
    turn, each by _block_search, whose answer per level is kept across
    budgets (spark itself starts afresh on every call)."""
    m, n = a.rows, a.cols
    search = functools.cache(_block_search(a))

    def sweep(budget):
        k, witness, checked = _first_dependent(n, range(1, min(m, n) + 1), budget, search)
        return SparkCertificate(k, m, n, witness, checked, "exact", budget)

    return sweep


def _check(a):
    """spark and the oracle agree at budgets Σ - 1, Σ, Σ + 1 and a small
    one, Σ the whole sweep's size; returns the outcomes."""
    total = sum(math.comb(a.cols, k) for k in range(1, min(a.rows, a.cols) + 1))
    oracle = ascending(a)
    outcomes = []
    for budget in (total - 1, total, total + 1, min(a.cols, total - 1)):
        expected = _outcome(lambda: oracle(budget))
        assert _outcome(lambda: spark(a, budget)) == expected, (a.to_rows(), budget)
        outcomes.append(expected)
    return outcomes


def _random_integer(rng, m, n, height):
    rows = [[rng.randint(-height, height) for _ in range(n)] for _ in range(m)]
    shape = rng.random()
    if n > 1 and shape < 0.25:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    elif n > 1 and shape < 0.5:
        i, j = rng.sample(range(n), 2)
        for row in rows:
            row[j] = row[i]
    elif n > 2 and shape < 0.75:
        i, j, l = rng.sample(range(n), 3)
        s, t = rng.randint(1, height), -rng.randint(1, height)
        for row in rows:
            row[j] = s * row[i] + t * row[l]
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("height", [1, 2, 2**16, 2**128])
def test_integer_matrices_match_the_ascending_sweep(height):
    rng = random.Random(height)
    kinds = set()
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        for cert in _check(_random_integer(rng, m, n, height)):
            if isinstance(cert, dict):
                kinds.add(("tall" if m > n else "wide", cert["witness"] is None))
            else:
                kinds.add("budget")
    assert kinds >= {("tall", False), ("wide", False), ("wide", True), "budget"}


@pytest.mark.parametrize("m, n", [(0, 0), (0, 4), (3, 0), (2, 2), (4, 3)])
def test_empty_and_zero_matrices_match_the_ascending_sweep(m, n):
    _check(ExactMatrix(m, n, [0] * (m * n)))
    if m and n:
        _check(ExactMatrix(m, n, [0] * n * (m - 1) + list(range(1, n + 1))))


def test_zero_and_repeated_columns_match_the_ascending_sweep():
    vandermonde = [[b**i for b in range(1, 8)] for i in range(4)]
    for j in range(7):
        for repeat in range(7):
            rows = [row[:] for row in vandermonde]
            for row in rows:
                row[j] = 0 if repeat == j else row[repeat]
            _check(ExactMatrix.from_rows(rows))


def test_cyclotomic_matrices_with_denominators_match_the_ascending_sweep():
    rng = random.Random(7)
    witnessed = with_denominators = 0
    for _ in range(30):
        order = rng.choice([3, 5, 8, 12])
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        ents = [_random_scalar(rng, order, rng.choice([0, 3])) for _ in range(m * n)]
        ents[0] = ents[0] / ExactScalar.from_int(order, 2)
        if n > 1 and rng.random() < 0.5:
            # Column j is half column i, so some subset is dependent.
            i, j = rng.sample(range(n), 2)
            half = ExactScalar.from_int(order, 1) / ExactScalar.from_int(order, 2)
            for r in range(m):
                ents[r * n + j] = ents[r * n + i] * half
        a = ExactMatrix(m, n, ents, order)
        with_denominators += any(e.den != 1 for e in a.entries)
        witnessed += _check(a)[1]["witness"] is not None
    assert witnessed >= 5 and with_denominators == 30


@pytest.mark.parametrize("order", range(2, 13))
def test_every_dft_row_subset_matches_the_ascending_sweep(order):
    full = refuted = 0
    for size in range(1, order + 1):
        for rows in itertools.combinations(range(order), size):
            a = dft_submatrix(order, rows)
            assert spark_engine._dft_rows(a, spark_engine._root_exponents(a)) is True
            outcomes = _check(a)
            full += outcomes[1]["witness"] is None
            refuted += outcomes[1]["witness"] is not None
    assert full and (refuted or order in (2, 3, 5, 7, 11))


def _count_stacked(monkeypatch):
    """Record (k, subsets) per block the level search stacks mod the first prime."""
    p = _root_images(1, 0)[0]
    blocks = []
    vanishing = spark_engine._last_pivot_vanishes

    def counting(stack, q):
        if q == p:
            blocks.append((stack.shape[0], stack.shape[2]))
        return vanishing(stack, q)

    monkeypatch.setattr(spark_engine, "_last_pivot_vanishes", counting)
    return blocks


def _levels(blocks):
    """The levels in the order searched, with the subsets stacked in each run."""
    runs = []
    for k, count in blocks:
        if runs and runs[-1][0] == k:
            runs[-1][1] += count
        else:
            runs.append([k, count])
    return [tuple(run) for run in runs]


def _vandermonde(m, n):
    return [[b**i for b in range(1, n + 1)] for i in range(m)]


def test_full_spark_matrix_stacks_only_its_top_level(monkeypatch):
    blocks = _count_stacked(monkeypatch)
    cert = spark(ExactMatrix.from_rows(_vandermonde(5, 11)))
    assert cert.full_spark and cert.checked_subsets == sum(math.comb(11, k) for k in range(1, 6))
    assert _levels(blocks) == [(5, math.comb(11, 5))]


@pytest.mark.parametrize(
    "combine, spark_size",
    [
        ({7: (1, 4)}, 3),  # column 7 = column 1 + column 4
        ({10: (0, 1, 2, 3)}, 5),  # column 10 in the span of columns 0..3
    ],
)
def test_refuted_matrix_searches_no_level_twice(monkeypatch, combine, spark_size):
    rows = _vandermonde(5, 11)
    for j, parts in combine.items():
        for row in rows:
            row[j] = sum(row[i] for i in parts)
    a = ExactMatrix.from_rows(rows)
    top_witness = next(
        cols
        for cols in itertools.combinations(range(11), 5)
        if rank_exact(a.column_submatrix(cols)) < 5
    )
    blocks = _count_stacked(monkeypatch)
    cert = spark(a)
    # Level 5 up to its first dependent subset, then 1, 2, ... up to the
    # witness; level 5 is not searched again when the witness is there.
    levels = _levels(blocks)
    assert cert == ascending(a)(cert.budget) and cert.spark == spark_size
    assert [k for k, _ in levels] == [5, *range(1, min(spark_size, 4) + 1)]
    assert _lex_rank(11, top_witness) < levels[0][1] <= math.comb(11, 5)
    for k, count in levels[1:]:
        if k < spark_size:
            assert count == math.comb(11, k)
        else:
            assert _lex_rank(11, cert.witness) < count <= math.comb(11, k)
