"""spark's F_p level search against the per-subset exact sweep kept here.

The oracle is the sweep spark used to run: rank_exact on every column
subset, sizes 1, 2, ... in turn, each in lexicographic order, a size entered
only when its whole level fits in what is left of the budget.  The engine's
certificate, or its BudgetExceeded message and k_reached, must equal the
oracle's.  The tests also pin down that every rank deficiency mod p, and
only such a deficiency, reaches the norm-bound proof, and the rectangular
elimination kernel against a plain Gauss-Jordan rank mod p.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest

from sparkforge import spark_engine
from sparkforge.errors import BudgetExceeded
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix, rank_exact
from sparkforge.spark_engine import (
    DEFAULT_BUDGET,
    SparkCertificate,
    _modular_maps,
    _vanishing_mod_p,
    spark,
)


def oracle(a, budget=DEFAULT_BUDGET, dependent=None):
    """The per-subset rank_exact sweep: a certificate, or BudgetExceeded."""
    dependent = dependent or (lambda cols: rank_exact(a.column_submatrix(cols)) < len(cols))
    m, n = a.rows, a.cols
    checked = 0
    for k in range(1, min(m, n) + 1):
        level = math.comb(n, k)
        if checked + level > budget:
            raise BudgetExceeded(
                f"size-{k} level needs {level} more subsets, budget {budget}", k_reached=k
            )
        for cols in itertools.combinations(range(n), k):
            checked += 1
            if dependent(cols):
                return SparkCertificate(k, m, n, cols, checked, "exact", budget)
    return SparkCertificate(min(m, n) + 1, m, n, None, checked, "exact", budget)


def _outcome(call):
    try:
        return call().as_dict()
    except BudgetExceeded as exc:
        return (str(exc), exc.k_reached)


def _boundary_budgets(a):
    """The default budget and, per level, its cumulative size and one less."""
    budgets, total = {DEFAULT_BUDGET}, 0
    for k in range(1, min(a.rows, a.cols) + 1):
        total += math.comb(a.cols, k)
        budgets.update((total, total - 1))
    return sorted(budgets)


def _check_every_budget(a, dependent=None):
    """Engine and oracle agree at every level boundary; returns the outcomes."""
    outcomes = []
    for budget in _boundary_budgets(a):
        expected = _outcome(lambda: oracle(a, budget, dependent))
        assert _outcome(lambda: spark(a, budget)) == expected, (a.to_rows(), budget)
        outcomes.append(expected)
    return outcomes


# The rank of the DFT submatrix on rows R and columns C is that of rows
# u(R - s) and columns C for any shift s and unit u mod N: the shift scales
# column c by the unit w^(-s c), and u applies the field automorphism
# w -> w^u to every entry.  The same holds for the columns, and the DFT
# matrix is symmetric, so one rank_exact call decides every pair of affine
# classes and the orders up to 8 take seconds while every rank is exact.
def _affine_class(order, members):
    units = [u for u in range(1, order + 1) if math.gcd(u, order) == 1]
    return min(tuple(sorted(u * (x - s) % order for x in members)) for s in members for u in units)


@functools.lru_cache(maxsize=None)
def _dft_rank(order, rows, cols):
    return rank_exact(dft_submatrix(order, rows, cols))


def _dft_dependent(order, rows):
    row_class = _affine_class(order, rows)

    def dependent(cols):
        return _dft_rank(order, *sorted([row_class, _affine_class(order, cols)])) < len(cols)

    return dependent


@pytest.mark.parametrize("order", range(2, 9))
def test_every_dft_row_subset_matches_oracle(order):
    outcomes = set()
    for size in range(1, order + 1):
        for rows in itertools.combinations(range(order), size):
            a = dft_submatrix(order, rows)
            expected = oracle(a, dependent=_dft_dependent(order, rows))
            assert spark(a) == expected, (order, rows)
            outcomes.add(expected.witness is None)
    assert outcomes == ({True} if order in (2, 3, 5, 7) else {True, False})


def test_dft_level_boundaries_match_oracle():
    for order, rows in [(8, (0, 2, 4)), (9, (0, 3, 6)), (10, (0, 1, 3, 4)), (12, (0, 4, 8))]:
        outcomes = _check_every_budget(dft_submatrix(order, rows), _dft_dependent(order, rows))
        assert any(isinstance(o, tuple) for o in outcomes)


def _random_scalar(rng, order, zero_weight):
    coeffs = [rng.choice([0] * zero_weight + [-2, -1, 1, 3]) for _ in range(euler_phi(order))]
    return ExactScalar(CycInt(order, coeffs), rng.choice([1, 2, 3, 6]))


def test_random_cyclotomic_matrices_with_denominators():
    rng = random.Random(5)
    witness_sizes = set()
    for trial in range(40):
        order = rng.choice([3, 4, 5, 7, 8, 9, 12])
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        zero_weight = rng.choice([0, 3, 8])
        ents = [_random_scalar(rng, order, zero_weight) for _ in range(m * n)]
        if trial % 3 == 0 and n > 1:
            # Repeat a rescaled column, so some subset is exactly dependent.
            i, j = sorted(rng.sample(range(n), 2))
            factor = _random_scalar(rng, order, 0)
            if factor.is_zero():
                factor = ExactScalar.one(order)
            for r in range(m):
                ents[r * n + j] = ents[r * n + i] * factor
        a = ExactMatrix(m, n, ents, order)
        for outcome in _check_every_budget(a):
            if isinstance(outcome, dict):
                witness_sizes.add(outcome["witness"] and len(outcome["witness"]))
    assert {None, 1, 2} <= witness_sizes


def test_integer_entries_beyond_int64():
    rng = random.Random(13)
    witnessed = 0
    for trial in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-(2**70), 2**70) for _ in range(n)] for _ in range(m)]
        if trial % 2 and n > 2:
            # Column j is a combination of one other column (below three
            # rows) or two, with coefficients beyond 2^64.
            i, j, l = rng.sample(range(n), 3)
            s = rng.randint(2**64, 2**66)
            t = -rng.randint(2**64, 2**66) if m >= 3 else 0
            for row in rows:
                row[j] = s * row[i] + t * row[l]
        a = ExactMatrix.from_rows(rows)
        outcomes = _check_every_budget(a)
        witnessed += outcomes[-1]["witness"] is not None
    assert witnessed >= 5


def _scalars(order, rows):
    return ExactMatrix.from_rows(
        [[v if order == 1 else ExactScalar.from_int(order, v) for v in row] for row in rows]
    )


@pytest.mark.parametrize("order", [1, 5, 12])
def test_rank_deficient_mod_p_is_not_a_witness(order):
    p = _modular_maps(order)[0]
    # Column 0 vanishes mod p, and so do the minors 2p of (0, 1) and (0, 2);
    # only the equal columns (1, 2) are dependent.
    a = _scalars(order, [[p, 1, 1], [0, 2, 2]])
    cert = spark(a)
    assert (cert.spark, cert.witness, cert.checked_subsets) == (2, (1, 2), 6)
    assert cert == oracle(a)
    # The one 2 x 2 minor is p: rank 1 mod p, rank 2 exactly, so the sweep
    # goes on to the sentinel.
    a = _scalars(order, [[1, 1], [0, p]])
    cert = spark(a)
    assert cert.sentinel and cert.witness is None and cert.checked_subsets == 3
    assert cert == oracle(a)


def _rank_mod_p(rows, p):
    """Rank of integer rows mod p by Gauss-Jordan with modular inverses."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _count_proofs(monkeypatch):
    """Record, per call of the norm-bound proof, the integer columns it decides."""
    calls = []
    prove = spark_engine._dependent_by_norm

    def counting(coeffs, *args):
        calls.append(coeffs[:, :, 0].T.tolist())
        return prove(coeffs, *args)

    monkeypatch.setattr(spark_engine, "_dependent_by_norm", counting)
    return calls


def test_full_spark_matrices_never_call_rank_exact(monkeypatch):
    calls = _count_proofs(monkeypatch)
    monkeypatch.setattr(spark_engine, "rank_exact", None)  # any call would fail
    a = ExactMatrix.from_rows([[b**i for b in range(1, 11)] for i in range(4)])
    cert = spark(a)
    assert cert.full_spark and cert.checked_subsets == 385
    # Rows {0, 1, 3} of the prime-order DFT, full spark by Chebotarev.
    cert = spark(dft_submatrix(7, (0, 1, 3)))
    assert cert.full_spark and cert.checked_subsets == 7 + 21 + 35
    # w - g vanishes under the map w -> g alone: one image of full rank
    # proves a subset independent.
    g = int(_modular_maps(5)[1][0, 1])
    a = ExactMatrix(1, 2, [ExactScalar(CycInt(5, [-g, 1, 0, 0])), ExactScalar.one(5)], 5)
    assert spark(a).full_spark
    assert calls == []


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3, 3, 5], [1, 4, 9, 9, 25]],  # a repeated column
        [[_modular_maps(1)[0], 1, 1], [0, 2, 2]],  # two false alarms first
        [[1, 0, 1, 2], [0, 1, 1, 5], [1, 1, 2, 7]],  # rank 2
    ],
)
def test_refuted_spark_runs_the_norm_proof_once_per_deficient_candidate(monkeypatch, rows):
    p = _modular_maps(1)[0]
    columns = list(zip(*rows))
    cert = oracle(ExactMatrix.from_rows(rows))
    candidates = [
        cols
        for k in range(1, cert.spark + 1)
        for cols in itertools.combinations(range(len(columns)), k)
        if (k, cols) <= (cert.spark, cert.witness)
        and _rank_mod_p([columns[c] for c in cols], p) < k
    ]
    calls = _count_proofs(monkeypatch)
    assert spark(ExactMatrix.from_rows(rows)) == cert
    assert calls == [[[row[c] for c in cols] for row in rows] for cols in candidates]
    assert candidates[-1] == cert.witness


def test_refuted_dft_sweeps_make_no_q_w_inverse(monkeypatch):
    inverses = []
    invert = ExactScalar.inverse

    def counting(self):
        inverses.append(self)
        return invert(self)

    monkeypatch.setattr(ExactScalar, "inverse", counting)
    a = dft_submatrix(10, (0, 1, 3, 4))
    cert = spark_engine.is_full_spark(a)
    assert not cert.full_spark and cert.witness is not None
    assert spark(a).witness is not None
    assert inverses == []


def test_rectangular_kernel_matches_rank_mod_p():
    p = _modular_maps(1)[0]
    rng = random.Random(17)
    near_p = [0, 1, 2, p - 1, p - 2, (p - 1) // 2]
    flags = set()
    for _ in range(200):
        m = rng.randint(1, 6)
        k = rng.randint(1, m)
        batch = rng.randint(1, 8)
        mats = []
        for _ in range(batch):
            cols = [
                [rng.choice(near_p) if rng.random() < 0.5 else rng.randrange(p) for _ in range(m)]
                for _ in range(k)
            ]
            shape = rng.random()
            if shape < 0.2:
                cols[rng.randrange(k)] = [0] * m
            elif shape < 0.4 and k > 1:
                i, j = rng.sample(range(k), 2)
                cols[j] = list(cols[i])
            elif shape < 0.6 and k > 1:
                # A combination of two other columns, reduced mod p.
                i, j, s = *rng.sample(range(k), 2), rng.randrange(1, p)
                cols[j] = [(s * x + y) % p for x, y in zip(cols[i], cols[(i + 1) % k])]
            mats.append([list(r) for r in zip(*cols)])
        stack = np.array(mats, dtype=np.int64).reshape(batch, m, k)
        got = _vanishing_mod_p(stack.copy(), p)
        expected = [_rank_mod_p(rows, p) < k for rows in mats]
        assert got.tolist() == expected, mats
        flags.update(expected)
    assert flags == {True, False}
