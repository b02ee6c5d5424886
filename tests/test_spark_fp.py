"""spark's F_p level search against the per-subset exact sweep kept here.

The oracle is the sweep spark used to run: rank_exact on every column
subset, sizes 1, 2, ... in turn, each in lexicographic order, a size entered
only when its whole level fits in what is left of the budget.  The engine's
certificate, or its BudgetExceeded message and k_reached, must equal the
oracle's.  The tests also pin down that every rank deficiency mod p, and
only such a deficiency, reaches the norm-bound proof, and both elimination
kernels, with pivoting and without row exchanges, against a plain
Gauss-Jordan rank mod p.
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
    _last_pivot_vanishes,
    _mulmod,
    _root_images,
    _row_mixing,
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
    p = _root_images(order, 0)[0]
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
    """Record, per call of the norm-bound proof, the integer columns it
    decides, or the exponents of the roots of unity it is given."""
    calls = []
    prove = spark_engine._dependent_by_norm

    def counting(order, columns):
        calls.append((columns[:, :, 0] if columns.dtype == object else columns).T.tolist())
        return prove(order, columns)

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
    assert calls == []


def test_a_flag_under_the_first_map_alone_is_decided_by_the_proof(monkeypatch):
    """w - g vanishes under the first map w -> g alone.  The block search
    flags it there, and the norm-bound proof, which checks every map of the
    first prime, finds an image of full rank: independent, once."""
    calls = _count_proofs(monkeypatch)
    g = int(_root_images(5, 0)[1][0, 1])
    a = ExactMatrix(1, 2, [ExactScalar(CycInt(5, [-g, 1, 0, 0])), ExactScalar.one(5)], 5)
    assert spark(a).full_spark
    assert calls == [[[-g]]]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3, 3, 5], [1, 4, 9, 9, 25]],  # a repeated column
        [[_root_images(1, 0)[0], 1, 1], [0, 2, 2]],  # two false alarms first
        [[1, 0, 1, 2], [0, 1, 1, 5], [1, 1, 2, 7]],  # rank 2
        [[1, 2, 2, 3, 5], [1, 4, 4, 9, 25], [1, 8, 8, 27, 125]],  # spark 2 below K = 3
    ],
)
def test_refuted_spark_runs_the_norm_proof_once_per_deficient_candidate(monkeypatch, rows):
    """spark searches level K = min(rows, cols) first, up to its first
    dependent subset, then levels 1, 2, ... up to the witness, with level
    K's result kept: every deficient candidate is proved once, in that order."""
    p = _root_images(1, 0)[0]
    a = ExactMatrix.from_rows(rows)
    columns = list(zip(*rows))
    top = min(len(rows), len(columns))
    cert = oracle(a)

    def deficient(cols):
        return _rank_mod_p([columns[c] for c in cols], p) < len(cols)

    top_level = list(itertools.combinations(range(len(columns)), top))
    first = next(i for i, cols in enumerate(top_level) if rank_exact(a.column_submatrix(cols)) < top)
    candidates = [cols for cols in top_level[: first + 1] if deficient(cols)] + [
        cols
        for k in range(1, min(cert.spark, top - 1) + 1)
        for cols in itertools.combinations(range(len(columns)), k)
        if (k, cols) <= (cert.spark, cert.witness) and deficient(cols)
    ]
    calls = _count_proofs(monkeypatch)
    assert spark(a) == cert
    assert calls == [[[row[c] for c in cols] for row in rows] for cols in candidates]
    assert len(set(candidates)) == len(candidates) and cert.witness in candidates


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


def _kernel_cases(seed):
    """Batches of m x k matrices mod p (k <= m) as lists of rows, with
    entries near 0 and p and zero, repeated and combined columns."""
    p = _root_images(1, 0)[0]
    rng = random.Random(seed)
    near_p = [0, 1, 2, p - 1, p - 2, (p - 1) // 2]
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
        yield m, k, mats


def test_rectangular_kernel_matches_rank_mod_p():
    p = _root_images(1, 0)[0]
    flags = set()
    for m, k, mats in _kernel_cases(17):
        stack = np.array(mats, dtype=np.int64).reshape(len(mats), m, k)
        got = _vanishing_mod_p(stack.copy(), p)
        expected = [_rank_mod_p(rows, p) < k for rows in mats]
        assert got.tolist() == expected, mats
        flags.update(expected)
    assert flags == {True, False}


def test_block_kernel_flags_every_deficient_image():
    """The kernel without row exchanges on R_k A, R the seeded mixing,
    against the rank of A mod p."""
    p = _root_images(1, 0)[0]
    flags = set()
    for m, k, mats in _kernel_cases(17):
        # The block search takes the first k rows of the mixing it draws for
        # min(rows, cols) rows.
        assert (_row_mixing(m, m, p)[:k] == _row_mixing(k, m, p)).all()
        # The batch on the axis of the maps: (batch, k columns, m rows),
        # mixed to (batch, k columns, k rows) and stacked as (k rows, k columns, batch).
        images = np.array(mats, dtype=np.int64).reshape(len(mats), m, k).swapaxes(1, 2)
        flagged = _last_pivot_vanishes(_mulmod(images, _row_mixing(k, m, p).T, p).T, p).tolist()
        ranks = [_rank_mod_p(rows, p) for rows in mats]
        assert all(f for f, r in zip(flagged, ranks) if r < k), mats
        assert all(r == k for f, r in zip(flagged, ranks) if not f), mats
        # Under the seeded mixing this sample meets no false flag.
        assert flagged == [r < k for r in ranks], mats
        flags.update(flagged)
    assert flags == {True, False}


def test_mixing_stays_exact_past_2_16_rows():
    p = _root_images(1, 0)[0]
    m = (1 << 16) + 3
    images = np.full((1, 1, m), p - 1, dtype=np.int64)
    want = sum(_row_mixing(1, m, p)[0].tolist()) * (p - 1) % p
    assert _mulmod(images, _row_mixing(1, m, p).T, p).tolist() == [[[want]]]
    a = ExactMatrix.from_rows([[1, i % 2] for i in range(m)])
    cert = spark(a)
    assert cert.sentinel and cert.checked_subsets == 3


def test_blocks_stack_up_to_block_entries_at_every_size(monkeypatch):
    """A block of a size-k level stacks k^2 entries per subset, one k x k
    image under the first map, up to _BLOCK_ENTRIES in all, however many
    more rows than k the matrix has and whatever phi is."""
    entries = 1 << 5
    shapes = []
    kernel = spark_engine._last_pivot_vanishes

    def recording(stack, p):
        shapes.append(stack.shape)
        return kernel(stack, p)

    monkeypatch.setattr(spark_engine, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(spark_engine, "_last_pivot_vanishes", recording)
    for a in (
        ExactMatrix.from_rows([[b**i for b in range(1, 17)] for i in range(6)]),  # phi = 1
        dft_submatrix(7, (0, 1, 3, 5, 6), range(6)),  # phi = 6, the plain sweep
    ):
        search = spark_engine._block_search(a)
        for k in (2, 3):
            shapes.clear()
            assert search(k) is None
            per_subset = k * k
            stacked = [math.prod(shape) for shape in shapes]
            assert all(shape[:2] == (k, k) for shape in shapes)
            assert sum(stacked) == math.comb(a.cols, k) * per_subset
            assert max(stacked) == entries // per_subset * per_subset


def test_zero_mixing_flags_every_subset_and_changes_no_certificate(monkeypatch):
    """With R = 0 every subset reaches _dependent_by_norm, whose own
    elimination mod the first prime then decides it."""
    mats = [
        ExactMatrix.from_rows([[b**i for b in range(1, 7)] for i in range(3)]),
        ExactMatrix.from_rows([[1, 2, 3, 3, 5], [1, 4, 9, 9, 25]]),  # a repeated column
        dft_submatrix(7, (0, 1, 3)).column_submatrix(range(6)),  # Z[w], the plain sweep
        dft_submatrix(10, (0, 1, 3, 4)),  # DFT rows, the orbit sweep, refuted
        dft_submatrix(13, (0, 1, 2, 3)),  # the orbit sweep, full spark
    ]
    want = [(spark(a), spark_engine.is_full_spark(a)) for a in mats]
    flags = []
    kernel = spark_engine._last_pivot_vanishes

    def recording(stack, p):
        flagged = kernel(stack, p)
        flags.extend(flagged.tolist())
        return flagged

    monkeypatch.setattr(spark_engine, "_row_mixing", lambda k, m, p: np.zeros((k, m), np.int64))
    monkeypatch.setattr(spark_engine, "_last_pivot_vanishes", recording)
    assert [(spark(a), spark_engine.is_full_spark(a)) for a in mats] == want
    assert flags and all(flags)
