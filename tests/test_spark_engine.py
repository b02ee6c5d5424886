"""Spark certificates: exact sweeps, numeric screens, compressed probes."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest

from sparkforge import (
    compressed_spark_probe,
    det_exact,
    dft_submatrix,
    is_full_spark,
    numeric_spark_probe,
    parseval_projection,
    rank_exact,
    spark,
    vandermonde,
)
from sparkforge.exact_arith import ExactScalar
from sparkforge.exact_linalg import ExactMatrix
from sparkforge.sweep import _lex_rank
from sparkforge.errors import (
    BudgetExceeded,
    CapExceeded,
    NonFiniteEntry,
    ShapeError,
)


def _int_matrix(rng, rows, cols, lo=-9, hi=9):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_lex_rank_is_the_enumeration_index():
    for n in range(11):
        for k in range(n + 1):
            for index, combo in enumerate(itertools.combinations(range(n), k)):
                assert _lex_rank(n, combo) == index, (n, combo)


def test_spark_dft_rows_0_2():
    cert = spark(dft_submatrix(4, (0, 2)))
    assert cert.spark == 2
    assert cert.witness == (0, 2)
    assert cert.mode == "exact"
    assert not cert.full_spark


def test_spark_zero_column():
    m = ExactMatrix.from_rows([[1, 0, 2], [3, 0, 4]])
    cert = spark(m)
    assert cert.spark == 1
    assert cert.witness == (1,)


def test_spark_distinct_vandermonde_is_full():
    m = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]])
    cert = spark(m)
    assert cert.spark == 3
    assert cert.full_spark
    assert cert.witness is None
    assert not cert.sentinel


def test_spark_of_zero_matrix_is_one():
    # A zero column is a dependent singleton, as the numeric probe says too.
    for a in (
        ExactMatrix.from_rows([[0, 0], [0, 0]]),
        ExactMatrix(2, 3, [ExactScalar.zero(5)] * 6),
    ):
        cert = spark(a)
        assert (cert.spark, cert.witness, cert.checked_subsets) == (1, (0,), 1)
        probe = numeric_spark_probe(np.zeros((a.rows, a.cols)))
        assert (probe.spark, probe.witness, probe.checked_subsets) == (1, (0,), 1)


def test_spark_budget_reports_k_reached():
    m = ExactMatrix.from_rows([[1, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]])
    with pytest.raises(BudgetExceeded) as info:
        spark(m, budget=5)
    assert info.value.k_reached == 1


def test_spark_sentinel_for_independent_columns():
    tall = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    cert = spark(tall)
    assert cert.spark == 3
    assert cert.sentinel
    assert cert.witness is None


def test_full_spark_dft_prefix_rows():
    cert = is_full_spark(dft_submatrix(5, (0, 1, 2)))
    assert cert.full_spark
    assert cert.spark == 4
    assert cert.checked_subsets == math.comb(5, 3)


def test_full_spark_identity():
    cert = is_full_spark(ExactMatrix.identity(2))
    assert cert.full_spark


def test_singular_dft10_submatrix():
    # Uniformly distributed rows, yet one 4x4 minor vanishes.
    square = dft_submatrix(10, (0, 1, 3, 4), (0, 1, 2, 6))
    assert det_exact(square).is_zero()
    cert = is_full_spark(square)
    assert not cert.full_spark
    assert cert.witness == (0, 1, 2, 3)


def test_full_spark_witness_on_wide_matrix():
    wide = dft_submatrix(10, (0, 1, 3, 4))
    cert = is_full_spark(wide)
    assert not cert.full_spark
    assert cert.witness == (0, 1, 2, 6)
    assert cert.spark == 4


def test_full_spark_shape_error():
    tall = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ShapeError):
        is_full_spark(tall)


def test_full_spark_budget():
    wide = dft_submatrix(10, (0, 1, 3, 4))
    with pytest.raises(BudgetExceeded):
        is_full_spark(wide, budget=10)


def test_parallel_sweep_matches_sequential():
    bases = list(range(1, 16))
    rows = [[b**p for b in bases] for p in range(5)]
    clean = ExactMatrix.from_rows(rows)
    seq = is_full_spark(clean, threads=1)
    par = is_full_spark(clean, threads=2)
    assert seq == par
    assert seq.sentinel is False and seq.full_spark

    dup = [list(r) for r in rows]
    for r in dup:
        r[9] = r[2]
    broken = ExactMatrix.from_rows(dup)
    seq = is_full_spark(broken, threads=1)
    par = is_full_spark(broken, threads=2)
    assert seq == par
    assert seq.witness == (0, 1, 2, 3, 9)


def test_chebotarev_prime_orders(dft_status):
    # Every nonempty row subset of a prime-order DFT is full spark.
    for order in (2, 3, 5, 7):
        status = dft_status(order)
        assert len(status) == 2**order - 1
        assert all(status.values())


def test_complement_duality(dft_status):
    for order in (6, 8):
        status = dft_status(order)
        for rows, ok in status.items():
            if len(rows) == order:
                continue
            comp = tuple(sorted(set(range(order)) - set(rows)))
            assert ok == status[comp], f"duality broke at N={order}, rows={rows}"


def test_spark_column_permutation_invariance():
    rng = random.Random(66)
    for _ in range(20):
        m = rng.randint(2, 3)
        n = rng.randint(m, m + 3)
        a = _int_matrix(rng, m, n, lo=-3, hi=3)
        if a.is_zero():
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = ExactMatrix.from_rows(
            [[row[j] for j in perm] for row in a.to_rows()]
        )
        assert spark(shuffled).spark == spark(a).spark


def test_spark_invertible_row_map_invariance():
    rng = random.Random(77)
    done = 0
    while done < 20:
        a = _int_matrix(rng, 3, 5, lo=-3, hi=3)
        if a.is_zero():
            continue
        t = _int_matrix(rng, 3, 3, lo=-2, hi=2)
        if det_exact(t).is_zero():
            continue
        assert spark(t @ a).spark == spark(a).spark
        done += 1


def test_witness_reverifies_as_rank_deficient():
    cases = [
        dft_submatrix(4, (0, 2)),
        ExactMatrix.from_rows([[1, 2, 3, 5], [2, 4, 6, 7]]),
        dft_submatrix(10, (0, 1, 3, 4)),
    ]
    for a in cases:
        cert = spark(a)
        assert cert.witness is not None
        sub = a.column_submatrix(cert.witness)
        assert rank_exact(sub) < len(cert.witness)
        for smaller in itertools.combinations(cert.witness, len(cert.witness) - 1):
            assert rank_exact(a.column_submatrix(smaller)) == len(smaller)


def test_spark_and_full_spark_agree():
    rng = random.Random(88)
    for _ in range(25):
        m = rng.randint(2, 3)
        n = rng.randint(m, m + 2)
        a = _int_matrix(rng, m, n, lo=-2, hi=2)
        if a.is_zero():
            continue
        full = is_full_spark(a).full_spark
        assert full == (spark(a).spark == m + 1)


def test_numeric_probe_equal_columns():
    f = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]])
    cert = numeric_spark_probe(f)
    assert cert.spark == 2
    assert cert.witness == (0, 1)
    assert cert.mode == "numeric"


def test_numeric_probe_matches_exact_on_integer_samples():
    # Gaussian draws rounded to integers: the exact spark of the integer
    # matrix is the oracle for the float screen.
    rng = np.random.default_rng(99)
    for _ in range(50):
        ints = rng.integers(-40, 41, size=(3, 6))
        while not ints.any(axis=0).all():
            ints = rng.integers(-40, 41, size=(3, 6))
        exact = spark(ExactMatrix.from_rows([[int(x) for x in row] for row in ints]))
        screen = numeric_spark_probe(ints.astype(float))
        assert screen.spark == exact.spark


def test_numeric_probe_gaussian_3x6_full_spark():
    rng = np.random.default_rng(123)
    cert = numeric_spark_probe(rng.standard_normal((3, 6)))
    assert cert.spark == 4


def test_numeric_probe_parseval_projection():
    f = vandermonde(range(1, 8), 3)
    g = parseval_projection(f)
    assert numeric_spark_probe(g).spark == 4


def test_numeric_probe_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteEntry):
        numeric_spark_probe(bad)


def test_compressed_probe_full_spark_true():
    f = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]])
    assert spark(f).spark == 4
    result = compressed_spark_probe(f, k=3, trials=10, rng_seed=5)
    assert result.exceeds_k
    assert bool(result)
    assert result.failing_trial is None


def test_compressed_probe_equal_columns_false():
    f = ExactMatrix.from_rows([[1, 1, 2], [3, 3, 5], [0, 0, 7]])
    result = compressed_spark_probe(f, k=2, trials=4, rng_seed=11)
    assert not result.exceeds_k
    assert result.failing_trial is not None
    # The candidate dependence is real in F itself.
    sub = f.column_submatrix(result.candidate_columns)
    assert rank_exact(sub) < len(result.candidate_columns)


def test_compressed_probe_vandermonde_bases_true():
    f = ExactMatrix.from_rows([[b**p for b in range(1, 6)] for p in range(3)])
    result = compressed_spark_probe(f, k=3, trials=10, rng_seed=13)
    assert result.exceeds_k


def test_compressed_probe_cap_behavior():
    f = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]])
    with pytest.raises(CapExceeded):
        compressed_spark_probe(f, k=3, trials=2, rng_seed=1, p_cap=100, allow_cap=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = compressed_spark_probe(
            f, k=3, trials=2, rng_seed=1, p_cap=100, allow_cap=True
        )
    assert result.capped
    assert result.p == 100
    assert caught == []  # the result is the one record of the cap
