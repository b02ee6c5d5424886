"""The full-spark engine against an exact oracle kept in this file.

The oracle is the plain sweep: det_exact on every maximal minor, in
lexicographic column order, stopping at the first zero.  Every field of the
engine's certificate must equal the one the oracle implies.
"""

import functools
import itertools
import math
import random

import pytest

from sparkforge.errors import BudgetExceeded, ShapeError
from sparkforge.exact_arith import CycInt, ExactScalar, cyclotomic_poly, euler_phi, is_prime
from sparkforge.exact_linalg import ExactMatrix, det_exact, dft_submatrix
from sparkforge.spark_engine import SparkCertificate, _PRIME_FLOOR, _root_images, is_full_spark


def oracle(a, budget=10**6, is_zero=None):
    m, n = a.rows, a.cols
    is_zero = is_zero or (lambda cols: det_exact(a.column_submatrix(cols)).is_zero())
    for idx, cols in enumerate(itertools.combinations(range(n), m)):
        if is_zero(cols):
            return SparkCertificate(m, m, n, cols, idx + 1, "exact", budget)
    return SparkCertificate(m + 1, m, n, None, math.comb(n, m), "exact", budget)


def _shift_class(order, members):
    return min(tuple(sorted((x - s) % order for x in members)) for s in members)


# A DFT minor vanishes with every minor whose rows and columns are shifts of
# its own mod N: shifting rows by s and columns by t multiplies row i by
# w^(r_i t), column j by w^(s c_j) and every entry by w^(s t), all units.  It
# also vanishes with its transpose, the DFT matrix being symmetric.  So one
# det_exact call decides a whole class, and the orders up to 10 take seconds
# rather than minutes while every verdict still comes from det_exact.
@functools.lru_cache(maxsize=None)
def _dft_minor_is_zero(order, rows, cols):
    return det_exact(dft_submatrix(order, rows, cols)).is_zero()


def _dft_oracle(order, rows):
    row_class = _shift_class(order, rows)

    def is_zero(cols):
        return _dft_minor_is_zero(order, *sorted([row_class, _shift_class(order, cols)]))

    return oracle(dft_submatrix(order, rows), is_zero=is_zero)


@pytest.mark.parametrize("order", range(2, 11))
def test_every_dft_row_subset_matches_oracle(order):
    for size in range(1, order + 1):
        for rows in itertools.combinations(range(order), size):
            got = is_full_spark(dft_submatrix(order, rows))
            assert got == _dft_oracle(order, rows), (order, rows)


def _random_scalar(rng, order, zero_weight):
    coeffs = [rng.choice([0] * zero_weight + [-2, -1, 1, 3]) for _ in range(euler_phi(order))]
    return ExactScalar(CycInt(order, coeffs), rng.choice([1, 2, 3, 6]))


def test_random_cyclotomic_matrices_with_denominators():
    rng = random.Random(7)
    outcomes = set()
    for trial in range(60):
        order = rng.choice([3, 4, 5, 7, 8, 9, 12])
        m = rng.randint(1, 3)
        n = rng.randint(m, m + 3)
        zero_weight = rng.choice([0, 3, 8])
        ents = [_random_scalar(rng, order, zero_weight) for _ in range(m * n)]
        if trial % 3 == 0 and n > 1:
            # Repeat a rescaled column, so some minor vanishes exactly.
            i, j = sorted(rng.sample(range(n), 2))
            factor = _random_scalar(rng, order, 0)
            if factor.is_zero():
                factor = ExactScalar.one(order)
            for r in range(m):
                ents[r * n + j] = ents[r * n + i] * factor
        a = ExactMatrix(m, n, ents, order)
        expected = oracle(a)
        assert is_full_spark(a) == expected, (order, a.to_rows())
        outcomes.add(expected.full_spark)
    assert outcomes == {True, False}


def test_integer_entries_beyond_int64():
    rng = random.Random(11)
    for trial in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(m, m + 4)
        rows = [[rng.randint(-(2**70), 2**70) for _ in range(n)] for _ in range(m)]
        if trial % 2 and n > 1:
            i, j = sorted(rng.sample(range(n), 2))
            k = rng.randint(2**64, 2**66)
            for row in rows:
                row[j] = k * row[i]
        a = ExactMatrix.from_rows(rows)
        assert is_full_spark(a) == oracle(a), rows


def test_witness_after_several_blocks():
    # Columns (1, b) on distinct bases, the last one repeated: the only
    # vanishing minor is the last subset of the sweep, six blocks in.
    bases = list(range(1, 60)) + [59]
    a = ExactMatrix.from_rows([[1] * len(bases), bases])
    cert = is_full_spark(a)
    assert cert == oracle(a)
    assert cert.witness == (58, 59) and cert.checked_subsets == math.comb(60, 2)


@pytest.mark.parametrize("order", [1, 5, 12])
def test_minor_divisible_by_the_prime_is_not_a_witness(order):
    p = _root_images(order, 0)[0]

    def scalar(v):
        return v if order == 1 else ExactScalar.from_int(order, v)

    # The minors p and 1 of [[p, 1]]: p vanishes mod p but not exactly.
    a = ExactMatrix.from_rows([[scalar(p), scalar(1)]])
    cert = is_full_spark(a)
    assert cert.full_spark and cert == oracle(a)
    # Three minors divisible by p come before the true witness (2, 3).
    rows = [[p, 0, 1, 1], [0, 1, 1, 1]]
    a = ExactMatrix.from_rows([[scalar(v) for v in row] for row in rows])
    cert = is_full_spark(a)
    assert cert.witness == (2, 3) and cert.checked_subsets == 6
    assert cert == oracle(a)


@pytest.mark.parametrize("order", [1, 2, 5, 12, 16, 25, 97, 211, 1009])
def test_modular_maps_are_the_ring_maps(order):
    p, table = _root_images(order, 0)
    w = table[:, : euler_phi(order)]  # the images of the power basis
    assert _PRIME_FLOOR < p < 2 * _PRIME_FLOOR and (p - 1) % order == 0 and is_prime(p)
    assert w.shape == (euler_phi(order), euler_phi(order))
    # Row k is the power basis at a root g of the order-th cyclotomic
    # polynomial mod p, so it is a ring map Z[w] -> F_p; the roots differ.
    roots = [int(row[1]) if len(row) > 1 else (1 if order == 1 else p - 1) for row in w]
    assert len(set(roots)) == len(roots)
    # Every entry of the smaller tables; seeded spot checks of the larger.
    rng = random.Random(order)
    phi = len(roots)
    for k in range(phi) if phi <= 96 else rng.sample(range(phi), 6):
        g = roots[k]
        assert sum(c * pow(g, i, p) for i, c in enumerate(cyclotomic_poly(order))) % p == 0
        picked = range(phi) if phi <= 96 else rng.sample(range(phi), 40) + [phi - 1]
        assert [int(w[k, i]) for i in picked] == [pow(g, i, p) for i in picked]


def test_edge_shapes_and_errors():
    one_row = dft_submatrix(7, (2,))
    assert is_full_spark(one_row) == oracle(one_row)
    square = dft_submatrix(8, range(8))
    assert is_full_spark(square) == oracle(square)
    assert is_full_spark(square).checked_subsets == 1
    empty = ExactMatrix(0, 3, [])
    assert is_full_spark(empty) == oracle(empty)
    zero_col = ExactMatrix.from_rows([[0, 1, 2], [0, 3, 5]])
    assert is_full_spark(zero_col) == oracle(zero_col)

    wide = dft_submatrix(10, (0, 1, 3, 4))
    assert is_full_spark(wide, budget=210) == oracle(wide, budget=210)
    with pytest.raises(BudgetExceeded) as exc:
        is_full_spark(wide, budget=209)
    assert exc.value.k_reached == 4
    with pytest.raises(ShapeError):
        is_full_spark(ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(ValueError):
        is_full_spark(wide, threads=0)


def test_thread_count_changes_nothing():
    for a in (dft_submatrix(12, (0, 1, 4, 6)), dft_submatrix(13, (0, 1, 3))):
        assert is_full_spark(a, threads=1) == is_full_spark(a, threads=2) == oracle(a)
