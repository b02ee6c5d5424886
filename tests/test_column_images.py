"""The set-up every exact matrix passes through before a sweep.

_integral_coeffs turns the entries into power-basis coefficients, scaling
each row with a denominator by the lcm of its denominators, and _images
maps them to F_p under every ring map of a prime in one limb-split matmul
(_mulmod).  Both are checked here against plain Python loops: the
row-lcm scaling done by hand, and sum_t c_t w[k, t] mod p in Python ints.
The per-order tables behind them, and the root tables of the
root-of-unity path, stay bounded however many orders run.
"""

import math

import numpy as np
import pytest

from sparkforge import exact_arith, spark_engine
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.spark_engine import (
    _images,
    _integral_coeffs,
    _mulmod,
    _root_images,
    is_full_spark,
    spark,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _images_by_hand(coeffs, p, w):
    maps, phi = w.shape
    cols, rows = coeffs.shape[:2]
    return [
        [[sum(int(coeffs[c, i, t]) * int(w[k, t]) for t in range(phi)) % p for i in range(rows)]
         for c in range(cols)]
        for k in range(maps)
    ]


# Small values, values past 2^64 of either sign, and values near multiples of p.
_BIG = st.integers(-(2**70), 2**70)
_NEAR_2_64 = st.integers(-2, 2).map(lambda v: 2**64 + v) | st.integers(-2, 2).map(lambda v: v - 2**64)


@st.composite
def image_cases(draw, order):
    index = draw(st.sampled_from([0, 1]))
    p, roots = _root_images(order, index)
    phi = euler_phi(order)
    cols, rows = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ints = st.integers(-3, 3) | _BIG | _NEAR_2_64 | st.integers(-2, 2).map(lambda v: v * p - 1)
    values = draw(st.lists(ints, min_size=cols * rows * phi, max_size=cols * rows * phi))
    return np.array(values, dtype=object).reshape(cols, rows, phi), index, p, roots[:, :phi]


@pytest.mark.parametrize("order", [1, 5, 12, 25])
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_images_match_python_sums(order, data):
    coeffs, index, p, w = data.draw(image_cases(order))
    q, images = _images(order, index, coeffs)
    assert q == p and images.dtype == np.int64
    assert images.shape == (w.shape[0],) + coeffs.shape[:2]
    assert images.tolist() == _images_by_hand(coeffs, p, w)
    # The block search maps under the first map alone.
    assert _images(order, index, coeffs, maps=1)[1].tolist() == images[:1].tolist()


def test_mulmod_is_exact_at_the_limb_bound():
    # 2^16 - 1 terms under the prime 2^31 - 1, every map entry p - 1 and
    # every residue p - 2^16, whose low limb is 2^16 - 1: the low limb sum
    # comes within 2^49 of 2^63, past which int64 wraps.
    p = 2**31 - 1
    phi = (1 << 16) - 1
    residue = p - (1 << 16)
    w = np.full((1, phi), p - 1, dtype=np.int64)
    residues = np.full((phi, 1), residue, dtype=np.int64)
    assert _mulmod(w, residues, p).tolist() == [[phi * (p - 1) * residue % p]]


def test_mulmod_stays_exact_past_2_16_terms():
    # 2^16 + 3 terms, every entry p - 1 under the prime 2^31 - 1: a full run
    # of 2^16 - 1 terms, then a run of 4 added to the residue carried over.
    p = 2**31 - 1
    terms = (1 << 16) + 3
    a = np.full((1, terms), p - 1, dtype=np.int64)
    b = np.full((terms, 1), p - 1, dtype=np.int64)
    want = sum(x * y for x, y in zip(a[0].tolist(), b[:, 0].tolist())) % p
    assert _mulmod(a, b, p).tolist() == [[want]]


@st.composite
def scaled_matrices(draw, order):
    """Matrices whose rows mix denominators, some rows having none."""
    phi = euler_phi(order)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-9, 9) | _NEAR_2_64, min_size=phi, max_size=phi)
    rows = []
    for _ in range(m):
        dens = st.just(1) if draw(st.booleans()) else st.sampled_from([1, 2, 3, 4, 6, 2**65])
        rows.append([ExactScalar(CycInt(order, draw(coeffs)), draw(dens)) for _ in range(n)])
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("order", [2, 5, 12])
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_integral_coeffs_scale_each_row_by_its_lcm(order, data):
    a = data.draw(scaled_matrices(order))
    by_hand = []
    for j in range(a.cols):
        column = []
        for i in range(a.rows):
            lcm = math.lcm(*(e.den for e in a.row_list(i)))
            e = a.entry(i, j)
            column.append([c * (lcm // e.den) for c in e.num.coeffs])
        by_hand.append(column)
    coeffs = _integral_coeffs(a)
    assert coeffs.dtype == object and all(type(c) is int for c in coeffs.flat)
    assert coeffs.tolist() == by_hand


def test_integral_coeffs_keep_integer_entries_exact():
    a = ExactMatrix.from_rows([[2**70, -1], [3, -(2**64) - 5]])
    coeffs = _integral_coeffs(a)
    assert coeffs.shape == (2, 2, 1) and coeffs.dtype == object
    assert coeffs[:, :, 0].tolist() == [[2**70, 3], [-1, -(2**64) - 5]]


# Order 5, entries as (coefficients, denominator); column 3 is column 0 / 2
# plus w times column 1 / 3, and every row carries a denominator.
_SCALED_ROWS = [
    [([1, 0, 0, 0], 1), ([3, -2, 0, 1], 4), ([0, 0, 1, 0], 1), ([5, 2, -3, -1], 12),
     ([1, -1, 0, 0], 1)],
    [([-1, 0, 2, 0], 6), ([0, 0, -1, 5], 1), ([1, 1, 1, -7], 3), ([-21, -20, -18, -24], 12),
     ([0, 2, 0, 0], 5)],
    [([0, 3, 0, -1], 2), ([2, 0, 0, 0], 3), ([-4, 1, 0, 0], 1), ([0, 35, 0, -9], 36),
     ([9, 0, 0, 1], 1)],
]


def test_certificates_of_a_matrix_with_denominators():
    rows = [[ExactScalar(CycInt(5, c), d) for c, d in row] for row in _SCALED_ROWS]
    a = ExactMatrix.from_rows(rows)
    common = {"spark": 3, "rows": 3, "cols": 5, "full_spark": False, "sentinel": False,
              "witness": [0, 1, 3], "mode": "exact", "budget": 10**6}
    assert spark(a).as_dict() == {**common, "checked_subsets": 17}
    assert is_full_spark(a).as_dict() == {**common, "checked_subsets": 2}
    # Each row times the lcm of its denominators (12, 60, 36) is in Z[w],
    # and scaling rows changes no certificate.
    integral = ExactMatrix.from_rows(
        [[e * math.lcm(*(x.den for x in row)) for e in row] for row in rows]
    )
    assert all(e.den == 1 for e in integral.entries)
    assert spark(integral) == spark(a) and is_full_spark(integral) == is_full_spark(a)


def test_per_order_tables_keep_at_most_16_orders():
    for order in range(2, 42):
        _root_images(order, 0)
        exact_arith._ring(order)
    assert spark_engine._root_images.cache_info().currsize <= 16
    assert exact_arith._ring.cache_info().currsize <= 16


def test_root_tables_keep_at_most_16_orders():
    # Twenty orders through the root-of-unity path: the scalars and
    # exponent map of exact_arith, and the images of the powers of g.
    for order in range(45, 65):
        assert is_full_spark(dft_submatrix(order, (0, 1))).full_spark
    assert exact_arith._ring.cache_info().currsize <= 16  # each root table lives in an entry
    assert spark_engine._root_images.cache_info().currsize <= 16
