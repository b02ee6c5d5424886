"""The root-of-unity path of the block search.

When every entry of a matrix is a root of unity w^t with denominator 1,
the block search finds t for each distinct entry object by value
(_root_exponents) and takes the images under every map w -> g^e as one
gather, roots[k, t] = g^(e_k t) mod p (_root_images).  Every other matrix
goes through its power-basis coefficients, and _column_images on those
coefficients is the oracle here: the gathered images must equal it value
for value, and the certificates must equal the ones the coefficient path
gives when the root path is switched off.
"""

import math

import numpy as np
import pytest

from sparkforge import cli, spark_engine
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi, root_power
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.spark_engine import (
    _column_images,
    _integral_coeffs,
    _mixed_images,
    _modular_maps,
    _root_exponents,
    _root_images,
    is_full_spark,
    spark,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# 2, 3 and 4, primes, prime powers and composites up to 64, and large orders.
_ORDERS = [2, 3, 4, 5, 7, 13, 31, 61, 8, 9, 16, 25, 27, 32, 49, 64,
           6, 10, 12, 15, 18, 24, 30, 36, 45, 60, 63, 101, 211, 1024]


@st.composite
def root_matrices(draw, order):
    residues = st.integers(0, order - 1)
    rows = draw(st.lists(residues, min_size=1, max_size=4))
    if order <= 211 and draw(st.booleans()):
        cols = None
    else:
        cols = draw(st.lists(residues, min_size=1, max_size=min(order, 12)))
    return rows, cols


def _certificates(a):
    calls = (spark, is_full_spark) if a.cols >= a.rows else (spark,)
    return [call(a).as_dict() for call in calls]


def _block_search_images(a):
    """The images _block_search mixes, under the first prime."""
    seen = []

    def mixed_images(images, p):
        seen.append(images)
        return _mixed_images(images, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spark_engine, "_mixed_images", mixed_images)
        spark_engine._block_search(a)
    return seen[0]


def _coefficient_path(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spark_engine, "_root_exponents", lambda a: None)
        return _certificates(a)


@pytest.mark.parametrize("order", _ORDERS)
@hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data(), index=st.integers(0, 2))
def test_gathered_images_equal_the_coefficient_images(order, data, index):
    rows, cols = data.draw(root_matrices(order))
    a = dft_submatrix(order, rows, cols)
    exponents = _root_exponents(a)
    cols = range(order) if cols is None else cols
    assert exponents.tolist() == [[r * c % order for c in cols] for r in rows]
    p, roots = _root_images(order, index)
    gathered = roots[:, exponents.T]
    q, w = _modular_maps(order, index)
    assert (p, gathered.dtype) == (q, np.int64)
    assert gathered.tolist() == _column_images(_integral_coeffs(a), q, w).tolist()
    if index == 0:
        assert _block_search_images(a).tolist() == gathered.tolist()
    if a.cols <= 12:
        assert _certificates(a) == _coefficient_path(a)


def test_order_two_takes_the_root_path():
    # phi(2) = 1: one map, w -> -1 = g, and roots has two columns.
    p, roots = _root_images(2)
    assert roots.tolist() == [[1, p - 1]]
    a = dft_submatrix(2, (0, 1))
    assert _root_exponents(a).tolist() == [[0, 0], [0, 1]]
    assert spark(a).full_spark and is_full_spark(a).full_spark


@pytest.mark.parametrize("order, rows", [(12, (0, 1, 4)), (25, (0, 5, 10, 15, 20, 1, 2)),
                                         (9, (0, 3)), (13, (1, 2, 5)), (64, (0, 32))])
def test_roots_equal_by_value_are_recognised(order, rows):
    shared = dft_submatrix(order, rows)
    powers = _root_exponents(shared).ravel().tolist()
    fresh = ExactMatrix(shared.rows, shared.cols, [ExactScalar(root_power(order, t)) for t in powers])
    loaded = cli.matrix_from_json(cli.matrix_to_json(shared))
    assert len({id(e) for e in loaded.entries}) == len(loaded.entries)
    expected = _coefficient_path(shared)
    for a in (fresh, loaded):
        assert a == shared and _root_exponents(a).tolist() == _root_exponents(shared).tolist()
        assert spark_engine._dft_rows(a, _root_exponents(a)) is True
        assert _certificates(a) == expected


def _near_roots(order, rows, kind):
    a = dft_submatrix(order, rows)
    ents = list(a.entries)
    if kind == "twice a root":
        ents[-1] = ents[-1] * 2
    elif kind == "row over 2":
        half = ExactScalar.from_int(order, 1) / ExactScalar.from_int(order, 2)
        ents[: a.cols] = [e * half for e in ents[: a.cols]]
    elif kind == "negated root":
        ents[a.cols + 1] = -ents[a.cols + 1]
    return ExactMatrix(a.rows, a.cols, ents)


@pytest.mark.parametrize("kind", ["twice a root", "row over 2", "negated root"])
@pytest.mark.parametrize("order, rows", [(5, (0, 1, 2)), (9, (0, 1, 3)), (15, (1, 2, 4)),
                                         (25, (0, 1, 3, 5))])
def test_near_roots_take_the_coefficient_path(kind, order, rows, monkeypatch):
    # -w^t is a root of order 2N, not N, when N is odd.
    a = _near_roots(order, rows, kind)
    assert _root_exponents(a) is None and spark_engine._dft_rows(a, None) is False
    mapped = []

    def column_images(coeffs, p, w):
        mapped.append(coeffs.shape)
        return _column_images(coeffs, p, w)

    monkeypatch.setattr(spark_engine, "_column_images", column_images)
    assert _certificates(a) == _coefficient_path(a)
    assert (a.cols, a.rows, euler_phi(order)) in mapped


def test_integer_matrices_take_the_coefficient_path():
    assert _root_exponents(ExactMatrix.from_rows([[1, 0, 1], [0, 1, 1]])) is None
    # Integers embedded in Q(w): 1 and 0, where 0 is no root of unity.
    a = ExactMatrix.from_rows([[CycInt.one(5), CycInt.zero(5)]])
    assert _root_exponents(a) is None


def _refuse(a):
    raise AssertionError("the coefficients of the whole matrix were built")


@pytest.mark.parametrize("order, rows", [(13, (0, 1, 2)), (25, (0, 1, 2, 3, 5, 7, 9)),
                                         (31, (0, 1, 5)), (101, (0, 1))])
def test_root_matrices_build_no_coefficients_of_the_whole_matrix(order, rows, monkeypatch):
    expected = _certificates(dft_submatrix(order, rows))
    monkeypatch.setattr(spark_engine, "_integral_coeffs", _refuse)
    assert _certificates(dft_submatrix(order, rows)) == expected


def test_hadamard_bound_takes_the_candidate_columns_only(monkeypatch):
    a = dft_submatrix(25, (0, 1, 2, 3, 4, 5, 10))
    l1 = np.abs(_integral_coeffs(a)).sum(axis=2)
    column_sums = (l1 * l1).sum(axis=1).tolist()
    bounds = []
    prove = spark_engine._dependent_by_norm

    def dependent_by_norm(coeffs, h2, order, first):
        bounds.append((coeffs.shape, h2))
        return prove(coeffs, h2, order, first)

    monkeypatch.setattr(spark_engine, "_integral_coeffs", _refuse)
    monkeypatch.setattr(spark_engine, "_dependent_by_norm", dependent_by_norm)
    cert = is_full_spark(a)
    assert cert.witness == (0, 1, 5, 6, 10, 11, 15)
    # Only the flagged subsets' 7 columns are read, never all 25.
    assert {shape for shape, _ in bounds} == {(7, 7, euler_phi(25))}
    assert bounds[-1][1] == math.prod(column_sums[j] for j in cert.witness)
