"""The exponent table of a root-of-unity matrix.

A DFT submatrix is born with its table: dft_submatrix computes r*c mod N
once per entry, takes the entry from the order's root table at that index
and records the indices.  Every other ExactMatrix finds its table by value,
once, when it is first asked (ExactMatrix.root_exponents).  These tests pin
what dft_submatrix accepts and refuses, and check that a DFT submatrix and
its copies built from entries, in memory or through a matrix file, get the
same table and the same certificates.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from sparkforge import cli, exact_linalg, spark_engine
from sparkforge.errors import BudgetExceeded, IndexOutOfRange
from sparkforge.exact_arith import ExactScalar, root_power
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.spark_engine import DEFAULT_BUDGET, is_full_spark, spark


@pytest.mark.parametrize("order, rows, cols", [
    (5, (5,), None), (5, (-1,), None), (5, (0, 1), (0, 5)), (5, (0,), (-1,)), (0, (0,), None),
])
def test_an_index_outside_the_residues_is_refused(order, rows, cols):
    with pytest.raises(IndexOutOfRange):
        dft_submatrix(order, rows, cols)


@pytest.mark.parametrize("rows, cols", [((1.5,), None), ((0, 1.0), None), ((1,), (0, 2.0))])
def test_a_float_index_is_a_type_error(rows, cols):
    with pytest.raises(TypeError):
        dft_submatrix(5, rows, cols)


@pytest.mark.parametrize("order", [0, -3])
def test_an_order_below_one_is_a_value_error(order):
    with pytest.raises(ValueError):
        dft_submatrix(order, ())


@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_no_rows_give_a_zero_by_n_matrix(order):
    a = dft_submatrix(order, ())
    assert (a.rows, a.cols, a.order, a.entries) == (0, order, order, ())
    assert a == ExactMatrix(0, order, (), order)
    # With no entries the order alone sets the kind: order 1 is integer.
    assert a.is_integer() == (order == 1)


def test_numpy_integer_indices_are_accepted():
    rows, cols = np.array([1, 2], dtype=np.int64), np.arange(3, dtype=np.uint8)
    a = dft_submatrix(7, rows, cols)
    assert a == dft_submatrix(7, (1, 2), (0, 1, 2))
    assert a.root_exponents() == (0, 1, 2, 0, 2, 4)
    assert all(type(t) is int for t in a.root_exponents())
    assert spark(a) == spark(dft_submatrix(7, (1, 2), (0, 1, 2)))


def _outcome(call):
    try:
        return json.dumps(call().as_dict())
    except BudgetExceeded as exc:
        return str(exc), exc.k_reached


def _copies(a):
    """a, its copy built from the same entries, and its copy read back from
    a matrix file, whose entries are all fresh objects."""
    loaded = cli.matrix_from_json(cli.matrix_to_json(a))
    return a, ExactMatrix(a.rows, a.cols, a.entries, a.order), loaded


def _agree(a):
    """The recorded table is the looked-up one, and spark and is_full_spark
    give the same certificate JSON, or BudgetExceeded message and k_reached,
    on a and its copies, at the default budget and at cols (which refuses a
    level of more than cols subsets)."""
    copies = _copies(a)
    assert all(b == a for b in copies)
    assert a.root_exponents() == exact_linalg._exponents_by_value(a)
    assert all(b.root_exponents() == a.root_exponents() for b in copies)
    for budget in (DEFAULT_BUDGET, a.cols):
        calls = [lambda b: spark(b, budget)]
        if a.rows <= a.cols:
            calls.append(lambda b: is_full_spark(b, budget))
        for call in calls:
            expected = _outcome(lambda: call(a))
            assert [_outcome(lambda: call(b)) for b in copies[1:]] == [expected] * 2, (a, budget)


@pytest.mark.parametrize("order", range(2, 11))
def test_every_dft_row_subset_certifies_like_its_entry_built_copies(order):
    for m in range(order + 1):
        for rows in itertools.combinations(range(order), m):
            _agree(dft_submatrix(order, rows))


@pytest.mark.parametrize("order", range(11, 17))
def test_seeded_column_lists_certify_like_their_entry_built_copies(order):
    rng = random.Random(order)
    for _ in range(40):
        rows = rng.sample(range(order), rng.randint(1, 5))
        cols = rng.choices(range(order), k=rng.randint(1, order + 2))  # repeats
        _agree(dft_submatrix(order, rows, cols))


@pytest.mark.parametrize("order", [1, 2, 9, 12, 31])
def test_the_recorded_table_is_r_times_c_mod_n(order):
    rng = random.Random(order)
    rows = rng.choices(range(order), k=3)
    for cols in (None, rng.choices(range(order), k=order + 1)):
        a = dft_submatrix(order, rows, cols)
        cols = range(order) if cols is None else cols
        assert a.root_exponents() == tuple(r * c % order for r in rows for c in cols)
        assert list(a.entries) == [ExactScalar(root_power(order, t)) for t in a.root_exponents()]
        table = [[r * c % order for c in cols] for r in rows]
        assert spark_engine._root_exponents(a).tolist() == table


def test_a_dft_submatrix_is_never_looked_up_by_value(monkeypatch):
    def refuse(a):
        raise AssertionError("a DFT submatrix was looked up by value")

    monkeypatch.setattr(exact_linalg, "_exponents_by_value", refuse)
    for order, rows in ((7, (0, 1, 3)), (10, (0, 1, 3, 4)), (12, (1, 5))):
        a = dft_submatrix(order, rows)
        assert spark(a).as_dict() and is_full_spark(a).as_dict()


def test_the_lookup_by_value_runs_once_per_matrix(monkeypatch):
    looked_up = []

    def lookup(a):
        looked_up.append(a)
        return by_value(a)

    by_value = exact_linalg._exponents_by_value
    monkeypatch.setattr(exact_linalg, "_exponents_by_value", lookup)
    a = dft_submatrix(10, (0, 1, 3, 4))
    b = ExactMatrix(a.rows, a.cols, a.entries, a.order)
    assert spark(b) == spark(a) and is_full_spark(b) == is_full_spark(a)
    assert b.root_exponents() == a.root_exponents()
    assert looked_up == [b]
    # An integer matrix has no roots to look up.
    integer = ExactMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert integer.root_exponents() is None and spark(integer).spark == 3
    assert looked_up == [b]


def test_equality_and_hash_ignore_the_table():
    a = dft_submatrix(12, (0, 3, 5))
    b = ExactMatrix(a.rows, a.cols, a.entries, a.order)  # no table yet
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    b.root_exponents()
    assert a == b and hash(a) == hash(b)
    not_roots = ExactMatrix(1, 2, [a.entries[0], a.entries[1] * 2], 12)
    assert not_roots.root_exponents() is None
    assert not_roots != ExactMatrix(1, 2, a.entries[:2], 12)


@pytest.mark.parametrize("order, rows, cols", [
    (12, (0, 3, 5), (1, 2, 7, 11)), (10, (1, 3), (0, 4, 5, 9)), (9, (0, 1, 3), (2, 2, 5, 8)),
])
def test_column_submatrix_and_transpose_certify_like_their_dft_submatrices(order, rows, cols):
    a = dft_submatrix(order, rows)
    picked = a.column_submatrix(cols)
    # Entry (i, j) of the transpose is w^(rows[j] cols[i]): the DFT submatrix
    # with the two index lists swapped.
    for derived, born in ((picked, dft_submatrix(order, rows, cols)),
                          (picked.transpose(), dft_submatrix(order, cols, rows))):
        assert derived == born and derived.root_exponents() == born.root_exponents()
        for call in (spark, is_full_spark):
            if call is spark or born.rows <= born.cols:
                assert _outcome(lambda: call(derived)) == _outcome(lambda: call(born))
