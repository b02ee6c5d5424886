"""The root-of-unity path of the block search and of the norm-bound proof.

When every entry of a matrix is a root of unity w^t with denominator 1,
the block search reads the table of those t (_root_exponents: recorded by
dft_submatrix, else found by value once per matrix), and _images takes the images under every map
w -> g^e as one gather, roots[k, t] = g^(e_k t) mod p (_root_images),
for the search and for every prime of the proof.  Every other matrix
goes through its power-basis coefficients, and _images on those
coefficients is the oracle here: the gathered images must equal it value
for value, and the certificates must equal the ones the coefficient path
gives when the root path is switched off.  A root-of-unity candidate is
proved from its exponents alone, under the Hadamard bound k^k, which the
proof derives from the candidate's columns.
"""

import math

import numpy as np
import pytest

from sparkforge import cli, exact_arith, exact_linalg, spark_engine
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi, root_power
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.spark_engine import (
    _images,
    _integral_coeffs,
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

    def images(*args, **kwargs):
        seen.append(_images(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spark_engine, "_images", images)
        spark_engine._block_search(a)
    assert seen[0][0] == _root_images(a.order, 0)[0]
    return seen[0][1]


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
    p, gathered = _images(order, index, exponents.T)
    assert gathered.tolist() == _root_images(order, index)[1][:, exponents.T].tolist()
    q, images = _images(order, index, _integral_coeffs(a))
    assert (p, gathered.dtype) == (q, np.int64)
    assert gathered.tolist() == images.tolist()
    if index == 0:
        # The search maps the matrix under the first map alone.
        assert _block_search_images(a).tolist() == gathered[:1].tolist()
    if a.cols <= 12:
        assert _certificates(a) == _coefficient_path(a)


def test_order_two_takes_the_root_path():
    # phi(2) = 1: one map, w -> -1 = g, and roots has two columns.
    p, roots = _root_images(2, 0)
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

    def images(order, index, columns, maps=None):
        mapped.append(columns.shape if columns.dtype == object else None)
        return _images(order, index, columns, maps)

    monkeypatch.setattr(spark_engine, "_images", images)
    assert _certificates(a) == _coefficient_path(a)
    assert (a.cols, a.rows, euler_phi(order)) in mapped and None not in mapped


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


def _record_proofs(monkeypatch):
    """Record, per call of the norm-bound proof, what it is given, the
    primes whose images it eliminates, and its answer."""
    calls = []
    prove, eliminate = spark_engine._dependent_by_norm, spark_engine._vanishing_mod_p

    def dependent_by_norm(order, columns):
        given = ("coeffs" if columns.dtype == object else "exponents", columns.shape)
        primes = []

        def recording(stack, q):
            primes.append(q)
            return eliminate(stack, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spark_engine, "_vanishing_mod_p", recording)
            dependent = prove(order, columns)
        calls.append((given, len(primes), dependent))
        return dependent

    monkeypatch.setattr(spark_engine, "_dependent_by_norm", dependent_by_norm)
    return calls


def _primes_for(order, h2):
    """How many primes the proof of a dependent subset takes under the
    bound h2: the first n whose product P has P^2 > h2."""
    n, modulus = 0, 1
    while modulus * modulus <= h2:
        modulus *= _root_images(order, n)[0]
        n += 1
    return n


def test_hadamard_bound_takes_the_candidate_columns_only(monkeypatch):
    rows, witness = (0, 1, 2, 3, 4, 5, 10), (0, 1, 5, 6, 10, 11, 15)
    l1 = np.abs(_integral_coeffs(dft_submatrix(25, rows))).sum(axis=2)
    column_sums = (l1 * l1).sum(axis=1).tolist()
    # A bound over all 25 columns would take more primes than the
    # candidate's own, so the primes taken tell the two apart.
    bound = _primes_for(25, math.prod(column_sums[j] for j in witness))
    assert _primes_for(25, math.prod(column_sums)) > bound
    proofs = _record_proofs(monkeypatch)
    # Not roots: the first row is halved, and scaled back by 2 in Z[w], so
    # the L1 bound is the DFT rows' own, over the candidate's 7 columns.
    cert = is_full_spark(_near_roots(25, rows, "row over 2"))
    assert cert.witness == witness
    assert {given for given, _, _ in proofs} == {("coeffs", (7, 7, euler_phi(25)))}
    assert proofs[-1][1:] == (bound, True)
    assert all(taken <= bound for _, taken, _ in proofs)
    # Roots: only the exponents of the flagged subsets' 7 columns are read,
    # never all 25, and every conjugate of a root has modulus 1.
    proofs.clear()
    monkeypatch.setattr(spark_engine, "_integral_coeffs", _refuse)
    assert is_full_spark(dft_submatrix(25, rows)) == cert
    bound = _primes_for(25, 7**7)
    assert _primes_for(25, 25**25) > bound
    assert {given for given, _, _ in proofs} == {("exponents", (7, 7))}
    assert proofs[-1][1:] == (bound, True)
    assert all(taken <= bound for _, taken, _ in proofs)


@pytest.mark.parametrize("order, rows, cols", [(10, (0, 1, 3, 4), None), (12, (0, 4, 8), None),
                                               (12, (0, 3, 5), range(1, 12)), (9, (0, 3), None)])
def test_refuted_root_sweeps_build_no_power_basis_coefficients(order, rows, cols, monkeypatch):
    a = dft_submatrix(order, rows, cols)
    expected = _certificates(a)
    assert all(cert["witness"] for cert in expected)
    proofs = _record_proofs(monkeypatch)

    def images(order, index, columns, maps=None):
        assert columns.dtype != object, "power-basis coefficients reached _images"
        return _images(order, index, columns, maps)

    def root_table(order):
        # The exponent lookup keeps its map; the scalars, whose coefficients
        # a rebuild would read, are gone.
        return None, exact_arith._root_table(order)[1]

    monkeypatch.setattr(spark_engine, "_integral_coeffs", _refuse)
    monkeypatch.setattr(spark_engine, "_images", images)
    monkeypatch.setattr(exact_linalg, "_root_table", root_table)
    assert _certificates(a) == expected
    assert proofs and all(given[0] == "exponents" for given, _, _ in proofs)
