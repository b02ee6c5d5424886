"""The norm-bound proof of dependence, and a three-way differential test.

A subset whose images are rank deficient under every map of the first
prime is dependent only once the product P of the primes taken exceeds the
Hadamard bound H on every conjugate of every minor.  The first tests pin
down that P <= H always takes another prime.  The differential test draws
small integer and cyclotomic matrices and compares spark and is_full_spark
with the rank_exact and det_exact sweeps, and the integer ones with sympy.
"""

import pytest

from sparkforge import spark_engine
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi
from sparkforge.exact_linalg import ExactMatrix
from sparkforge.spark_engine import _modular_maps, is_full_spark, spark

from test_full_spark_engine import oracle as det_sweep
from test_spark_fp import oracle as rank_sweep

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies


def _primes_seen(monkeypatch):
    """Record the prime of every elimination the engine runs."""
    seen = []
    eliminate = spark_engine._vanishing_mod_p

    def recording(stack, p):
        if p not in seen:
            seen.append(p)
        return eliminate(stack, p)

    monkeypatch.setattr(spark_engine, "_vanishing_mod_p", recording)
    return seen


def test_product_of_two_primes_takes_a_third(monkeypatch):
    p, q, r = (_modular_maps(1, i)[0] for i in range(3))
    seen = _primes_seen(monkeypatch)
    # p q vanishes mod p and mod q, and P = p q only reaches H = p q.
    a = ExactMatrix.from_rows([[p * q]])
    assert spark(a).full_spark and is_full_spark(a).full_spark
    assert seen == [p, q, r]


def test_order_5_multiple_of_p_takes_a_second_prime(monkeypatch):
    p, q = (_modular_maps(5, i)[0] for i in range(2))
    seen = _primes_seen(monkeypatch)
    # p (1 + w) vanishes under every map of p, and H = L1 = 2p > p.
    a = ExactMatrix(1, 1, [ExactScalar(CycInt(5, [p, p, 0, 0]))], 5)
    cert = spark(a)
    assert cert.full_spark and cert.checked_subsets == 1
    assert is_full_spark(a).full_spark
    assert seen == [p, q]


def test_one_nonzero_image_under_a_further_prime_is_enough(monkeypatch):
    (p, _), (q, w) = _modular_maps(5, 0), _modular_maps(5, 1)
    g = int(w[0, 1])
    seen = _primes_seen(monkeypatch)
    # p (w - g) vanishes under every map of p, and under the map w -> g of q
    # only; P = p q exceeds H = p (g + 1), so q decides it.
    a = ExactMatrix(1, 1, [ExactScalar(CycInt(5, [-p * g, p, 0, 0]))], 5)
    assert spark(a).full_spark and is_full_spark(a).full_spark
    assert seen == [p, q]


def test_large_dependent_columns_take_primes_until_the_bound(monkeypatch):
    # Proportional columns with entries near 2^100: H is about 2^202, so the
    # proof takes seven primes above 2^30 before it says dependent.
    x, y = 2**100 + 7, 3**63
    a = ExactMatrix.from_rows([[x, 2 * x, 1], [y, 2 * y, 1]])
    seen = _primes_seen(monkeypatch)
    cert = spark(a)
    assert (cert.spark, cert.witness, cert.checked_subsets) == (2, (0, 1), 4)
    assert seen == [_modular_maps(1, i)[0] for i in range(7)]
    assert is_full_spark(a).witness == (0, 1)


@st.composite
def matrices(draw, order):
    """Small matrices whose entries include multiples of p and values near 2^63.

    Some columns are multiples of others, so that dependent subsets occur.
    """
    p = _modular_maps(order)[0]
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ints = st.one_of(
        st.integers(-3, 3),
        st.integers(-3, 3).map(lambda v: v * p),
        st.integers(-2, 2).map(lambda v: 2**63 + v),
        st.integers(-2, 2).map(lambda v: -(2**63) + v),
    )
    if order == 1:
        entry = ints
    else:
        entry = st.builds(
            lambda coeffs, den: ExactScalar(CycInt(order, coeffs), den),
            st.lists(ints, min_size=euler_phi(order), max_size=euler_phi(order)),
            st.sampled_from([1, 2, 3, 6]),
        )
    columns = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    for j in range(1, n):
        if draw(st.booleans()):
            source = draw(st.integers(0, j - 1))
            factor = draw(st.sampled_from([1, -2, p, 2**63]))
            columns[j] = [e * factor if order == 1 else e * ExactScalar.from_int(order, factor)
                          for e in columns[source]]
    return ExactMatrix.from_rows([list(row) for row in zip(*columns)])


@pytest.mark.parametrize("order", [1, 5, 8, 12])
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_certificates_match_exact_and_sympy_oracles(order, data):
    a = data.draw(matrices(order))
    expected = rank_sweep(a)
    assert spark(a) == expected
    if a.cols >= a.rows:
        assert is_full_spark(a) == det_sweep(a)
    if a.is_integer():
        rows = sympy.Matrix(a.to_rows())

        def dependent(cols):
            return rows.extract(list(range(a.rows)), list(cols)).rank() < len(cols)

        assert rank_sweep(a, dependent=dependent) == expected
