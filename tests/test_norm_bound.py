"""The norm-bound proof of dependence, and a three-way differential test.

A subset whose images are rank deficient under every map of the first
prime is dependent only once the product P of the primes taken exceeds the
Hadamard bound H on every conjugate of every minor.  The first tests pin
down that P <= H always takes another prime.  The differential test draws
small integer and cyclotomic matrices and compares spark and is_full_spark
with the rank_exact and det_exact sweeps, and the integer ones with sympy.
A second one draws matrices one change away from DFT rows over all
columns: each must miss the affine-orbit detection and agree with the
same oracles.
"""

import itertools
import json
import math

import pytest

from sparkforge import cli, spark_engine
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi, is_prime, root_power
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.spark_engine import _PRIME_FLOOR, _root_images, is_full_spark, spark

from test_full_spark_engine import oracle as det_sweep
from test_spark_fp import oracle as rank_sweep

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies


def _primes_seen(monkeypatch):
    """Record the prime of every elimination the norm-bound proof runs."""
    seen = []
    eliminate = spark_engine._vanishing_mod_p

    def recording(stack, p):
        if p not in seen:
            seen.append(p)
        return eliminate(stack, p)

    monkeypatch.setattr(spark_engine, "_vanishing_mod_p", recording)
    return seen


@pytest.mark.parametrize(
    "start", [(1 << 30) + 1, (1 << 31) - 20_001, _PRIME_FLOOR + 1, 2 * _PRIME_FLOOR - 20_001]
)
def test_primality_check_matches_sympy_near_the_ends_of_its_range(start):
    for n in range(start, start + 20_000, 2):
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [1104194521, 1121176981, 1157839381])
def test_primality_check_refuses_strong_pseudoprimes(n):
    # Composites p (2p - 1) that pass base 2; the last passes 2, 3 and 5.
    assert not sympy.isprime(n) and not is_prime(n)


@pytest.mark.parametrize("order", [1, 12, 1009])
def test_root_image_primes_are_the_first_primes_of_the_walk(order):
    # _root_images walks p = 1 (mod order) up from _PRIME_FLOOR and takes each prime.
    floor = spark_engine._PRIME_FLOOR
    walk = itertools.count(floor + 1 + (-floor) % order, order)
    primes = []
    while len(primes) < 3:
        n = next(walk)
        assert is_prime(n) == sympy.isprime(n), n
        if sympy.isprime(n):
            primes.append(n)
    assert [_root_images(order, i)[0] for i in range(3)] == primes


def _prime_and_root_by_proper_divisors(order, index):
    """The search _root_images ran before it read the prime factors of the
    order: Miller-Rabin on bases 2, 3, 5 and 7, exact below 3.2e9, and a
    root g with g^d != 1 for every proper divisor d of the order."""
    def is_prime_below_3e9(n):
        s = ((n - 1) & (1 - n)).bit_length() - 1
        for base in (2, 3, 5, 7):
            x = pow(base, (n - 1) >> s, n)
            if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
                return False
        return True

    floor = spark_engine._PRIME_FLOOR
    primes = filter(is_prime_below_3e9, itertools.count(floor + 1 + (-floor) % order, order))
    p = next(itertools.islice(primes, index, None))
    proper = [d for d in range(1, order) if order % d == 0]
    return p, next(g for g in (pow(h, (p - 1) // order, p) for h in itertools.count(2))
                   if all(pow(g, d, p) != 1 for d in proper))


@pytest.mark.parametrize("orders", [range(1, 301), [509, 1009, 1024, 2039, 2048]])
def test_root_images_take_the_prime_and_root_of_the_proper_divisor_search(orders):
    for order in orders:
        for index in range(3):
            p, roots = _root_images(order, index)
            assert (p, int(roots[0, 1 % order])) == _prime_and_root_by_proper_divisors(order, index)


def test_product_of_two_primes_takes_a_third(monkeypatch):
    p, q, r = (_root_images(1, i)[0] for i in range(3))
    seen = _primes_seen(monkeypatch)
    # p q vanishes mod p and mod q, and P = p q only reaches H = p q.
    a = ExactMatrix.from_rows([[p * q]])
    assert spark(a).full_spark and is_full_spark(a).full_spark
    assert seen == [p, q, r]


def test_order_5_multiple_of_p_takes_a_second_prime(monkeypatch):
    p, q = (_root_images(5, i)[0] for i in range(2))
    seen = _primes_seen(monkeypatch)
    # p (1 + w) vanishes under every map of p, and H = L1 = 2p > p.
    a = ExactMatrix(1, 1, [ExactScalar(CycInt(5, [p, p, 0, 0]))], 5)
    cert = spark(a)
    assert cert.full_spark and cert.checked_subsets == 1
    assert is_full_spark(a).full_spark
    assert seen == [p, q]


def test_one_nonzero_image_under_a_further_prime_is_enough(monkeypatch):
    (p, _), (q, w) = _root_images(5, 0), _root_images(5, 1)
    g = int(w[0, 1])
    seen = _primes_seen(monkeypatch)
    # p (w - g) vanishes under every map of p, and under the map w -> g of q
    # only; P = p q exceeds H = p (g + 1), so q decides it.
    a = ExactMatrix(1, 1, [ExactScalar(CycInt(5, [-p * g, p, 0, 0]))], 5)
    assert spark(a).full_spark and is_full_spark(a).full_spark
    assert seen == [p, q]


def test_large_dependent_columns_take_primes_until_the_bound(monkeypatch):
    # Proportional columns with entries near 2^100: H^2 is about 2^404, so
    # the proof takes nine primes above _PRIME_FLOOR = 2^25 before it says
    # dependent.
    x, y = 2**100 + 7, 3**63
    a = ExactMatrix.from_rows([[x, 2 * x, 1], [y, 2 * y, 1]])
    seen = _primes_seen(monkeypatch)
    cert = spark(a)
    assert (cert.spark, cert.witness, cert.checked_subsets) == (2, (0, 1), 4)
    primes = [_root_images(1, i)[0] for i in range(9)]
    h2 = (x * x + y * y) * (4 * x * x + 4 * y * y)
    assert math.prod(primes[:-1]) ** 2 <= h2 < math.prod(primes) ** 2
    assert seen == primes
    assert is_full_spark(a).witness == (0, 1)


def test_running_out_of_primes_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    # Only seven primes lie in (2^5, 2^6), and the proportional columns
    # above need P^2 past 2^404.
    monkeypatch.setattr(spark_engine, "_PRIME_FLOOR", 1 << 5)
    x, y = 2**100 + 7, 3**63
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "integer", "rows": 2, "cols": 3,
                                "entries": [x, 2 * x, 1, y, 2 * y, 1]}), encoding="utf-8")
    _root_images.cache_clear()
    try:
        code = cli.run(["spark", "--matrix", str(path)])
    finally:
        _root_images.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: fewer than 8 primes = 1 (mod 1) in (2^5, 2^6)\n"


@pytest.mark.parametrize("m, primes", [(16, 2), (14, 2), (13, 1)])
def test_root_witness_takes_primes_until_p_squared_passes_k_to_the_k(m, primes, monkeypatch):
    # Columns 0 and 1 are both w^0 = 1, so the first subset is the witness.
    # Every conjugate of a root has modulus 1: H^2 = k^k, and 14^14 > 2^53
    # passes p^2 < 2^52, while 13^13 < 2^49 stays below p^2 > 2^50.  An L1
    # bound would count w^16 = -(1 + ... + w^15) as 16 and take a second
    # prime at 13 rows too.
    assert 13**13 < _PRIME_FLOOR**2 and 14**14 > (2 * _PRIME_FLOOR) ** 2
    a = dft_submatrix(17, range(m), [0, 0, *range(1, m)])
    seen = _primes_seen(monkeypatch)
    cert = is_full_spark(a)
    assert (cert.witness, cert.checked_subsets) == (tuple(range(m)), 1)
    assert seen == [_root_images(17, i)[0] for i in range(primes)]


@st.composite
def matrices(draw, order):
    """Small matrices whose entries include multiples of p and values near 2^63.

    Some columns are multiples of others, so that dependent subsets occur.
    """
    p = _root_images(order, 0)[0]
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


def _is_dft(a):
    """Rows of the order-th DFT over all order columns, by ExactScalar equality."""
    n = a.order
    if a.is_integer() or a.cols != n:
        return False
    powers = [ExactScalar(root_power(n, t)) for t in range(n)]
    return all(
        any(a.row_list(i) == [powers[r * j % n] for j in range(n)] for r in range(n))
        for i in range(a.rows)
    )


@st.composite
def near_dft(draw, kind):
    """DFT rows changed in one way: a swapped root, a scaled row, permuted
    or missing columns, or entries of a smaller order over order columns."""
    n = draw(st.integers(2, 8))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    if kind == "smaller order":
        d = draw(st.sampled_from([d for d in range(2, n) if n % d == 0] or [1]))
        return dft_submatrix(d, [r % d for r in rows], [j % d for j in range(n)]) if d > 1 else None
    entries = [[ExactScalar(root_power(n, r * j)) for j in range(n)] for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "swapped root":
        j = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 1).filter(lambda t: t != rows[i] * j % n))
        entries[i][j] = ExactScalar(root_power(n, t))
    elif kind == "scaled row":
        factor = draw(st.sampled_from([ExactScalar.from_int(n, 2), ExactScalar(CycInt.one(n), 2)]))
        entries[i] = [e * factor for e in entries[i]]
    elif kind == "permuted columns":
        order = draw(st.permutations(range(n)))
        entries = [[row[j] for j in order] for row in entries]
    elif kind == "fewer columns":
        keep = draw(st.integers(1, n - 1))
        entries = [row[:keep] for row in entries]
    return ExactMatrix.from_rows(entries)


@pytest.mark.parametrize(
    "kind", ["swapped root", "scaled row", "permuted columns", "fewer columns", "smaller order"]
)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_near_dft_matrices_take_the_plain_sweep(kind, data):
    a = data.draw(near_dft(kind))
    hypothesis.assume(a is not None and not _is_dft(a))
    assert spark_engine._dft_rows(a, spark_engine._root_exponents(a)) is False
    assert spark(a) == rank_sweep(a)
    if a.cols >= a.rows:
        assert is_full_spark(a) == det_sweep(a)


def test_dft_rows_are_detected_and_sweep_fewer_subsets(monkeypatch):
    a = dft_submatrix(13, (0, 1, 2, 3))
    assert spark_engine._dft_rows(a, spark_engine._root_exponents(a)) is True and _is_dft(a)
    stacked = []
    eliminate = spark_engine._last_pivot_vanishes

    def counting(stack, p):
        stacked.append(stack.shape[2])
        return eliminate(stack, p)

    monkeypatch.setattr(spark_engine, "_last_pivot_vanishes", counting)
    cert = is_full_spark(a)
    # 715 subsets fall into 7 affine orbits; the certificate counts them all.
    assert cert.full_spark and cert.checked_subsets == math.comb(13, 4) == 715
    assert sum(stacked) == 7
    stacked.clear()
    monkeypatch.setattr(spark_engine, "_dft_rows", lambda a, exponents: False)
    assert is_full_spark(a) == cert and sum(stacked) == 715
