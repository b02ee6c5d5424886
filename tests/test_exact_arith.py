"""Cyclotomic polynomials and exact arithmetic in Z[w_N] and its fraction field."""

import cmath
import math
import random

import pytest

from sparkforge import cyclotomic_poly, root_power
from sparkforge.exact_arith import (
    CycInt,
    ExactScalar,
    _invert_coeffs,
    _ring,
    _root_table,
    _units,
    divisors,
    euler_phi,
    is_prime,
    is_prime_power,
)
from sparkforge.errors import DivisionByZero

RING_ORDERS = [4, 5, 8, 10, 12]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _phi_brute(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _random_cyc(rng, order):
    width = euler_phi(order)
    return CycInt(order, tuple(rng.randint(-9, 9) for _ in range(width)))


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = [1]
        for d in divisors(n):
            prod = _poly_mul(prod, list(cyclotomic_poly(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, f"divisor product broke at n={n}"


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 301):
        want = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in want), n


def test_cyclotomic_degree_is_phi():
    for n in range(1, 31):
        poly = cyclotomic_poly(n)
        assert len(poly) - 1 == _phi_brute(n)
        assert poly[-1] == 1


def test_root_power_examples():
    assert root_power(4, 1).coeffs == (0, 1)
    assert root_power(4, 2).coeffs == (-1, 0)
    for n in range(1, 13):
        assert root_power(n, n) == CycInt.one(n)
        assert root_power(n, 7) == root_power(n, 7 + n)
        assert root_power(n, -1) == root_power(n, n - 1)


def test_root_power_matches_unit_circle():
    for n in range(1, 13):
        for k in range(n):
            got = root_power(n, k).to_complex()
            want = cmath.exp(-2j * cmath.pi * k / n)
            assert abs(got - want) <= 1e-12


def test_omega4_squared_is_minus_one():
    w = root_power(4, 1)
    assert w * w == CycInt.from_int(4, -1)


def test_phi3_relation_normalizes_to_zero():
    total = CycInt.one(3) + root_power(3, 1) + root_power(3, 2)
    assert total.is_zero()


def test_additive_identity():
    rng = random.Random(101)
    for order in RING_ORDERS:
        zero = CycInt.zero(order)
        for _ in range(20):
            a = _random_cyc(rng, order)
            assert a + zero == a
            assert a - a == zero


def test_ring_axioms_random_triples():
    rng = random.Random(202)
    for order in RING_ORDERS:
        for _ in range(100):
            a = _random_cyc(rng, order)
            b = _random_cyc(rng, order)
            c = _random_cyc(rng, order)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_zero_product_spot_check():
    # Z[w_N] is an integral domain; nonzero pairs keep nonzero products.
    rng = random.Random(303)
    checked = 0
    while checked < 100:
        order = rng.choice(RING_ORDERS)
        a = _random_cyc(rng, order)
        b = _random_cyc(rng, order)
        if a.is_zero() or b.is_zero():
            continue
        assert not (a * b).is_zero()
        checked += 1


def test_scalar_canonical_reduction():
    two_fourths = ExactScalar(CycInt.from_int(1, 2), 4)
    assert two_fourths.den == 2
    assert two_fourths.num == CycInt.from_int(1, 1)
    assert ExactScalar(CycInt.from_int(1, -6), 4).den == 2


FIELD_ORDERS = (1, 4, 5, 8, 13, 25, 31, 41)


def _nonzero_scalars(rng, draws):
    """Nonzero scalars of each FIELD_ORDERS order, draws(phi) of them.

    Every third draw has coefficients past 2^64, the rest lie in -9..9.
    """
    for order in FIELD_ORDERS:
        width = euler_phi(order)
        for trial in range(draws(width)):
            bound = 2**70 if trial % 3 == 2 else 9
            num = CycInt(order, [rng.randint(-bound, bound) for _ in range(width)])
            if not num.is_zero():
                yield ExactScalar(num, rng.randint(1, 9))


def test_scalar_field_ops():
    rng = random.Random(404)
    for s in _nonzero_scalars(rng, lambda phi: 25 if phi <= 4 else 3):
        t = ExactScalar(_random_cyc(rng, s.order), rng.randint(1, 9))
        assert (t + s) - s == t
        assert (t * s) / s == t
        inv = s.inverse()
        assert s * inv == 1
        assert inv.den > 0 and math.gcd(inv.den, *inv.num.coeffs) == 1


def test_scalar_reflected_ops_and_negation():
    rng = random.Random(408)
    for s in _nonzero_scalars(rng, lambda phi: 2):
        one = ExactScalar.one(s.order)
        assert -s == s * -1 and -(-s) == s and (-s).den == s.den
        assert 3 - s == ExactScalar.from_int(s.order, 3) - s
        assert 1 / s == one / s == s.inverse()
        assert 2 / s * s == 2
    assert ExactScalar.one(4).__rsub__(1.5) is NotImplemented
    assert ExactScalar.one(4).__rtruediv__(1.5) is NotImplemented


def test_inverse_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    moduli = {n: sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ) for n in FIELD_ORDERS}
    rng = random.Random(405)
    # sympy's rational inverse takes seconds once big coefficients meet
    # phi > 12, so only the orders up to 13 get a third, big draw.
    for s in _nonzero_scalars(rng, lambda phi: 3 if phi <= 12 else 2):
        num = sympy.Poly(s.num.coeffs[::-1], x, domain=sympy.QQ)
        coeffs = num.invert(moduli[s.order]).all_coeffs()[::-1]
        coeffs += [0] * (euler_phi(s.order) - len(coeffs))
        den = math.lcm(*(int(c.q) for c in coeffs))
        want = ExactScalar(CycInt(s.order, [int(c * den) for c in coeffs]).scale(s.den), den)
        assert s.inverse() == want


def test_division_by_zero_raises():
    one = ExactScalar.from_int(4, 1)
    zero = ExactScalar.zero(4)
    with pytest.raises(DivisionByZero):
        one / zero
    with pytest.raises(DivisionByZero):
        zero.inverse()


def test_zero_is_falsy_and_nonzero_is_truthy():
    rng = random.Random(406)
    for order in FIELD_ORDERS:
        assert not CycInt.zero(order) and not ExactScalar.zero(order)
        assert CycInt.one(order) and ExactScalar(root_power(order, 1), 7)
    for s in _nonzero_scalars(rng, lambda phi: 2):
        assert s and s.num and not s - s and not s.num - s.num


def test_floordiv_is_exact_division_in_z_w():
    rng = random.Random(407)
    for s in _nonzero_scalars(rng, lambda phi: 4 if phi <= 4 else 2):
        a = CycInt(s.order, [rng.randint(-2**70, 2**70) for _ in s.num.coeffs])
        b = s.num
        assert (a * b) // b == a
        assert (a * b) // (-b) == -a
        assert a.scale(-12) // 12 == -a
        assert a.scale(6) // CycInt.from_int(s.order, 3) == a.scale(2)
        assert a // 1 == a and a // CycInt.one(s.order) == a


def test_floordiv_refuses_inexact_and_zero_divisors():
    w = root_power(8, 1)
    one = CycInt.one(8)
    with pytest.raises(ValueError):
        one // (one + w)  # 1 + w has norm 2, so it is not a unit
    with pytest.raises(ValueError):
        (w + w + one) // 2
    with pytest.raises(DivisionByZero):
        one // CycInt.zero(8)
    with pytest.raises(DivisionByZero):
        one // 0
    assert _invert_coeffs.cache_info().maxsize == 64


def test_scalar_to_complex_tracks_denominator():
    s = ExactScalar(root_power(8, 3), 5)
    want = cmath.exp(-2j * cmath.pi * 3 / 8) / 5
    assert abs(s.to_complex() - want) <= 1e-12


def test_number_theory_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert [n for n in range(1, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime_power(8) and is_prime_power(9) and is_prime_power(13)
    assert not is_prime_power(1) and not is_prime_power(10) and not is_prime_power(12)
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_units_are_ascending_and_number_phi():
    # Map 0 of each prime and the identity-first affine masks rely on the order.
    assert _units(1) == [1] and _units(2) == [1] and _units(12) == [1, 5, 7, 11]
    for n in range(1, 80):
        units = _units(n)
        assert units == sorted(set(units)) and len(units) == euler_phi(n)
        assert all(1 <= u <= n and math.gcd(u, n) == 1 for u in units)


TABLE_ORDERS = [*range(1, 41), 61, 64]


def _sympy_coeffs(poly, phi):
    """Ascending coefficients of a sympy Poly, padded to phi entries."""
    coeffs = [int(c) for c in poly.all_coeffs()[::-1]]
    return tuple(coeffs + [0] * (phi - len(coeffs)))


def test_power_table_and_products_match_sympy_remainders():
    # At prime orders 2 * phi - 2 >= N, so products reduce through w^(t mod N).
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(25)
    for n in TABLE_ORDERS:
        modulus = sympy.cyclotomic_poly(n, x, polys=True)
        phi = euler_phi(n)
        table = _ring(n)
        assert len(table) == n
        for t in range(n):
            want = _sympy_coeffs(sympy.Poly(x**t, x).rem(modulus), phi)
            assert table[t] == want, (n, t)
        for _ in range(3):
            a = [rng.randint(-9, 9) for _ in range(phi)]
            b = [rng.randint(-9, 9) for _ in range(phi)]
            product = sympy.Poly(a[::-1], x) * sympy.Poly(b[::-1], x)
            got = (CycInt(n, a) * CycInt(n, b)).coeffs
            assert got == _sympy_coeffs(product.rem(modulus), phi), (n, a, b)


@pytest.mark.parametrize("n", TABLE_ORDERS)
def test_roots_share_the_power_table(n):
    scalars, index = _root_table(n)
    table = _ring(n)
    for t in range(n):
        assert scalars[t].num.coeffs is table[t]
        assert root_power(n, t).coeffs is table[t] and root_power(n, t + 3 * n).coeffs is table[t]
        assert index[table[t]] == t


def test_root_table_and_power_table_leave_the_cache_together():
    # Twenty orders, more than the cache keeps, read as the root table, then
    # as products read the power table, then back in reverse: two caches of
    # their own would pair a kept root table with a rebuilt power table here.
    orders = range(41, 61)
    for n in orders:
        _root_table(n)
    for n in orders:
        _ring(n)
    for n in reversed(orders):
        assert all(_root_table(n)[0][t].num.coeffs is _ring(n)[t] for t in range(n)), n
