"""Exact arithmetic in rings of cyclotomic integers.

An element of Z[w], with w a primitive N-th root of unity, is stored as an
integer coefficient vector on the power basis 1, w, ..., w^(phi(N)-1) and is
reduced eagerly modulo the N-th cyclotomic polynomial.  On that basis an
element is zero exactly when every stored coefficient is zero, which is what
makes downstream rank and determinant decisions exact.  One cached table
per order, _ring(N), holds the coefficients of w^t for t = 0..N-1; it
reduces every product, and root_power and the root table share its tuples.

ExactScalar layers a positive integer denominator on top of CycInt, giving
the field Q(w).  _bareiss, the package's one elimination, is fraction-free
over Z and Z[w] alike, as Sylvester's identity makes each division exact.
An inverse solves c * x = 1 on the power basis in integers by running
_bareiss on the multiplication system of c, and exact division in Z[w]
(CycInt.__floordiv__) multiplies by that inverse.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from .errors import DivisionByZero

__all__ = [
    "CycInt",
    "ExactScalar",
    "cyclotomic_poly",
    "root_power",
    "euler_phi",
    "divisors",
    "is_prime",
    "is_prime_power",
]


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires a positive integer")
    result = n
    for p in _factorize(n):
        result -= result // p
    return result


def _units(n: int) -> list[int]:
    """The units of Z_n as 1 <= u <= n, ascending (1 alone for n = 1)."""
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError("divisors requires a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    return n > 1 and _factorize(n) == {n: 1}


def is_prime_power(n: int) -> bool:
    return n > 1 and len(_factorize(n)) == 1


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed as the Moebius product of binomials,
    Phi_n = prod over d | n of (x^d - 1)^mu(n/d), where only squarefree
    n/d, products of distinct primes of n, have mu(n/d) != 0: first the
    products by x^d - 1 with mu = 1, then the exact divisions by those
    with mu = -1, each a running difference q_i = q_(i-d) - p_i.
    """
    if n < 1:
        raise ValueError("cyclotomic_poly requires a positive integer")
    primes = list(_factorize(n))
    p = [1]
    # mu(n/d) = (-1)^r for n/d a product of r distinct primes of n; the
    # mu = 1 binomials go first, so that every division is exact.
    for r in [*range(0, len(primes) + 1, 2), *range(1, len(primes) + 1, 2)]:
        for c in itertools.combinations(primes, r):
            d = n // math.prod(c)
            if r % 2 == 0:
                p = [a - b for a, b in zip([0] * d + p, p + [0] * d)]
            else:
                q = []
                for i, x in enumerate(p[: len(p) - d]):
                    q.append((q[i - d] if i >= d else 0) - x)
                p = q
    return tuple(p)


class _Powers(tuple):
    """The coefficient tuples of w^t for t = 0 .. order - 1, with the root
    table built on them at first use, so that one cache entry holds both."""

    order: int

    @functools.cached_property
    def roots(self) -> tuple[tuple["ExactScalar", ...], dict[tuple[int, ...], int]]:
        scalars = tuple(ExactScalar(CycInt(self.order, coeffs)) for coeffs in self)
        return scalars, {s.num.coeffs: t for t, s in enumerate(scalars)}


@functools.lru_cache(maxsize=16)
def _ring(order: int) -> _Powers:
    # Entry t holds the basis coefficients of w^t for t = 0 .. order - 1;
    # w^order = 1, so w^t for any t is entry t % order.
    poly = cyclotomic_poly(order)
    phi = len(poly) - 1
    top = [-c for c in poly[:phi]]
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(order):
        rows.append(tuple(cur))
        carry = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if carry:
            cur = [x + carry * y for x, y in zip(cur, top)]
    powers = _Powers(rows)
    powers.order = order
    return powers


def _mul_coeffs(order: int, a, b):
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    rows = _ring(order)
    for t in range(phi, 2 * phi - 1):
        c = conv[t]
        if c:
            row = rows[t % order]
            for i in range(phi):
                ri = row[i]
                if ri:
                    out[i] += c * ri
    return tuple(out)


class CycInt:
    """A cyclotomic integer, reduced on the power basis of its order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = len(_ring(order)[0])
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(
                f"order {order} needs exactly {phi} coefficients, "
                f"got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, order: int, value: int) -> "CycInt":
        return cls(order, (value,) + (0,) * (len(_ring(order)[0]) - 1))

    @classmethod
    def zero(cls, order: int) -> "CycInt":
        return cls.from_int(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycInt":
        return cls.from_int(order, 1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other):
        if not isinstance(other, CycInt):
            raise TypeError(f"expected CycInt, got {type(other).__name__}")
        if other.order != self.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check(other)
        return CycInt(self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycInt(self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycInt(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return CycInt(self.order, _mul_coeffs(self.order, self.coeffs, other.coeffs))

    def scale(self, k: int) -> "CycInt":
        if k == 1:
            return self
        return CycInt(self.order, tuple(k * x for x in self.coeffs))

    def __floordiv__(self, other):
        """Exact quotient in Z[w]; raises ValueError when other does not divide self."""
        coeffs = self.coeffs
        if not isinstance(other, int):
            self._check(other)
            inverse, other = _invert_coeffs(self.order, other.coeffs)
            coeffs = _mul_coeffs(self.order, coeffs, inverse)
        if other == 0:
            raise DivisionByZero("division by zero")
        if other == 1 or other == -1:
            return CycInt(self.order, coeffs).scale(other)
        qr = [divmod(c, other) for c in coeffs]
        if any(r for _, r in qr):
            raise ValueError(f"the quotient of {self!r} is not in Z[w]")
        return CycInt(self.order, tuple(q for q, _ in qr))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not ring elements")
        result = CycInt.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def to_complex(self) -> complex:
        w = cmath.exp(-2j * cmath.pi / self.order)
        total = 0j
        power = 1 + 0j
        for c in self.coeffs:
            if c:
                total += c * power
            power *= w
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and other.order == self.order
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.order}, {self.coeffs})"


def root_power(order: int, k: int) -> CycInt:
    """w^k reduced to the power basis, for w a primitive order-th root."""
    return CycInt(order, _ring(order)[k % order])


def _root_table(order: int) -> tuple[tuple["ExactScalar", ...], dict[tuple[int, ...], int]]:
    """The scalars w^t for t = 0..order-1 on the tuples of _ring(order), and
    the map from those tuples to t (distinct, since the power basis is a basis).
    They live in _ring's cache entry and leave it with the tuples."""
    return _ring(order).roots


def _bareiss(m: list[list], ncols: int, stop_at_gap: bool) -> tuple[int, int, object]:
    """Fraction-free echelon of the rows m over Z or Z[w], in place.

    After step k every entry is a (k+1)-minor of m, so by Sylvester's
    identity each division by the previous pivot is exact.  Returns (rank,
    sign, last): sign is the parity of the row swaps and last the last pivot
    (the int 1 if none), so a square matrix of full rank has determinant
    sign * last.  With stop_at_gap the sweep ends at the first column without
    a pivot, where the determinant is already known to be zero.
    """
    nrows = len(m)
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c]), None)
        if pivot is None:
            if stop_at_gap:
                break
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][c]
        row_r = m[rank]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            aic = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (p * row_i[j] - aic * row_r[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev


@functools.lru_cache(maxsize=64)
def _invert_coeffs(order: int, coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Solve c * x = 1 on the power basis; returns (numerators, denominator).

    Column j of the system is c * w^j.  _bareiss leaves an echelon whose
    last pivot d is +-det, and d * x is integral by Cramer's rule, so the
    back substitution in d * x divides exactly.  Cached for _bareiss over
    Z[w], whose every step divides all its entries by the same pivot.
    """
    phi = len(coeffs)
    cols = [_mul_coeffs(order, w_j, coeffs) for w_j in _ring(order)[:phi]]
    aug = [list(row) + [0] for row in zip(*cols)]
    aug[0][phi] = 1
    rank, _, d = _bareiss(aug, phi + 1, stop_at_gap=True)
    if rank < phi:
        raise DivisionByZero("element is not invertible")
    xs = [0] * phi
    for i in range(phi - 1, -1, -1):
        row = aug[i]
        xs[i] = (d * row[phi] - sum(row[j] * xs[j] for j in range(i + 1, phi))) // row[i]
    return tuple(xs), d


class ExactScalar:
    """An element of Q(w): a CycInt numerator over a positive integer denominator.

    The stored form is canonical: the denominator is positive and coprime to
    the integer content of the numerator, so equality is componentwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CycInt, den: int = 1):
        if not isinstance(num, CycInt):
            raise TypeError("numerator must be a CycInt")
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            num = -num
            den = -den
        if den != 1:
            g = math.gcd(den, *num.coeffs)  # den itself when num is zero
            if g > 1:
                num = CycInt(num.order, tuple(c // g for c in num.coeffs))
                den //= g
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, order: int, value: int) -> "ExactScalar":
        return cls(CycInt.from_int(order, value))

    @classmethod
    def zero(cls, order: int) -> "ExactScalar":
        return cls(CycInt.zero(order))

    @classmethod
    def one(cls, order: int) -> "ExactScalar":
        return cls(CycInt.one(order))

    @property
    def order(self) -> int:
        return self.num.order

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.order != self.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, int):
            return ExactScalar.from_int(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ExactScalar(self.num + o.num, self.den)
        return ExactScalar(self.num.scale(o.den) + o.num.scale(self.den), self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ExactScalar(self.num - o.num, self.den)
        return ExactScalar(self.num.scale(o.den) - o.num.scale(self.den), self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactScalar(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        nums, den = _invert_coeffs(self.order, self.num.coeffs)
        return ExactScalar(CycInt(self.order, nums).scale(self.den), den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def to_complex(self) -> complex:
        return self.num.to_complex() / self.den

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExactScalar.from_int(self.order, other)
        return (
            isinstance(other, ExactScalar)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"ExactScalar({self.num!r})"
        return f"ExactScalar({self.num!r}, den={self.den})"
