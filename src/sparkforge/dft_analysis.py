"""Combinatorics of DFT row selections.

Everything here is about subsets of Z_N: how they distribute over the
cosets of each divisor subgroup, the resulting full-spark decision for
prime-power N, orbits under the symmetries that preserve full spark, and a
coset-balance necessary condition for restricted isometry.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import (
    BadModulus,
    BudgetExceeded,
    DegenerateSet,
    IndexOutOfRange,
    NotADivisor,
    NotPrimePower,
    _quoted,
)
from .exact_arith import _units, divisors, is_prime_power

__all__ = [
    "IndexSet",
    "DistributionReport",
    "UniformityResult",
    "PrimePowerVerdict",
    "RipCheckResult",
    "distribution_report",
    "is_uniformly_distributed",
    "full_spark_prime_power",
    "closure_orbit",
    "rip_necessary_check",
]

ORBIT_CAP = 100_000


@dataclass(frozen=True)
class IndexSet:
    """A sorted, duplicate-free subset of Z_order."""

    order: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = self._residues(self.order, self.members)
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        object.__setattr__(self, "members", members)

    @staticmethod
    def _residues(order: int, members) -> tuple[int, ...]:
        """members as a tuple of ints, once each is an integer in
        0..order-1; operator.index reads numpy integers and bool as ints."""
        if order < 1:
            raise BadModulus("order must be positive")
        residues = []
        for m in members:
            try:
                r = operator.index(m)
            except TypeError:
                r = m  # not an integer, named as given
            if not isinstance(r, int) or not 0 <= r < order:
                raise IndexOutOfRange(f"{_quoted(r)} outside 0..{order - 1}")
            residues.append(r)
        return tuple(residues)

    @classmethod
    def from_iterable(cls, order: int, members) -> "IndexSet":
        """The set of members given in any order: each is checked to be a
        residue before any is checked for a duplicate."""
        members = cls._residues(order, members)
        if len(set(members)) != len(members):
            raise ValueError("duplicate rows")
        return cls(order, tuple(sorted(members)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        return item in self.members

    def translate(self, t: int) -> "IndexSet":
        return IndexSet(self.order, tuple(sorted((m + t) % self.order for m in self.members)))

    def dilate(self, a: int) -> "IndexSet":
        """Multiply members by a unit of Z_order."""
        if math.gcd(a, self.order) != 1:
            raise BadModulus(f"{a} is not a unit modulo {self.order}")
        return IndexSet(self.order, tuple(sorted((m * a) % self.order for m in self.members)))

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.order, tuple(m for m in range(self.order) if m not in inside))


@dataclass(frozen=True)
class DistributionReport:
    """Coset counts of an index set modulo one divisor."""

    divisor: int
    coset_counts: tuple[int, ...]
    lo: int
    hi: int
    uniform: bool


@dataclass(frozen=True)
class UniformityResult:
    uniform: bool
    violations: tuple[DistributionReport, ...]


@dataclass(frozen=True)
class PrimePowerVerdict:
    full_spark: bool
    uniformity: UniformityResult


@dataclass(frozen=True)
class RipCheckResult:
    passes: bool
    violations: tuple[tuple[int, int, int], ...]


def distribution_report(m: IndexSet, d: int) -> DistributionReport:
    """Counts of members in each residue class modulo a divisor d of the order.

    The set is uniformly distributed over d when every class holds either
    floor(|M|/d) or ceil(|M|/d) members; when d divides |M| both bounds
    coincide, forcing exactly |M|/d per class.
    """
    if d < 1 or m.order % d != 0:
        raise NotADivisor(f"{d} does not divide {m.order}")
    counts = [0] * d
    for x in m.members:
        counts[x % d] += 1
    size = len(m.members)
    lo = size // d
    hi = -(-size // d)
    return DistributionReport(
        divisor=d,
        coset_counts=tuple(counts),
        lo=lo,
        hi=hi,
        uniform=all(lo <= c <= hi for c in counts),
    )


def is_uniformly_distributed(m: IndexSet) -> UniformityResult:
    """Check the coset balance condition for every divisor of the order."""
    if not m.members:
        raise DegenerateSet("empty index set")
    violations = []
    for d in divisors(m.order):
        report = distribution_report(m, d)
        if not report.uniform:
            violations.append(report)
    return UniformityResult(uniform=not violations, violations=tuple(violations))


def full_spark_prime_power(m: IndexSet) -> PrimePowerVerdict:
    """Full-spark decision for DFT rows at prime-power order.

    At prime-power order the selected rows form a full spark frame exactly
    when the row set is uniformly distributed over every divisor; this
    turns an exponential determinant sweep into pure counting.
    """
    if not is_prime_power(m.order):
        raise NotPrimePower(f"{m.order} is not a prime power")
    result = is_uniformly_distributed(m)
    return PrimePowerVerdict(full_spark=result.uniform, uniformity=result)


def closure_orbit(
    m: IndexSet, cap: int = ORBIT_CAP, max_entries: int | None = None
) -> frozenset[IndexSet]:
    """Orbit of an index set under translation, unit dilation, complement.

    These are exactly the operations that preserve the full-spark property
    of the corresponding DFT rows, so every orbit member shares the seed's
    status.  They generate the affine maps x -> u*x + t (u a unit mod N)
    and their compositions with complement, which commutes with every
    bijection of Z_N; so the orbit is {u*S + t} together with the
    complements of those sets.  S is the smaller of the seed and its
    complement, which share one orbit, and t runs up to S's translation
    period, the least d | N with S + d = S, the same for every u*S.
    Proper nonempty sets only; an orbit of more than ``cap`` members, or
    of more than ``max_entries`` entries over its members when that is
    given, raises BudgetExceeded.  Each member comes with its complement,
    so the entries number |orbit| * N / 2, and the images are counted as
    they are listed: most such orbits are refused before any complement.
    """
    n = m.order
    if not m.members or len(m.members) == n:
        raise DegenerateSet("orbit needs a proper nonempty set")
    seed = m.members if 2 * len(m) <= n else m.complement().members
    period = next(d for d in divisors(n) if {(x + d) % n for x in seed} == set(seed))
    dilates = {tuple(sorted(u * x % n for x in seed)) for u in _units(n)}
    # A complement is a new member for every image when the sizes differ.
    share = 2 if 2 * len(seed) < n else 1

    def refuse_past(members):
        if members > cap:
            raise BudgetExceeded(f"orbit exceeds cap {cap}")
        if max_entries is not None and members * n > 2 * max_entries:
            raise BudgetExceeded(f"orbit exceeds {max_entries} row entries")

    images = set()
    for base in dilates:
        for t in range(period):
            images.add(tuple(sorted((x + t) % n for x in base)))
            refuse_past(share * len(images))
    orbit = images | {tuple(sorted(set(range(n)).difference(s))) for s in images}
    refuse_past(len(orbit))
    return frozenset(IndexSet(n, s) for s in orbit)


def rip_necessary_check(m: IndexSet, k: int, delta: float) -> RipCheckResult:
    """Coset balance test implied by a (k, delta) restricted isometry.

    For each divisor d <= k, every residue class modulo d must hold within
    (|M|/d) * delta of the average |M|/d members, for a finite delta >= 0.
    Comparisons are done on integers scaled by d, so only the single
    product |M| * delta is float.
    Violations are reported as (divisor, residue, count); an empty list
    means this necessary condition cannot rule the property out.
    """
    if not m.members:
        raise DegenerateSet("empty index set")
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    size = len(m.members)
    violations = []
    for d in divisors(m.order):
        if d > k:
            continue
        for a, count in enumerate(distribution_report(m, d).coset_counts):
            if abs(d * count - size) > size * delta:
                violations.append((d, a, count))
    return RipCheckResult(passes=not violations, violations=tuple(violations))
