"""Combinatorics of DFT row selections: coset counts, orbits, RIP screens."""

import itertools
import math
import random

import numpy as np
import pytest

from sparkforge import (
    IndexSet,
    closure_orbit,
    det_exact,
    dft_submatrix,
    distribution_report,
    full_spark_prime_power,
    is_full_spark,
    is_uniformly_distributed,
    rip_necessary_check,
)
from sparkforge.dft_analysis import ORBIT_CAP
from sparkforge.errors import (
    BadModulus,
    BudgetExceeded,
    DegenerateSet,
    IndexOutOfRange,
    NotADivisor,
    NotPrimePower,
)

# Singer difference set with q=3, d=4: 40 rows out of 121.
SINGER_121 = (
    1, 2, 3, 6, 7, 9, 11, 18, 20, 21, 25, 27, 33, 34, 38, 41, 44, 47, 53, 54,
    55, 56, 58, 59, 60, 63, 64, 68, 70, 71, 75, 81, 83, 89, 92, 99, 100, 102,
    104, 114,
)


def _singular_witness_columns(order, size, report):
    # floor(size/d) full cosets of <order/d> plus the remainder from one
    # further coset; singular whenever some coset of <d> is overfull.
    d = report.divisor
    q, r = divmod(size, d)
    step = order // d
    cols = []
    for b in range(q):
        cols.extend(b + j * step for j in range(d))
    if r:
        cols.extend(q + j * step for j in range(r))
    return sorted(cols)


def test_index_set_validation():
    m = IndexSet.from_iterable(8, [4, 0, 1])
    assert m.members == (0, 1, 4)
    assert list(m) == [0, 1, 4]
    with pytest.raises(IndexOutOfRange):
        IndexSet.from_iterable(8, [0, 8])
    with pytest.raises(ValueError):
        IndexSet.from_iterable(8, [0, 0, 1])


def test_index_set_reads_members_through_operator_index():
    # numpy integers are read as ints, and True as the int 1.
    m = IndexSet.from_iterable(7, np.array([3, 0, 1]))
    assert m.members == (0, 1, 3) and all(type(r) is int for r in m)
    m = IndexSet.from_iterable(5, [True, 3])
    assert m.members == (1, 3) and type(m.members[0]) is int
    assert IndexSet(5, (np.int64(0), True)).members == (0, 1)
    # A member that is not an integer is out of range, as before.
    for bad in (1.0, np.float64(1), "1", None, np.array([1])):
        with pytest.raises(IndexOutOfRange):
            IndexSet.from_iterable(5, [0, bad])


def test_index_set_operations():
    m = IndexSet.from_iterable(4, (0, 1))
    assert m.translate(1).members == (1, 2)
    assert m.translate(-1).members == (0, 3)
    assert m.complement().members == (2, 3)
    assert IndexSet.from_iterable(7, (0, 1, 2)).dilate(3).members == (0, 3, 6)
    with pytest.raises(BadModulus):
        IndexSet.from_iterable(8, (0, 2)).dilate(2)


def test_distribution_report_examples():
    m = IndexSet.from_iterable(8, (0, 1, 4))
    r2 = distribution_report(m, 2)
    assert r2.coset_counts == (2, 1) and r2.uniform
    r4 = distribution_report(m, 4)
    assert r4.coset_counts == (2, 1, 0, 0) and not r4.uniform

    pair = IndexSet.from_iterable(8, (0, 2))
    assert distribution_report(pair, 4).coset_counts == (1, 0, 1, 0)
    assert distribution_report(pair, 4).uniform
    assert distribution_report(pair, 2).coset_counts == (2, 0)
    assert not distribution_report(pair, 2).uniform


def test_distribution_report_counts_sum_and_bounds():
    rng = random.Random(12)
    for _ in range(50):
        order = rng.choice((6, 8, 9, 12))
        size = rng.randint(1, order)
        m = IndexSet.from_iterable(order, rng.sample(range(order), size))
        for d in (1, 2) if order % 2 == 0 else (1, 3):
            rep = distribution_report(m, d)
            assert sum(rep.coset_counts) == size
            assert rep.lo == size // d and rep.hi == -(-size // d)
            assert rep.uniform == all(c in (rep.lo, rep.hi) for c in rep.coset_counts)


def test_distribution_report_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        distribution_report(IndexSet.from_iterable(8, (0, 1)), 3)


def test_uniformity_of_prefixes_and_full_set():
    for order in (4, 6, 9, 12):
        for size in range(1, order + 1):
            m = IndexSet.from_iterable(order, range(size))
            assert is_uniformly_distributed(m).uniform
    assert is_uniformly_distributed(IndexSet.from_iterable(12, range(12))).uniform


def test_uniformity_rejects_empty():
    with pytest.raises(DegenerateSet):
        is_uniformly_distributed(IndexSet(8, ()))


def test_singer_set_violates_divisor_11():
    m = IndexSet.from_iterable(121, SINGER_121)
    res = is_uniformly_distributed(m)
    assert not res.uniform
    assert [v.divisor for v in res.violations] == [11]


def test_full_spark_prime_power_examples(dft_status):
    assert not full_spark_prime_power(IndexSet.from_iterable(4, (0, 2))).full_spark
    assert full_spark_prime_power(IndexSet.from_iterable(4, (0, 1))).full_spark
    assert dft_status(4)[(0, 1)] and not dft_status(4)[(0, 2)]
    assert full_spark_prime_power(IndexSet.from_iterable(9, (0, 1, 2))).full_spark
    with pytest.raises(NotPrimePower):
        full_spark_prime_power(IndexSet.from_iterable(10, (0, 1)))


def test_prime_power_characterization_exhaustive(dft_status):
    for order in (4, 8, 9):
        status = dft_status(order)
        for size in range(1, order):
            for rows in itertools.combinations(range(order), size):
                verdict = full_spark_prime_power(IndexSet.from_iterable(order, rows))
                assert verdict.full_spark == status[rows], (order, rows)


def test_necessity_of_uniform_distribution_general_orders():
    # Non-uniform rows always produce a singular square submatrix.  A high
    # coset count yields the constructed witness; the few sets with only
    # low counts are refuted by the exhaustive sweep directly.
    for order in (6, 10, 12):
        for size in range(1, order):
            for rows in itertools.combinations(range(order), size):
                res = is_uniformly_distributed(IndexSet.from_iterable(order, rows))
                if res.uniform:
                    continue
                rep = next(
                    (v for v in res.violations if max(v.coset_counts) >= v.hi + 1),
                    None,
                )
                if rep is not None:
                    cols = _singular_witness_columns(order, size, rep)
                    sub = dft_submatrix(order, rows, cols)
                    assert det_exact(sub).is_zero(), (order, rows, cols)
                else:
                    cert = is_full_spark(dft_submatrix(order, rows))
                    assert not cert.full_spark, (order, rows)


def test_non_sufficiency_witness_order_10():
    m = IndexSet.from_iterable(10, (0, 1, 3, 4))
    assert is_uniformly_distributed(m).uniform
    sub = dft_submatrix(10, (0, 1, 3, 4), (0, 1, 2, 6))
    assert det_exact(sub).is_zero()


def test_closure_orbit_examples():
    orbit = closure_orbit(IndexSet.from_iterable(4, (0, 1)))
    members = {o.members for o in orbit}
    assert {(1, 2), (2, 3), (0, 3)} <= members
    assert (2, 3) in members  # complement of the seed

    orbit7 = closure_orbit(IndexSet.from_iterable(7, (0, 1, 2)))
    assert (0, 3, 6) in {o.members for o in orbit7}


def _bfs_closure_orbit(m: IndexSet, cap: int = ORBIT_CAP) -> frozenset[IndexSet]:
    """Orbit of an index set under translation, unit dilation, complement.

    These are exactly the operations that preserve the full-spark property
    of the corresponding DFT rows, so every orbit member shares the seed's
    status.  Proper nonempty sets only; the orbit size is capped.
    """
    n = m.order
    if not m.members or len(m.members) == n:
        raise DegenerateSet("orbit needs a proper nonempty set")
    units = [a for a in range(2, n) if math.gcd(a, n) == 1]
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for s in frontier:
            images = [s.translate(1), s.complement()]
            images.extend(s.dilate(a) for a in units)
            for img in images:
                if img not in seen:
                    seen.add(img)
                    if len(seen) > cap:
                        raise BudgetExceeded(f"orbit exceeds cap {cap}")
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def _orbit_or_message(orbit, m, cap):
    try:
        return orbit(m, cap)
    except BudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("order", range(2, 11))
def test_closure_orbit_matches_breadth_first_search(order):
    # The closed form against a search over the three generators, the
    # orbit's definition, on every proper nonempty row set.  An uncapped
    # search from any member finds the same orbit, so it runs once per orbit.
    orbits = {}
    for size in range(1, order):
        for rows in itertools.combinations(range(order), size):
            m = IndexSet(order, rows)
            if m not in orbits:
                orbit = _bfs_closure_orbit(m, ORBIT_CAP)
                orbits.update(dict.fromkeys(orbit, orbit))
            assert closure_orbit(m, ORBIT_CAP) == orbits[m], rows
            for cap in (1, 3, 47):
                want = _orbit_or_message(_bfs_closure_orbit, m, cap)
                assert _orbit_or_message(closure_orbit, m, cap) == want, (rows, cap)


def _all_maps_orbit(m):
    """Images of m under every x -> u*x + t, and their complements."""
    n = m.order
    images = {
        tuple(sorted((u * x + t) % n for x in m))
        for u in range(1, n) if math.gcd(u, n) == 1 for t in range(n)
    }
    return images | {tuple(x for x in range(n) if x not in set(s)) for s in images}


@pytest.mark.parametrize("order, rows", [
    (64, range(0, 64, 4)),  # translation period 4
    (64, [x for x in range(64) if x % 4]),  # its complement, the larger side
    (128, range(0, 128, 2)),  # half of Z_128, period 2: orbit {evens, odds}
    (2, [0]), (64, [0]), (127, [0]), (128, [0]),
    (64, [0, 1, 3]), (128, [0, 1, 3, 9, 20]),
    (60, [0, 1, 2, 4, 7, 11, 15, 16, 20, 21, 22, 25, 27, 30, 31, 33, 35, 36, 40, 41,
          42, 44, 45, 47, 50, 51, 53, 55, 56, 59]),  # half of Z_60, aperiodic
])
def test_closure_orbit_is_the_image_set_of_all_affine_maps(order, rows):
    m = IndexSet.from_iterable(order, rows)
    want = _all_maps_orbit(m)
    assert {s.members for s in closure_orbit(m, cap=len(want))} == want
    with pytest.raises(BudgetExceeded, match=f"^orbit exceeds cap {len(want) - 1}$"):
        closure_orbit(m, cap=len(want) - 1)
    # Each member comes with its complement: N / 2 entries a member.
    entries = sum(map(len, want))
    assert 2 * entries == order * len(want)
    assert {s.members for s in closure_orbit(m, max_entries=entries)} == want
    with pytest.raises(BudgetExceeded, match=f"^orbit exceeds {entries - 1} row entries$"):
        closure_orbit(m, max_entries=entries - 1)


def test_closure_orbit_guards():
    with pytest.raises(DegenerateSet):
        closure_orbit(IndexSet.from_iterable(4, range(4)))
    with pytest.raises(DegenerateSet):
        closure_orbit(IndexSet(4, ()))
    with pytest.raises(BudgetExceeded):
        closure_orbit(IndexSet.from_iterable(8, (0, 1, 3)), cap=3)


def test_closure_orbit_preserves_full_spark_status(dft_status):
    status = dft_status(8)
    rng = random.Random(2024)
    population = [rows for rows in status if len(rows) < 8]
    for seed_rows in rng.sample(population, 20):
        seed_status = status[seed_rows]
        orbit = closure_orbit(IndexSet.from_iterable(8, seed_rows))
        for member in orbit:
            assert status[member.members] == seed_status, (seed_rows, member.members)


def test_complement_of_uniform_is_uniform_prime_powers():
    for order in (8, 9):
        for size in range(1, order):
            for rows in itertools.combinations(range(order), size):
                m = IndexSet.from_iterable(order, rows)
                assert (
                    is_uniformly_distributed(m).uniform
                    == is_uniformly_distributed(m.complement()).uniform
                )


def test_rip_check_full_set_has_zero_deviation():
    for order in (6, 12):
        m = IndexSet.from_iterable(order, range(order))
        for k in (1, 2, order):
            res = rip_necessary_check(m, k, 1e-9)
            assert res.passes and res.violations == ()


def test_rip_check_threshold_example():
    m = IndexSet.from_iterable(8, (0, 1, 4))
    tight = rip_necessary_check(m, 2, 0.3)
    assert not tight.passes
    assert (2, 0, 2) in tight.violations
    loose = rip_necessary_check(m, 2, 0.4)
    assert loose.passes and loose.violations == ()
