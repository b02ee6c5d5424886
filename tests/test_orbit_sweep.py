"""The affine-orbit sweep for DFT rows over all N columns.

The generator must give exactly the lex-min member of every orbit of the
affine group c -> u c + t of Z_N on size-k subsets, in lex order; that is
checked against brute-force orbits for every N <= 15 and every k.  The
differential gate then forces the plain lex sweep by replacing the
detection helper, and requires the same certificate JSON, BudgetExceeded
message and k_reached on every row subset of small DFT orders.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from sparkforge import spark_engine
from sparkforge.errors import BudgetExceeded
from sparkforge.exact_linalg import dft_submatrix
from sparkforge.spark_engine import (
    DEFAULT_BUDGET,
    _orbit_representatives,
    _orbit_walk,
    is_full_spark,
    spark,
)

from test_spark_fp import _boundary_budgets


@functools.lru_cache(maxsize=None)
def _orbits(n, k):
    """{lex-min member: members} over the affine orbits of size-k subsets of Z_n."""
    maps = [(u, t) for u in range(1, n + 1) if math.gcd(u, n) == 1 for t in range(n)]
    orbits, seen = {}, set()
    for subset in itertools.combinations(range(n), k):
        if subset not in seen:
            members = {tuple(sorted((u * x + t) % n for x in subset)) for u, t in maps}
            seen |= members
            orbits[subset] = members
    return orbits


def _walk(n, k, after=None):
    return [tuple(row) for chunk in _orbit_walk(n, k, after) for row in chunk.tolist()]


@pytest.mark.parametrize("n", range(1, 16))
def test_one_lex_min_representative_per_orbit_in_lex_order(n):
    for k in range(n + 1):
        reps = _walk(n, k)
        orbits = _orbits(n, k)
        assert reps == sorted(reps) and len(set(reps)) == len(reps), (n, k)
        assert reps == list(orbits), (n, k)
        assert all(min(orbits[r]) == r for r in reps), (n, k)
        if k:
            # Every prefix of a lex-min member is lex-min: the walk's pruning.
            assert {r[:-1] for r in reps} <= set(_walk(n, k - 1)), (n, k)
    assert _walk(n, 0) == [()] and _walk(n, n) == [tuple(range(n))]


@pytest.mark.parametrize("n, k", [(8, 4), (12, 5), (13, 3), (15, 7), (9, 0), (9, 9)])
def test_walk_resumes_after_any_representative(n, k):
    reps = _walk(n, k)
    for i, rep in enumerate(reps):
        assert _walk(n, k, rep) == reps[i + 1 :]


def _cache(monkeypatch, limit=None):
    """An empty representative cache, optionally with another byte bound."""
    monkeypatch.setattr(spark_engine, "_orbit_cache", {})
    monkeypatch.setattr(spark_engine, "_orbit_cache_bytes", 0)
    if limit is not None:
        monkeypatch.setattr(spark_engine, "_ORBIT_CACHE_BYTES", limit)
    return spark_engine._orbit_cache


def _kept(cache, n, k):
    rows, complete = cache[n, k]
    assert rows.dtype == np.uint8
    return [tuple(row) for row in rows.tolist()], complete


def test_cache_keeps_a_partial_walk_and_resumes_it(monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(16, 6)
    for stop in (5, 20):
        partial = _orbit_representatives(16, 6)
        assert list(itertools.islice(partial, stop)) == reps[:stop]
        partial.close()
        kept, complete = _kept(cache, 16, 6)
        assert stop <= len(kept) < len(reps) and kept == reps[: len(kept)] and not complete
    for _ in range(2):
        assert list(_orbit_representatives(16, 6)) == reps
        assert _kept(cache, 16, 6) == (reps, True)


def test_cache_stays_within_its_byte_bound(monkeypatch):
    cache = _cache(monkeypatch, limit=800)
    for n, k in [(13, 4), (16, 6), (15, 7)]:
        reps = _walk(n, k)
        for _ in range(2):
            assert list(_orbit_representatives(n, k)) == reps
        assert spark_engine._orbit_cache_bytes <= 800
    # 28 and 504 row bytes fit in 800; the 462 of (15, 7) do not.
    for n, k in [(13, 4), (16, 6)]:
        assert _kept(cache, n, k) == (_walk(n, k), True)
    assert not cache[15, 7][1]
    assert sum(rows.nbytes for rows, _ in cache.values()) == spark_engine._orbit_cache_bytes


def test_cache_charges_row_bytes_not_array_headers(monkeypatch):
    # The walk of (20, 8) yields 889 rows (7,112 bytes) in 320 small arrays,
    # whose numpy headers alone would pass a 16 KiB bound.
    cache = _cache(monkeypatch, limit=16 << 10)
    assert list(_orbit_representatives(20, 8)) == _walk(20, 8)
    rows, complete = _kept(cache, 20, 8)
    assert complete and len(rows) == 889
    assert spark_engine._orbit_cache_bytes == 889 * 8


def test_cache_joins_a_long_walk_1024_arrays_at_a_time(monkeypatch):
    # The walk of (22, 10) yields 2,990 rows in more than 1024 arrays, so
    # the walk joins what it holds before it ends.
    cache = _cache(monkeypatch)
    assert sum(1 for _ in _orbit_walk(22, 10)) > 1024
    reps = _walk(22, 10)
    assert len(reps) == 2990
    assert list(_orbit_representatives(22, 10)) == reps
    assert _kept(cache, 22, 10) == (reps, True)
    assert spark_engine._orbit_cache_bytes == 2990 * 10
    assert list(_orbit_representatives(22, 10)) == reps


def test_interleaved_walks_of_one_size_agree(monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(14, 6)
    one, two = _orbit_representatives(14, 6), _orbit_representatives(14, 6)
    pairs = list(zip(one, two))
    assert [a for a, _ in pairs] == [b for _, b in pairs] == reps
    assert list(one) == list(two) == []
    assert _kept(cache, 14, 6) == (reps, True)
    assert cache[14, 6][0].nbytes == spark_engine._orbit_cache_bytes
    assert list(_orbit_representatives(14, 6)) == reps
    # A walk stopped early after a complete one leaves the longer entry.
    cache.clear()
    monkeypatch.setattr(spark_engine, "_orbit_cache_bytes", 0)
    early = _orbit_representatives(14, 6)
    next(early)
    assert list(_orbit_representatives(14, 6)) == reps
    early.close()
    assert _kept(cache, 14, 6) == (reps, True)
    assert cache[14, 6][0].nbytes == spark_engine._orbit_cache_bytes


def test_early_refutation_walks_only_a_prefix_of_the_level(monkeypatch):
    cache = _cache(monkeypatch)
    rows = (1, 5, 6, 7, 9, 11, 12, 13, 14, 19, 21, 23)
    cert = is_full_spark(dft_submatrix(24, rows), budget=math.comb(24, 12))
    assert cert.witness == (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 15, 19)
    assert cert.checked_subsets == 137
    # 15,008 orbits in all; the refutation stops in the first block.
    assert len(cache[24, 12][0]) < 100 and not cache[24, 12][1]


def _outcome(call):
    try:
        return call().as_dict()
    except BudgetExceeded as exc:
        return (str(exc), exc.k_reached)


# The certificate depends on the row set only through its affine orbit:
# rows u R + s give every column a unit factor and every entry sigma_u,
# which preserves the rank of every column subset.  So the plain sweep runs
# once per orbit of row sets, and the orbit sweep on every row subset.
def _row_orbits(order):
    return ((rep, sorted(members)) for size in range(order + 1)
            for rep, members in _orbits(order, size).items())


def _plain(call, a, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spark_engine, "_dft_rows", lambda a, coeffs: None)
        return _outcome(lambda: call(a, budget))


@pytest.mark.parametrize("order", range(2, 13))
def test_full_spark_orbit_sweep_matches_plain_sweep(order):
    for rep, members in _row_orbits(order):
        expected = _plain(is_full_spark, dft_submatrix(order, rep), DEFAULT_BUDGET)
        for rows in members:
            assert _outcome(lambda: is_full_spark(dft_submatrix(order, rows))) == expected, rows


@pytest.mark.parametrize("order", range(2, 11))
def test_spark_orbit_sweep_matches_plain_sweep_at_every_budget(order):
    # BudgetExceeded and k_reached come from the level rule, which sees only
    # the column count and the budget, so every level-boundary budget runs
    # on one row set per orbit and the default budget on every row subset.
    for rep, members in _row_orbits(order):
        a = dft_submatrix(order, rep)
        expected = {b: _plain(spark, a, b) for b in _boundary_budgets(a)}
        assert {b: _outcome(lambda: spark(a, b)) for b in expected} == expected, rep
        for rows in members:
            got = _outcome(lambda: spark(dft_submatrix(order, rows)))
            assert got == expected[DEFAULT_BUDGET], rows
