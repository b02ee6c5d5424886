"""The affine-orbit sweep for DFT rows over all N columns.

The generator must give exactly the lex-min member of every orbit of the
affine group c -> u c + t of Z_N on size-k subsets, in lex order; that is
checked against brute-force orbits for every N <= 15 and every k.  The
differential gate then forces the plain lex sweep by replacing the
detection helper, and requires the same certificate JSON, BudgetExceeded
message and k_reached on every row subset of small DFT orders, and on a
dozen row sets of order 64, the largest the orbit sweep takes.
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
    _orbit_walk,
    _subset_rows,
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


def _walk(n, k):
    return [tuple(row) for chunk in _orbit_walk(n, k) for row in chunk.tolist()]


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
def test_walk_resumes_after_any_representative(n, k, monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(n, k)
    for i in range(len(reps)):
        _keep(cache, n, k, True, reps[: i + 1])
        assert list(_representatives(n, k)) == reps
        assert _kept(cache, n, k) == (reps, True)


def _cache(monkeypatch, limit=None):
    """An empty subset-table cache, optionally with another byte bound."""
    monkeypatch.setattr(spark_engine, "_subset_cache", {})
    if limit is not None:
        monkeypatch.setattr(spark_engine, "_SUBSET_CACHE_BYTES", limit)
    return spark_engine._subset_cache


def _keep(cache, n, k, orbits, rows):
    """Store ``rows`` as the kept, incomplete prefix of the key's table."""
    data = np.array(rows, dtype=spark_engine._index_dtype(n)).reshape(len(rows), k).tobytes()
    cache[n, k, orbits] = data, len(rows), False


def _kept(cache, n, k, orbits=True):
    data, count, complete = cache[n, k, orbits]
    rows = np.frombuffer(data, dtype=spark_engine._index_dtype(n)).reshape(count, k)
    return [tuple(row) for row in rows.tolist()], complete


def _held(cache):
    return sum(len(data) for data, _, _ in cache.values())


def _representatives(n, k, orbits=True):
    """_subset_rows(n, k, orbits) row by row, as tuples; closing it closes the table's walk."""
    tables = _subset_rows(n, k, orbits)
    try:
        for rows in tables:
            yield from map(tuple, rows.tolist())
    finally:
        tables.close()


def _walks(monkeypatch, name="_orbit_walk"):
    """The (n, k) of every walk ``name`` the cache starts from now on."""
    calls, walk = [], getattr(spark_engine, name)

    def counting(n, k):
        calls.append((n, k))
        return walk(n, k)

    monkeypatch.setattr(spark_engine, name, counting)
    return calls


def test_cache_keeps_a_partial_walk_and_resumes_it(monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(16, 6)
    for stop in (5, 20):
        partial = _representatives(16, 6)
        assert list(itertools.islice(partial, stop)) == reps[:stop]
        partial.close()
        kept, complete = _kept(cache, 16, 6)
        assert stop <= len(kept) < len(reps) and kept == reps[: len(kept)] and not complete
    walks = _walks(monkeypatch)
    for _ in range(2):
        assert list(_representatives(16, 6)) == reps
        assert _kept(cache, 16, 6) == (reps, True)
    # One walk, from the first row again; the second call only replays.
    assert walks == [(16, 6)]


def test_interleaved_walks_of_one_size_agree(monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(14, 6)
    one, two = _representatives(14, 6), _representatives(14, 6)
    pairs = list(zip(one, two))
    assert [a for a, _ in pairs] == [b for _, b in pairs] == reps
    assert list(one) == list(two) == []
    assert _kept(cache, 14, 6) == (reps, True) and _held(cache) == len(reps) * 6
    walks = _walks(monkeypatch)
    assert list(_representatives(14, 6)) == reps and walks == []


def test_walk_stopped_early_after_a_complete_one_leaves_the_longer_entry(monkeypatch):
    cache = _cache(monkeypatch)
    reps = _walk(14, 6)
    early = _representatives(14, 6)
    next(early)
    assert list(_representatives(14, 6)) == reps
    early.close()
    assert _kept(cache, 14, 6) == (reps, True) and _held(cache) == len(reps) * 6


def test_cache_stays_within_its_byte_bound(monkeypatch):
    cache = _cache(monkeypatch, limit=800)
    # Row bytes: (13, 4) 28, (16, 6) 504, (15, 7) 462 and (18, 8) 3,488.
    for n, k in [(13, 4), (16, 6), (13, 4), (15, 7)]:
        assert list(_representatives(n, k)) == _walk(n, k)
        assert _held(cache) <= 800
    # All three pass 800, so (16, 6), the least recently used, went first.
    assert list(cache) == [(13, 4, True), (15, 7, True)]
    for n, k in [(13, 4), (15, 7)]:
        assert _kept(cache, n, k) == (_walk(n, k), True)
    # A level larger than the bound keeps a prefix that fits, alone.
    reps = _walk(18, 8)
    assert list(_representatives(18, 8)) == reps
    kept, complete = _kept(cache, 18, 8)
    assert list(cache) == [(18, 8, True)] and not complete
    assert kept == reps[: len(kept)] and 0 < len(kept) * 8 == _held(cache) <= 800
    assert list(_representatives(18, 8)) == reps


def test_cache_charges_row_bytes_not_array_headers(monkeypatch):
    # The walk of (20, 8) yields 889 rows (7,112 bytes) in 320 small arrays,
    # whose numpy headers alone would pass a 16 KiB bound.
    cache = _cache(monkeypatch, limit=16 << 10)
    assert list(_representatives(20, 8)) == _walk(20, 8)
    rows, complete = _kept(cache, 20, 8)
    assert complete and len(rows) == 889 and _held(cache) == 889 * 8


def test_cache_keeps_and_replays_a_level_of_many_arrays(monkeypatch):
    # The walk of (22, 10) yields 2,990 rows in more than 1024 arrays, and
    # the replay gives them back as one table.
    cache = _cache(monkeypatch)
    assert sum(1 for _ in _orbit_walk(22, 10)) > 1024
    reps = _walk(22, 10)
    assert len(reps) == 2990
    assert list(_representatives(22, 10)) == reps
    assert _kept(cache, 22, 10) == (reps, True) and _held(cache) == 2990 * 10
    assert list(_representatives(22, 10)) == reps
    assert [len(rows) for rows in _subset_rows(22, 10, True)] == [2990]


def test_small_level_replays_after_large_levels_fill_the_bound(monkeypatch):
    # (16, 6) and (15, 7) each fit in 520 row bytes, but not together, and
    # (16, 6) leaves no room for the 28 of (13, 4): the cache must drop a
    # large size to keep the small one, or walk it on every call.
    cache = _cache(monkeypatch, limit=520)
    for n, k in [(16, 6), (15, 7), (16, 6), (15, 7)]:
        assert list(_representatives(n, k)) == _walk(n, k)
    walks = _walks(monkeypatch)
    for _ in range(3):
        assert list(_representatives(13, 4)) == _walk(13, 4)
    assert walks == [(13, 4)] and _held(cache) <= 520


def test_early_refutation_walks_only_a_prefix_of_the_level(monkeypatch):
    cache = _cache(monkeypatch)
    rows = (1, 5, 6, 7, 9, 11, 12, 13, 14, 19, 21, 23)
    cert = is_full_spark(dft_submatrix(24, rows), budget=math.comb(24, 12))
    assert cert.witness == (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 15, 19)
    assert cert.checked_subsets == 137
    # 15,008 orbits in all; the refutation stops in the first block.
    kept, complete = _kept(cache, 24, 12)
    assert len(kept) < 100 and not complete


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


def _no_orbit_walk(n, k):
    raise AssertionError(f"the plain sweep walked the orbits of ({n}, {k})")


def _lex_rows_only(n, k, orbits):
    if orbits:
        raise AssertionError(f"the plain sweep read the orbit table of ({n}, {k})")
    return _subset_rows(n, k, orbits)


def _plain(call, a, budget):
    # Orbit rows reach a sweep only through _subset_rows, walked or replayed
    # from the cache, and are walked only by _orbit_walk: both fail here.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spark_engine, "_dft_rows", lambda a, exponents: False)
        mp.setattr(spark_engine, "_subset_rows", _lex_rows_only)
        mp.setattr(spark_engine, "_orbit_walk", _no_orbit_walk)
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


# Row sets of the 64th DFT, full spark and refuted at sizes 2 and 3.
_ROWS_64 = [(0, 1), (0, 3), (0, 32), (1, 3), (0, 16), (0, 1, 2), (0, 1, 3), (0, 2, 4),
            (0, 1, 33), (1, 5, 9), (3, 7, 30), (0, 16, 32)]


@pytest.mark.parametrize("rows", _ROWS_64, ids=lambda rows: ",".join(map(str, rows)))
def test_orbit_sweep_matches_plain_sweep_at_order_64(rows):
    # Masks of 64 columns use all 64 bits of uint64.
    a = dft_submatrix(64, rows)
    assert spark_engine._dft_rows(a, spark_engine._root_exponents(a))
    for call in (is_full_spark, spark):
        assert _outcome(lambda: call(a, DEFAULT_BUDGET)) == _plain(call, a, DEFAULT_BUDGET)
