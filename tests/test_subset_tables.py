"""The subset-index tables the block search stacks.

_subset_rows(n, k, orbits) yields the size-k subsets of range(n) in lex
order (orbits False) or the lex-min member of each affine orbit (orbits
True) as arrays of column indices, replayed from one LRU byte cache; the
rows past the kept ones come from a walk that starts again at the first
row.  The plain tables are checked against itertools.combinations,
resumption after every kept row, indices past uint8,
the byte bound under a mix of plain and orbit keys, and a plain walk
stopped early.  Every witness a certificate reports must be a tuple of
Python ints, so that the CLI's JSON output never meets a numpy integer.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from sparkforge import spark_engine, sweep
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix
from sparkforge.matroid import BipartiteGraph, girth_via_representation
from sparkforge.spark_engine import _lex_walk, is_full_spark, spark

from test_orbit_sweep import _cache, _held, _keep, _kept, _representatives, _walk, _walks


def _lex(n, k):
    return [tuple(row) for rows in _lex_walk(n, k) for row in rows.tolist()]


@pytest.mark.parametrize("n", range(13))
def test_plain_tables_are_the_combinations_in_lex_order(n, monkeypatch):
    cache = _cache(monkeypatch)
    for k in range(n + 1):
        combos = list(itertools.combinations(range(n), k))
        assert _lex(n, k) == combos, (n, k)
        assert all(rows.dtype == np.uint8 for rows in _lex_walk(n, k))
        for _ in range(2):  # walked, then replayed
            assert list(_representatives(n, k, False)) == combos, (n, k)
        assert _kept(cache, n, k, False) == (combos, True)


@pytest.mark.parametrize("n", range(11))
def test_plain_walk_resumes_after_every_row(n, monkeypatch):
    cache = _cache(monkeypatch)
    for k in range(n + 1):
        combos = list(itertools.combinations(range(n), k))
        for i in range(len(combos)):
            _keep(cache, n, k, False, combos[: i + 1])
            assert list(_representatives(n, k, False)) == combos, (n, k, i)
            assert _kept(cache, n, k, False) == (combos, True)


@pytest.mark.parametrize("n, k", [(9, 4), (12, 6), (7, 0), (7, 7), (12, 1)])
def test_cache_resumes_a_plain_table_after_any_stored_prefix(n, k, monkeypatch):
    cache = _cache(monkeypatch)
    combos = list(itertools.combinations(range(n), k))
    for stop in range(len(combos) + 1):
        cache.clear()
        partial = _representatives(n, k, False)
        assert list(itertools.islice(partial, stop)) == combos[:stop]
        partial.close()
        kept, _ = _kept(cache, n, k, False) if (n, k, False) in cache else ([], False)
        assert kept == combos[: len(kept)] and len(kept) >= stop
        assert list(_representatives(n, k, False)) == combos
        assert _kept(cache, n, k, False) == (combos, True)


def test_plain_tables_past_uint8_hold_every_index(monkeypatch):
    assert spark_engine._index_dtype(256) == np.uint8
    assert spark_engine._index_dtype(257) == np.uint16
    for k in (1, 2):
        tables = list(_lex_walk(300, k))
        assert all(rows.dtype == np.uint16 for rows in tables)
        assert _lex(300, k) == list(itertools.combinations(range(300), k))
    # A kept uint16 prefix ending past column 255, and the rows after it.
    cache = _cache(monkeypatch)
    combos = list(itertools.combinations(range(300), 2))
    stop = combos.index((270, 297)) + 1
    _keep(cache, 300, 2, False, combos[:stop])
    tables = list(spark_engine._subset_rows(300, 2, False))
    assert all(rows.dtype == np.uint16 for rows in tables) and len(tables[0]) == stop
    assert [tuple(row) for rows in tables for row in rows.tolist()] == combos


def test_spark_witness_past_column_255_is_exact():
    # Two parallel columns at 256 and 290 of 300 pairwise independent ones:
    # uint8 indices would wrap to columns 0 and 34.
    cols = [(1, c * c + 1) for c in range(300)]
    cols[290] = (3, 3 * (256 * 256 + 1))
    a = ExactMatrix.from_rows([[c[i] for c in cols] for i in range(2)])
    cert = spark(a)
    assert (cert.spark, cert.witness) == (2, (256, 290))
    assert cert.checked_subsets == 300 + sweep._lex_rank(300, (256, 290)) + 1


def test_byte_bound_holds_under_plain_and_orbit_keys(monkeypatch):
    cache = _cache(monkeypatch, limit=2000)
    # Row bytes: plain (12, 4) 1,980, (10, 3) 360 and (9, 2) 72; orbit
    # (16, 6) 504 and (13, 4) 28.
    levels = [(10, 3, False), (16, 6, True), (9, 2, False), (13, 4, True), (10, 3, False)]
    for n, k, orbits in levels:
        want = _walk(n, k) if orbits else list(itertools.combinations(range(n), k))
        assert list(_representatives(n, k, orbits)) == want
        assert _held(cache) <= 2000
    assert list(cache) == [(16, 6, True), (9, 2, False), (13, 4, True), (10, 3, False)]
    assert _held(cache) == 504 + 72 + 28 + 360
    # (12, 4) fits alone: every other key goes, the least recently used first.
    assert list(_representatives(12, 4, False)) == list(itertools.combinations(range(12), 4))
    assert list(cache) == [(12, 4, False)] and _held(cache) == 1980
    # A plain level larger than the bound keeps a prefix that fits, alone.
    combos = list(itertools.combinations(range(14), 5))
    assert list(_representatives(14, 5, False)) == combos
    kept, complete = _kept(cache, 14, 5, False)
    assert list(cache) == [(14, 5, False)] and not complete
    assert kept == combos[: len(kept)] and 0 < len(kept) * 5 == _held(cache) <= 2000


def test_plain_and_orbit_tables_of_one_size_are_kept_apart(monkeypatch):
    cache = _cache(monkeypatch)
    assert list(_representatives(12, 4, True)) == _walk(12, 4)
    assert list(_representatives(12, 4, False)) == list(itertools.combinations(range(12), 4))
    assert _kept(cache, 12, 4, True) == (_walk(12, 4), True)
    assert _kept(cache, 12, 4, False)[0] == list(itertools.combinations(range(12), 4))


def test_plain_walk_stopped_early_is_kept_and_resumed(monkeypatch):
    cache = _cache(monkeypatch)
    combos = list(itertools.combinations(range(16), 6))
    partial = _representatives(16, 6, False)
    assert list(itertools.islice(partial, 40)) == combos[:40]
    partial.close()
    kept, complete = _kept(cache, 16, 6, False)
    assert 40 <= len(kept) < len(combos) and kept == combos[: len(kept)] and not complete
    walks = _walks(monkeypatch, "_lex_walk")
    for _ in range(2):
        assert list(_representatives(16, 6, False)) == combos
        assert _kept(cache, 16, 6, False) == (combos, True)
    # One walk, from the first row again; the second call only replays.
    assert walks == [(16, 6)]


def test_early_refutation_walks_only_a_prefix_of_a_plain_level(monkeypatch):
    cache = _cache(monkeypatch)
    # Columns 0 and 1 are equal, so the first block of pairs settles it.
    a = ExactMatrix.from_rows([[1, 1] + [c + 2 for c in range(38)],
                               [2, 2] + [c * c for c in range(38)]])
    cert = spark(a, budget=40 + math.comb(40, 2))
    assert (cert.spark, cert.witness, cert.checked_subsets) == (2, (0, 1), 41)
    kept, complete = _kept(cache, 40, 2, False)
    assert kept[0] == (0, 1) and len(kept) < 100 and not complete


def _witnesses():
    rng = random.Random(7)
    for _ in range(6):
        m, n = rng.randint(2, 4), rng.randint(4, 9)
        a = ExactMatrix(m, n, [rng.randint(-1, 1) for _ in range(m * n)])
        yield spark(a), spark(a)
        if m <= n:
            yield is_full_spark(a), is_full_spark(a)
    for rows in [(0, 1), (0, 3, 5), (1, 2, 4, 5)]:
        a = dft_submatrix(12, rows)  # the orbit sweep
        yield spark(a), is_full_spark(a)
        b = dft_submatrix(12, rows, range(1, 12))  # the plain sweep
        yield spark(b), is_full_spark(b)
    g = BipartiteGraph(6, 4, ((0, 1), (1, 2), (0, 2), (2, 3), (3,), (0, 1)))
    yield girth_via_representation(g, 3, 1), girth_via_representation(g, 3, 1)


def test_every_witness_is_a_tuple_of_python_ints():
    found = 0
    for pair in _witnesses():
        for result in pair:
            json.dumps(result.as_dict())
            if result.witness is not None:
                found += 1
                assert type(result.witness) is tuple
                assert all(type(c) is int for c in result.witness), result
    assert found >= 10
