"""The block search flags subsets under the first ring map alone.

A k x k image R_k A_S whose last pivot is nonzero under one map proves S
independent, and a subset deficient under that map has a zero last pivot
there, so every subset that is deficient under all maps of the first
prime is flagged and reaches the norm-bound proof.  Checked on seeded
random integer and Q(w) matrices with planted dependent columns: the
one-map flags against _vanishing_mod_p under every map, and spark and
is_full_spark against the rank_exact and det_exact sweeps.
"""

import itertools
import random

import numpy as np
import pytest

from sparkforge.exact_arith import _root_table
from sparkforge.exact_linalg import ExactMatrix
from sparkforge.spark_engine import (
    _images,
    _integral_coeffs,
    _last_pivot_vanishes,
    _mulmod,
    _root_exponents,
    _root_images,
    _row_mixing,
    _vanishing_mod_p,
    is_full_spark,
    spark,
)

from test_full_spark_engine import oracle as det_sweep
from test_spark_fp import _random_scalar
from test_spark_fp import oracle as rank_sweep


def _planted(rng, order, m, n):
    """An m x n matrix with column j a combination of two earlier columns:
    roots of unity (column j a root times column i), Q(w) entries with
    denominators, or integers, some near multiples of the first prime."""
    kind = rng.choice(["roots", "scalars"] if order > 1 else ["integers"])
    p = _root_images(order, 0)[0]
    if kind == "roots":
        roots = _root_table(order)[0]
        exps = [[rng.randrange(order) for _ in range(n)] for _ in range(m)]
    elif kind == "scalars":
        cols = [[_random_scalar(rng, order, rng.choice([0, 3])) for _ in range(m)] for _ in range(n)]
    else:
        values = [-3, -1, 0, 1, 2, 5, p, p - 1, 2 * p + 1]
        cols = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
    if n > 1:
        j = rng.randrange(1, n)
        i, l = rng.sample(range(j), 2) if j > 1 else (0, 0)
        if kind == "roots":
            s = rng.randrange(order)
            for row in exps:
                row[j] = (row[i] + s) % order
        elif kind == "scalars":
            f, g = (_random_scalar(rng, order, 1) for _ in range(2))
            cols[j] = [f * x + g * y for x, y in zip(cols[i], cols[l])]
        else:
            f, g = rng.randint(-3, 3), rng.randint(-3, 3)
            cols[j] = [f * x + g * y for x, y in zip(cols[i], cols[l])]
    if kind == "roots":
        return ExactMatrix(m, n, [roots[t] for row in exps for t in row], order)
    return ExactMatrix(m, n, [cols[c][r] for r in range(m) for c in range(n)], order)


def _flags_and_deficiency(a, k):
    """Per size-k subset, the block search's one-map flag and whether its
    images are deficient under each map of the first prime."""
    exponents = _root_exponents(a)
    columns = _integral_coeffs(a) if exponents is None else exponents.T
    p, images = _images(a.order, 0, columns)
    maps, n, m = images.shape
    mixed = _mulmod(_row_mixing(min(m, n), m, p), images[0].T, p)
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    flagged = _last_pivot_vanishes(mixed[:k].take(subsets.T, axis=1), p)
    stack = images.take(subsets, axis=1).reshape(maps * len(subsets), k, m).swapaxes(1, 2)
    deficient = _vanishing_mod_p(stack.copy(), p).reshape(maps, len(subsets))
    return flagged, deficient


@pytest.mark.parametrize("order", [1, 5, 12, 25])
def test_one_map_flags_every_subset_deficient_under_all_maps(order):
    rng = random.Random(order)
    dependent = 0
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = _planted(rng, order, m, n)
        for k in range(1, min(m, n) + 1):
            flagged, deficient = _flags_and_deficiency(a, k)
            # Left unflagged: rank k under the map that was stacked.
            assert not deficient[0][~flagged].any(), a.to_rows()
            # Deficient under every map: flagged, so the proof decides it.
            assert flagged[deficient.all(axis=0)].all(), a.to_rows()
            dependent += int(deficient.all(axis=0).sum())
        assert spark(a) == rank_sweep(a), a.to_rows()
        if n >= m:
            assert is_full_spark(a) == det_sweep(a), a.to_rows()
    assert dependent
