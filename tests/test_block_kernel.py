"""The block kernel _last_pivot_vanishes against the pivoting _vanishing_mod_p.

The block search stacks each subset's k x k image as stack[:, :, s] of a
(k, k, subsets) array, and the kernel eliminates it without row exchanges,
reducing each step by floor division.  On seeded stacks with uniform
entries, entries of 0 and p - 1 only, and planted deficient matrices, under
the engine's first prime of orders 1 and 2048, and under the first such
primes above 2^30: every matrix of rank below k is flagged, and a flagged
matrix of rank k has a vanishing leading minor of size k - 2 or less,
both decided by _vanishing_mod_p.  The reduction
x - (x // p) * p is checked against Python's % over the int64 range an
update can reach.
"""

import numpy as np
import pytest

from sparkforge.spark_engine import _last_pivot_vanishes, _root_images, _vanishing_mod_p

# Both kernels form products of two residues and their difference, which
# stays in int64 for any p < 2^31, so they are checked past the engine's
# primes below 2^26 too, at the first primes = 1 (mod 1) and (mod 2048)
# above 2^30.
_PRIMES = [_root_images(order, 0)[0] for order in (1, 2048)] + [1_073_741_827, 1_073_750_017]
_KINDS = ["uniform", "extremes", "zero column", "repeated column", "combination", "zero corner"]


def _stack(rng, k, b, p):
    """A (k, k, b) stack [row, column, subset] of residues mod p, and the
    kind of each matrix in it."""
    kinds = [_KINDS[i] for i in rng.choice(len(_KINDS), size=b).tolist()]
    mats = rng.integers(0, p, size=(b, k, k), dtype=np.int64)  # [subset, row, column]
    for a, kind in zip(mats, kinds):
        i, j, l = rng.permutation(k)[:3].tolist() + [0] * max(0, 3 - k)
        if kind == "extremes":
            a[...] = rng.choice(np.array([0, p - 1], dtype=np.int64), size=(k, k))
        elif kind == "zero column" and k:
            a[:, j] = 0
        elif kind == "repeated column" and k > 1:
            a[:, j] = a[:, i]
        elif kind == "combination" and k > 1:
            # Column j in the span of columns i and l (l = i when k = 2).
            s, t = rng.integers(1, p, size=2).tolist()
            a[:, j] = (s * a[:, i] % p + t * a[:, l if k > 2 else i] % p) % p
        elif kind == "zero corner" and k:
            a[0, 0] = 0
    return np.ascontiguousarray(mats.transpose(1, 2, 0)), np.array(kinds)


def _deficient(mats, p):
    """Per (rows, k) matrix of a (b, rows, k) array, whether its rank mod p is below k."""
    if not mats.shape[2]:
        return np.zeros(len(mats), dtype=bool)
    return _vanishing_mod_p(mats.copy(), p)


@pytest.mark.parametrize("p", _PRIMES)
@pytest.mark.parametrize("b", [1, 20, 2048])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 57])
def test_kernel_flags_what_pivoting_elimination_finds_deficient(k, b, p):
    rng = np.random.default_rng([k, b, p])
    stack, kinds = _stack(rng, k, b, p)
    mats = stack.transpose(2, 0, 1)  # [subset, row, column]
    flagged = _last_pivot_vanishes(stack, p)
    assert flagged.shape == (b,) and flagged.dtype == bool
    assert k or not flagged.any()
    deficient = _deficient(mats, p)
    planted = (kinds == "zero column") | (k > 1) & np.isin(kinds, ["repeated column", "combination"])
    assert deficient[planted & (k > 0)].all()
    # A matrix of rank below k is flagged: an unflagged one is invertible.
    assert flagged[deficient].all()
    # A zero corner is a vanishing leading minor of size 1, flagged past k = 2.
    assert flagged[(kinds == "zero corner") & (k > 2)].all()
    # A flagged invertible matrix has a vanishing leading minor of size k - 2
    # or less; sizes are tried in turn on the matrices not yet explained.
    unexplained = np.flatnonzero(flagged & ~deficient)
    for j in range(1, k - 1):
        unexplained = unexplained[~_deficient(mats[unexplained, :j, :j], p)]
    assert not len(unexplained)


@pytest.mark.parametrize("p", _PRIMES)
def test_edge_residues_are_eliminated_exactly(p):
    # All entries p - 1: rank 1, flagged from k = 2 on, and 1 x 1 is invertible.
    for k in (1, 2, 3, 7):
        stack = np.full((k, k, 3), p - 1, dtype=np.int64)
        assert _last_pivot_vanishes(stack, p).tolist() == [k > 1] * 3
    # (p - 1) I and its anti-diagonal twin: invertible, and the twin has a
    # zero corner, so it is flagged from k = 3 on.
    for k in (1, 2, 3, 7):
        eye = (p - 1) * np.eye(k, dtype=np.int64)
        stack = np.stack([eye, eye[::-1]], axis=2)
        assert _last_pivot_vanishes(stack, p).tolist() == [False, k > 2]


def test_an_empty_stack_flags_nothing():
    p = _PRIMES[0]
    for b in (0, 1, 20):
        flagged = _last_pivot_vanishes(np.empty((0, 0, b), dtype=np.int64), p)
        assert flagged.shape == (b,) and not flagged.any()


@pytest.mark.parametrize("p", _PRIMES)
def test_floor_division_reduction_equals_python_modulo(p):
    bound = (1 << 62) - 1
    rng = np.random.default_rng(p)
    x = np.concatenate([
        np.array([bound, -bound, 0, 1, -1, p, -p, p - 1, 1 - p], dtype=np.int64),
        rng.integers(-bound, bound, size=10_000, endpoint=True, dtype=np.int64),
    ])
    # The largest and smallest fraction-free updates: (p - 1)^2 - 0 and 0 - (p - 1)^2.
    x = np.append(x, [(p - 1) ** 2, -((p - 1) ** 2)])
    reduced = x - (x // p) * p
    assert reduced.tolist() == [v % p for v in x.tolist()]
