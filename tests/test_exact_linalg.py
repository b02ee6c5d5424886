"""Exact determinants and ranks over integers and over Q(w_N)."""

import random

import pytest

from sparkforge import det_exact, dft_submatrix, rank_exact
from sparkforge.exact_arith import CycInt, ExactScalar, euler_phi, root_power
from sparkforge.exact_linalg import ExactMatrix
from sparkforge.errors import IndexOutOfRange, ShapeError, SideLimitExceeded


def _det_cofactor(rows):
    # Independent oracle: naive Laplace expansion over plain ints.
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_cofactor(minor)
    return total


def _random_scalar(rng, order):
    width = euler_phi(order)
    num = CycInt(order, tuple(rng.randint(-4, 4) for _ in range(width)))
    return ExactScalar(num, rng.randint(1, 5))


def _random_scalar_matrix(rng, order, side):
    return ExactMatrix.from_rows(
        [[_random_scalar(rng, order) for _ in range(side)] for _ in range(side)]
    )


def test_det_examples():
    assert det_exact(ExactMatrix.from_rows([[1, 1], [1, -1]])) == -2
    assert det_exact(ExactMatrix.from_rows([[1, 1], [1, 1]])) == 0
    vander = ExactMatrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    assert det_exact(vander) == 2


def test_det_empty_matrix_is_one():
    empty = ExactMatrix(0, 0, ())
    assert det_exact(empty) == 1


def test_rank_examples():
    zero = ExactMatrix.from_rows([[0, 0, 0, 0]] * 3)
    assert rank_exact(zero) == 0
    vander = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]])
    assert rank_exact(vander) == 2
    assert rank_exact(ExactMatrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_rectangular_both_orientations():
    tall = ExactMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank_exact(tall) == 1
    assert rank_exact(tall.transpose()) == 1


def test_det_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(200):
        side = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(side)] for _ in range(side)]
        expected = _det_cofactor(rows)
        assert det_exact(ExactMatrix.from_rows(rows)) == expected


def test_det_multiplicative_over_cyclotomic_field():
    rng = random.Random(22)
    for _ in range(50):
        a = _random_scalar_matrix(rng, 5, 3)
        b = _random_scalar_matrix(rng, 5, 3)
        assert det_exact(a @ b) == det_exact(a) * det_exact(b)


def test_rank_full_iff_det_nonzero():
    rng = random.Random(33)
    for _ in range(60):
        side = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(side)] for _ in range(side)]
        m = ExactMatrix.from_rows(rows)
        assert (rank_exact(m) == side) == (not det_exact(m).is_zero())


def test_row_swap_flips_sign_and_row_scale_scales():
    rng = random.Random(44)
    for _ in range(40):
        side = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(side)] for _ in range(side)]
        d = det_exact(ExactMatrix.from_rows(rows))
        i, j = rng.sample(range(side), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_exact(ExactMatrix.from_rows(swapped)) == d * ExactScalar.from_int(1, -1)
        s = rng.choice([-3, -1, 2, 5])
        scaled = [list(r) for r in rows]
        scaled[i] = [s * x for x in scaled[i]]
        assert det_exact(ExactMatrix.from_rows(scaled)) == d * ExactScalar.from_int(1, s)


def test_q_w_elimination_inverts_only_pivots_with_work_after_them(monkeypatch):
    # Inverses dominate exact Q(w) time; a pivot with no row or no column
    # after it, or anything past a pivotless column of a determinant, needs none.
    calls = []
    original = ExactScalar.inverse
    monkeypatch.setattr(ExactScalar, "inverse", lambda self: calls.append(1) or original(self))

    def inverses(fn, a):
        calls.clear()
        fn(a)
        return len(calls)

    square = dft_submatrix(5, (0, 1, 2, 3), (0, 1, 2, 3))
    wide = dft_submatrix(5, (0, 1))
    # Column 1 is twice column 0, so elimination finds no pivot there.
    gap = ExactMatrix.from_rows([[ExactScalar.from_int(5, v) for v in row] for row in (
        [1, 2, 0, 1], [1, 2, 1, 0], [2, 4, 1, 1], [0, 0, 1, 2])])
    assert inverses(det_exact, square) == 3
    assert inverses(rank_exact, square) == 3
    assert inverses(rank_exact, wide) == 1
    assert inverses(rank_exact, wide.transpose()) == 1
    assert inverses(det_exact, gap) == 1 and det_exact(gap).is_zero()
    assert inverses(rank_exact, gap) == 2 and rank_exact(gap) == 3


def test_det_shape_and_side_limit_errors():
    rect = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        det_exact(rect)
    cube = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(SideLimitExceeded):
        det_exact(cube, side_limit=2)


def test_matmul_matches_complex_evaluation():
    rng = random.Random(55)
    a = _random_scalar_matrix(rng, 8, 3)
    b = _random_scalar_matrix(rng, 8, 3)
    prod = a @ b
    ca = a.to_complex_rows()
    cb = b.to_complex_rows()
    cp = prod.to_complex_rows()
    for i in range(3):
        for j in range(3):
            want = sum(ca[i][k] * cb[k][j] for k in range(3))
            assert abs(cp[i][j] - want) <= 1e-9


def test_dft_submatrix_entries_and_validation():
    m = dft_submatrix(4, (0, 2))
    got = m.to_complex_rows()
    assert all(abs(x - 1) <= 1e-12 for x in got[0])
    assert [round(x.real) for x in got[1]] == [1, -1, 1, -1]

    picked = dft_submatrix(5, (1, 2), (0, 3))
    for i, r in enumerate((1, 2)):
        for j, c in enumerate((0, 3)):
            assert picked.entry(i, j).num == root_power(5, r * c)

    with pytest.raises(IndexOutOfRange):
        dft_submatrix(4, (0, 4))
    with pytest.raises(IndexOutOfRange):
        dft_submatrix(4, (0, 1), (0, 5))


def test_dft_submatrix_matches_the_per_entry_build():
    for order in range(1, 31):
        rng = random.Random(order)
        cases = [(range(order), None), ((), None), ((), (0,))]
        for _ in range(3):
            rows = rng.choices(range(order), k=rng.randint(1, 4))
            cols = rng.choices(range(order), k=rng.randint(1, order + 2))  # repeats
            cases += [(rows, None), (rows, cols)]
        for rows, cols in cases:
            got = dft_submatrix(order, rows, cols)
            cols = range(order) if cols is None else cols
            want = [ExactScalar(root_power(order, r * c)) for r in rows for c in cols]
            assert (got.rows, got.cols, got.order) == (len(rows), len(cols), order)
            assert list(got.entries) == want
            assert [hash(e) for e in got.entries] == [hash(e) for e in want]


def test_identity_has_full_rank():
    eye = ExactMatrix.identity(5)
    assert rank_exact(eye) == 5
    assert det_exact(eye) == 1
