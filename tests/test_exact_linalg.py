"""Exact determinants and ranks over integers and over Q(w_N)."""

import math
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


def _gap_rows(order):
    # Column 1 is twice column 0, so elimination finds no pivot there.
    return [[ExactScalar.from_int(order, v) for v in row] for row in (
        [1, 2, 0, 1], [1, 2, 1, 0], [2, 4, 1, 1], [0, 0, 1, 2])]


_GAP = ExactMatrix.from_rows(_gap_rows(5))


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


def test_det_and_rank_exact_never_invert_a_scalar(monkeypatch):
    # Both run fraction-free over Z[w]; ExactScalar.inverse is left to / alone.
    calls = []
    original = ExactScalar.inverse
    monkeypatch.setattr(ExactScalar, "inverse", lambda self: calls.append(1) or original(self))
    square = dft_submatrix(5, (0, 1, 2, 3), (0, 1, 2, 3))
    wide = dft_submatrix(5, (0, 1))
    assert not det_exact(square).is_zero() and rank_exact(square) == 4
    assert rank_exact(wide) == 2 and rank_exact(wide.transpose()) == 2
    assert det_exact(_GAP).is_zero() and rank_exact(_GAP) == 3
    with_denominators = _random_scalar_matrix(random.Random(88), 7, 4)
    assert rank_exact(with_denominators) == 4 and det_exact(with_denominators)
    assert calls == []


def test_singular_minor_determinant_is_falsy():
    assert not det_exact(dft_submatrix(10, (0, 1, 3, 4), (0, 1, 2, 6)))
    assert det_exact(dft_submatrix(10, (0, 1, 3, 4), (0, 1, 2, 3)))


def test_matrix_is_zero_for_both_entry_kinds():
    assert ExactMatrix.from_rows([[0, 0], [0, 0]]).is_zero()
    assert not ExactMatrix.from_rows([[0, 0], [0, -1]]).is_zero()
    zeros = [[ExactScalar.zero(12)] * 3] * 2
    assert ExactMatrix.from_rows(zeros).is_zero()
    one_entry = zeros[0][:2] + [ExactScalar(root_power(12, 5), 7)]
    assert not ExactMatrix.from_rows([zeros[0], one_entry]).is_zero()


def _gauss(m: list[list[ExactScalar]], ncols: int, stop_at_gap: bool) -> tuple[int, list]:
    """Gaussian echelon of the Q(w) rows m, in place.

    Returns (sign, pivots): the rank is the number of pivots, and a square
    matrix of full rank has determinant sign times their product.  A pivot
    with no row or no column left after it is never inverted.  stop_at_gap
    ends the sweep at the first column without a pivot, as in _bareiss.
    """
    nrows = len(m)
    sign, pivots = 1, []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            if stop_at_gap:
                break
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        pivots.append(m[r][c])
        if r + 1 == nrows or c + 1 == ncols:
            break
        inv_p = pivots[-1].inverse()
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            aic = row_i[c]
            if aic.is_zero():
                continue
            f = aic * inv_p
            for j in range(c + 1, ncols):
                arj = row_r[j]
                if not arj.is_zero():
                    row_i[j] = row_i[j] - f * arj
    return sign, pivots


def _gauss_det(a):
    # Independent oracle: Gaussian elimination over Q(w), pivots inverted.
    sign, pivots = _gauss(a.to_rows(), a.cols, stop_at_gap=True)
    if len(pivots) < a.rows:
        return ExactScalar.zero(a.order)
    det = math.prod(pivots, start=ExactScalar.one(a.order))
    return det if sign > 0 else -det


def _gauss_rank(a):
    return len(_gauss(a.to_rows(), a.cols, stop_at_gap=False)[1])


def _singular_variants(rng, rows):
    side = len(rows)
    if side < 2:
        return []
    order = rows[0][0].order
    i, j = rng.sample(range(side), 2)
    repeated = [list(r) for r in rows]
    repeated[j] = list(repeated[i])
    zero_col = [list(r) for r in rows]
    for r in zero_col:
        r[j] = ExactScalar.zero(order)
    return [repeated, zero_col]


def test_det_and_rank_match_the_gauss_oracle_over_q_w():
    rng = random.Random(66)
    for order in (3, 4, 5, 7, 8, 9, 12, 15):
        cases = [_gap_rows(order)]
        for side in range(1, 6):
            for _ in range(4 if side <= 3 else 2):
                rows = _random_scalar_matrix(rng, order, side).to_rows()
                cases += [rows] + _singular_variants(rng, rows)
        for rows in cases:
            a = ExactMatrix.from_rows(rows)
            want = _gauss_det(a)
            assert det_exact(a) == want
            assert rank_exact(a) == _gauss_rank(a)
            assert (rank_exact(a) == a.rows) == bool(want)
        for nrows, ncols in ((1, 3), (2, 5), (3, 4)):
            rows = [[_random_scalar(rng, order) for _ in range(ncols)] for _ in range(nrows)]
            doubled = rows[:-1] + [[x + x for x in rows[0]]]
            for wide in (ExactMatrix.from_rows(rows), ExactMatrix.from_rows(doubled)):
                for a in (wide, wide.transpose()):
                    assert rank_exact(a) == _gauss_rank(a)


def test_det_and_rank_match_the_gauss_oracle_on_dft_minors():
    rng = random.Random(77)
    for order, side in ((25, 3), (25, 5), (31, 3), (31, 4)):
        for _ in range(2):
            a = dft_submatrix(order, sorted(rng.sample(range(order), side)),
                              sorted(rng.sample(range(order), side)))
            assert det_exact(a) == _gauss_det(a)
            assert rank_exact(a) == _gauss_rank(a)


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
