"""Frame builders and coherence analytics."""

import cmath
import math
import random

import numpy as np
import pytest

from sparkforge import (
    coherence,
    dft_submatrix,
    g_eval,
    harmonic,
    harmonic_identity,
    is_full_spark,
    optimal_vandermonde,
    parseval_projection,
    quadratic_residue_rows,
    spark,
    vandermonde,
    welch_bound_sq,
)
from sparkforge.dft_analysis import IndexSet
from sparkforge.exact_arith import root_power
from sparkforge.errors import (
    BadModulus,
    EmptyBases,
    IndexOutOfRange,
    NonFiniteEntry,
    NotPrime,
    RankDeficient,
    ShapeError,
    ZeroColumn,
)


def _g_direct(x, m):
    return abs(sum(cmath.exp(2j * cmath.pi * x * i) for i in range(m))) ** 2


def test_vandermonde_integer_bases():
    f = vandermonde((1, 2, 3), 2)
    assert np.allclose(f.matrix, [[1, 1, 1], [1, 2, 3]])
    assert f.exact_shadow is not None and f.exact_shadow.kind == "int"
    assert is_full_spark(f.exact_shadow).full_spark


def test_vandermonde_duplicate_base_breaks_full_spark():
    f = vandermonde((1, 1, 2), 2)
    cert = spark(f.exact_shadow)
    assert cert.spark == 2
    assert cert.witness == (0, 1)


def test_vandermonde_root_of_unity_bases_is_dft_prefix():
    order, m = 8, 3
    bases = [root_power(order, n) for n in range(order)]
    f = vandermonde(bases, m)
    dft = dft_submatrix(order, range(m))
    assert np.allclose(f.matrix, np.array(dft.to_complex_rows()), atol=1e-12)
    assert f.exact_shadow.kind == "scalar"
    assert f.exact_shadow == dft


def test_vandermonde_errors():
    with pytest.raises(EmptyBases):
        vandermonde((), 2)
    with pytest.raises(ShapeError):
        vandermonde((1, 2), 3)


def test_vandermonde_float_powers_past_the_float_maximum_raise_non_finite_entry():
    # (1e200)^2 overflows a float; the first two powers do not.
    f = vandermonde([1e200, 2.0, 3.0], 2)
    assert f.matrix[1].tolist() == [1e200, 2.0, 3.0] and f.exact_shadow is None
    for bases in ([1e200, 2.0, 3.0], [2.0, 1e200j, 3.0], [complex(1e200, 1e200), 2.0, 3.0]):
        with pytest.raises(NonFiniteEntry):
            vandermonde(bases, 3)


def test_harmonic_rows_0_2_of_order_4():
    f = harmonic(4, (0, 2))
    assert np.allclose(f.matrix[0], [1, 1, 1, 1])
    assert np.allclose(f.matrix[1], [1, -1, 1, -1])


def test_harmonic_full_row_set_is_scaled_unitary():
    f = harmonic(6, range(6))
    gram = f.matrix @ f.matrix.conj().T
    assert np.max(np.abs(gram - 6 * np.eye(6))) <= 1e-9


def test_harmonic_normalized_columns():
    f = harmonic(7, (0, 2, 3), normalize=True)
    norms = np.linalg.norm(f.matrix, axis=0)
    assert np.max(np.abs(norms - 1)) <= 1e-12
    assert f.provenance.unit_norm


def test_harmonic_index_validation():
    with pytest.raises(IndexOutOfRange):
        harmonic(4, (0, 4))


@pytest.mark.parametrize("rows, error", [
    # Out of range, before any duplicate is looked for.
    ([7], IndexOutOfRange), ([-1], IndexOutOfRange), ([0, 7], IndexOutOfRange),
    ([7, 7], IndexOutOfRange), ([0, 2, 2, 9], IndexOutOfRange),
    # Not integers, including values that neither sort nor hash with ints.
    ([1.5], IndexOutOfRange), ([1.0], IndexOutOfRange), ([0, "1"], IndexOutOfRange),
    ([0, None], IndexOutOfRange), ([0, [0]], IndexOutOfRange), ([np.int64(1)], IndexOutOfRange),
    # Duplicates.
    ([1, 1], ValueError), ([0, 1, 1], ValueError), ([True, 1], ValueError),
    # Another order's index set, and no rows.
    (IndexSet(5, (0, 1)), ShapeError), ([], ShapeError),
])
def test_harmonic_rows_are_refused_by_the_index_set_rules(rows, error):
    for build in (lambda: harmonic(7, rows), lambda: harmonic_identity(7, rows, 1)):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error


def test_shadow_consistency_across_builders():
    frames = [
        vandermonde((1, 2, 5), 3),
        harmonic(9, (0, 1, 4)),
        harmonic_identity(5, (0, 1, 4), 1),
        harmonic_identity(7, (0, 1, 3), 2),
    ]
    for f in frames:
        assert f.exact_shadow is not None
        assert np.max(np.abs(f.shadow_numeric() - f.matrix)) <= 1e-12


def test_harmonic_identity_matches_displayed_etf():
    f = harmonic_identity(5, (0, 1, 4), 1)
    s1, s2 = math.sqrt(1 / 5), math.sqrt(2 / 5)
    w = cmath.exp(-2j * cmath.pi / 5)
    expected = np.array(
        [
            [s1, s1, s1, s1, s1, 1],
            [s2, s2 * w, s2 * w**2, s2 * w**3, s2 * w**4, 0],
            [s2, s2 * w**4, s2 * w**3, s2 * w**2, s2 * w, 0],
        ]
    )
    assert np.max(np.abs(f.matrix - expected)) <= 1e-12

    gram = f.matrix @ f.matrix.conj().T
    assert np.max(np.abs(gram - 2 * np.eye(3))) <= 1e-9
    assert f.provenance.tight_bound == pytest.approx(2.0)

    norms = np.linalg.norm(f.matrix, axis=0)
    assert np.max(np.abs(norms - 1)) <= 1e-12


def test_harmonic_identity_shadow_is_certifiable_exactly():
    # The diagonal drops out of the shadow; order <= 7 sweeps stay small.
    for order, rows, k in ((3, (0, 1), 1), (5, (0, 1, 4), 1), (7, (0, 1, 3), 2)):
        f = harmonic_identity(order, rows, k)
        cert = is_full_spark(f.exact_shadow)
        assert cert.full_spark
        assert cert.checked_subsets == math.comb(order + k, len(rows))


def test_harmonic_identity_k_equals_m_equals_n_zero_count():
    f = harmonic_identity(5, range(5), 5)
    assert f.matrix.shape == (5, 10)
    zeros = int(np.sum(np.abs(f.matrix) == 0))
    assert zeros == 5 * 4


def test_harmonic_identity_errors():
    with pytest.raises(NotPrime):
        harmonic_identity(6, (0, 1), 1)
    with pytest.raises(ShapeError):
        harmonic_identity(5, (0, 1, 4), 0)
    with pytest.raises(ShapeError):
        harmonic_identity(5, (0, 1, 4), 4)


def test_quadratic_residue_rows():
    assert quadratic_residue_rows(5).members == (0, 1, 4)
    got13 = quadratic_residue_rows(13)
    assert got13.members == (0, 1, 3, 4, 9, 10, 12)
    assert set(got13.members) == {k * k % 13 for k in range(13)}
    for order in (5, 13, 17, 29):
        members = quadratic_residue_rows(order).members
        assert len(members) == (order + 1) // 2
        assert 0 in members and 1 in members


def test_quadratic_residue_modulus_validation():
    with pytest.raises(BadModulus):
        quadratic_residue_rows(7)  # prime but 3 mod 4
    with pytest.raises(BadModulus):
        quadratic_residue_rows(10)


def test_parseval_projection_fixed_point():
    f = harmonic(4, range(4)).matrix / 2.0
    g = parseval_projection(f)
    assert np.max(np.abs(g.matrix - f)) <= 1e-9
    assert g.provenance.parseval


def test_parseval_projection_vandermonde():
    g = parseval_projection(vandermonde(range(1, 8), 3))
    gram = g.matrix @ g.matrix.conj().T
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-9


def test_parseval_projection_row_scale_stability():
    f = vandermonde(range(1, 8), 3).matrix
    scaled = np.diag([2.0, 0.5, 3.0]) @ f
    g1 = parseval_projection(f)
    g2 = parseval_projection(scaled)
    for g in (g1, g2):
        assert np.max(np.abs(g.matrix @ g.matrix.conj().T - np.eye(3))) <= 1e-9
    # Same polar factor up to a unitary row map: column Grams coincide.
    gram1 = g1.matrix.conj().T @ g1.matrix
    gram2 = g2.matrix.conj().T @ g2.matrix
    assert np.max(np.abs(gram1 - gram2)) <= 1e-9


def test_parseval_projection_rank_deficient():
    flat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankDeficient):
        parseval_projection(flat)


def test_coherence_of_displayed_etf_meets_welch_bound():
    f = harmonic_identity(5, (0, 1, 4), 1)
    result = coherence(f)
    assert result.mu**2 == pytest.approx(1 / 5, abs=1e-9)
    assert result.mu**2 == pytest.approx(welch_bound_sq(3, 6), abs=1e-12)


def test_coherence_extremes_and_tie_break():
    assert coherence(np.eye(3)).mu == pytest.approx(0.0, abs=1e-12)
    doubled = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    result = coherence(doubled)
    assert result.mu == pytest.approx(1.0, abs=1e-12)
    assert result.pair == (0, 1)
    with pytest.raises(ZeroColumn):
        coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_welch_bound_holds_for_unit_norm_constructions():
    frames = [
        harmonic_identity(5, (0, 1, 4), 1),
        harmonic_identity(7, (0, 1, 3, 5), 2),
        harmonic(8, (0, 1, 4), normalize=True),
        optimal_vandermonde(8, 3, normalize=True),
    ]
    for f in frames:
        m, n = f.matrix.shape
        assert coherence(f).mu**2 >= welch_bound_sq(m, n) - 1e-12


def test_g_eval_integer_points():
    for m in (1, 2, 5, 12):
        assert g_eval(0.0, m) == pytest.approx(m * m)
        assert g_eval(3.0, m) == pytest.approx(m * m)
        assert g_eval(-2.0, m) == pytest.approx(m * m)


def test_g_eval_half_reciprocal_example():
    m = 5
    x = 1 / (2 * m)
    assert abs(g_eval(x, m) - _g_direct(x, m)) <= 1e-12


def test_g_eval_symmetry_and_periodicity():
    rng = random.Random(9)
    for _ in range(200):
        x = rng.uniform(0.01, 0.99)
        m = rng.randint(1, 12)
        assert g_eval(x, m) == pytest.approx(g_eval(-x, m), abs=1e-10)
        assert g_eval(x, m) == pytest.approx(g_eval(1 - x, m), abs=1e-10)


def test_g_eval_closed_form_against_direct_sum():
    rng = random.Random(10)
    xs = [rng.uniform(1e-6, 1 - 1e-6) for _ in range(10_000)]
    worst = 0.0
    for x in xs:
        m = rng.randint(1, 12)
        worst = max(worst, abs(g_eval(x, m) - _g_direct(x, m)))
    assert worst <= 1e-10


def test_welch_bound_refuses_a_frame_without_rows():
    with pytest.raises(ShapeError):
        welch_bound_sq(0, 3)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_g_eval_refuses_an_infinite_x(x):
    with pytest.raises(ValueError, match="^x must be finite"):
        g_eval(x, 3)


def test_g_eval_refuses_a_nan_x():
    with pytest.raises(ValueError, match="^x must be finite"):
        g_eval(math.nan, 3)


def test_optimal_vandermonde_equals_dft_prefix():
    f = optimal_vandermonde(6, 3)
    h = harmonic(6, range(3))
    assert np.max(np.abs(f.matrix - h.matrix)) <= 1e-12
    assert f.provenance.params["optimal_claim"] is True
    assert optimal_vandermonde(5, 3).provenance.params["optimal_claim"] is False


def test_optimal_vandermonde_beats_random_bases():
    rng = random.Random(2026)
    best = coherence(optimal_vandermonde(6, 3, normalize=True)).mu
    for _ in range(1000):
        angles = sorted(rng.uniform(0.0, 1.0) for _ in range(6))
        bases = [cmath.exp(2j * cmath.pi * a) for a in angles]
        if len(set(bases)) < 6:
            continue
        f = vandermonde(bases, 3)
        assert coherence(f).mu >= best - 1e-12


def test_optimal_vandermonde_coherence_equals_g_at_min_gap():
    m, order = 3, 8
    mu = coherence(optimal_vandermonde(order, m, normalize=True)).mu
    assert mu**2 == pytest.approx(g_eval(1 / order, m) / m**2, abs=1e-9)
