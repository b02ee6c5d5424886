"""Float matrices near either end of the double range.

Every float matrix is read by constructions._complex_matrix and scaled by a
power of two before anything is squared: per column for coherence, per
subset for the numeric probe, once for the Parseval frame.  The unscaled
formulas stay below as oracles.  On seeded inputs with entries in
[1e-100, 1e100], where they cannot overflow, coherence and the probe
agree with them bit for bit, and the Parseval frame within 1e-9.
"""

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from sparkforge import cli, coherence, numeric_spark_probe, parseval_projection
from sparkforge.constructions import _unit_scaled
from sparkforge.errors import ZeroColumn


def float_file(entries) -> dict:
    """A complex_float matrix document of a 2-d array."""
    entries = np.asarray(entries, dtype=complex)
    return {"schema_version": 1, "kind": "complex_float",
            "rows": entries.shape[0], "cols": entries.shape[1],
            "entries": [[float(z.real), float(z.imag)] for z in entries.reshape(-1)]}


# Columns (1e308 + 1e308i, 1e308 + 1e308i) and (1, i).
BIG = np.array([[1e308 + 1e308j, 1], [1e308 + 1e308j, 1j]])
TINY = np.array([[1e-200, 1e-200], [1e-200, -1e-200]])
FRAME = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
BIG_FILE = float_file(BIG)
FRAME_1E200_FILE = float_file(FRAME * 1e200)

SEEDED = 1000


def _coherence_oracle(a):
    a = np.asarray(a, dtype=complex)
    norms = np.linalg.norm(a, axis=0)
    if (norms == 0.0).any():
        raise ZeroColumn("zero column")
    unit = a / norms[None, :]
    gram = np.abs(unit.conj().T @ unit)
    i_idx, j_idx = np.triu_indices(a.shape[1], 1)
    vals = gram[i_idx, j_idx]
    best = int(np.argmax(vals))
    return float(vals[best]), (int(i_idx[best]), int(j_idx[best]))


def _probe_oracle(a, tol=1e-10):
    """(spark, witness, checked_subsets) of the ascending sweep, each subset
    decided by the SVD of its unscaled columns."""
    a = np.asarray(a, dtype=complex)
    m, n = a.shape
    checked = 0
    for k in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), k):
            checked += 1
            s = np.linalg.svd(a[:, cols], compute_uv=False)
            if s[0] == 0.0 or s[-1] <= tol * s[0] * max(m, k):
                return k, cols, checked
    return min(m, n) + 1, None, checked


def _parseval_oracle(a):
    """(FF*)^(-1/2) F through the eigenvectors of the frame operator."""
    w, v = np.linalg.eigh(a @ a.conj().T)
    return (v * (w ** -0.5)) @ v.conj().T @ a


def _normal_range(rng, shape):
    """Moduli log-uniform in [1e-100, 1e100] with random phases, a Gaussian
    matrix times one such scale, or small integers times one (so that some
    subsets are dependent)."""
    kind = rng.integers(3)
    if kind == 0:
        return 10.0 ** rng.uniform(-100, 100, shape) * np.exp(2j * np.pi * rng.random(shape))
    scale = 10.0 ** rng.uniform(-99, 99)
    if kind == 1:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return rng.integers(-2, 3, shape) * scale


def _run(doc, argv, tmp_path):
    """cli.run with doc as its --matrix file and every warning an error."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(argv + ["--matrix", str(path)])
    return code, out.getvalue(), err.getvalue()


def _parseval_entries(out):
    doc = json.loads(out)
    return np.array([complex(re, im) for re, im in doc["entries"]]).reshape(doc["rows"], doc["cols"])


def test_scaling_brings_the_largest_part_into_half_to_one_exactly():
    # Parts above about 1.3e308 overflow a modulus, and 5e-324 is subnormal.
    for value in (1.7e308 - 1.7e308j, 1e308 + 1e308j, 1.0, 3j, 1e-170, 5e-324):
        a = np.array([[value, value / 4], [0, -value / 2]], dtype=complex)
        scaled = _unit_scaled(a)
        top = np.maximum(np.abs(scaled.real), np.abs(scaled.imag)).max()
        assert 0.5 <= top < 1
        shift = math.frexp(max(abs(value.real), abs(value.imag)))[1]
        assert (np.ldexp(scaled.real, shift) == a.real).all()
        assert (np.ldexp(scaled.imag, shift) == a.imag).all()
    columns = _unit_scaled(np.array([[1e300, 0, 3e-300], [1e-300, 0, 0]], dtype=complex), axis=0)
    assert columns[0, 0] == np.ldexp(1e300, -math.frexp(1e300)[1])
    assert (columns[:, 1] == 0).all() and 0.5 <= columns[0, 2] < 1


def test_coherence_of_columns_near_the_float_maximum():
    assert coherence(BIG).mu == pytest.approx(0.7071067811865475, abs=1e-15)
    assert coherence(BIG).pair == (0, 1)


def test_coherence_of_columns_near_the_float_minimum():
    assert coherence(TINY).mu <= 1e-15
    with pytest.raises(ZeroColumn):
        coherence(np.array([[1e-200, 0], [1e-200, 0]]))


def test_numeric_probe_near_the_float_maximum():
    # Column 0 alone is independent.  Beside it column 1 is below the
    # relative tolerance, so the pair is dependent.
    cert = numeric_spark_probe(BIG)
    assert (cert.spark, cert.witness, cert.checked_subsets) == (2, (0, 1), 3)
    assert numeric_spark_probe(BIG[:, :1]).spark == 2  # the sentinel: independent


@pytest.mark.parametrize("scale", [1e200, 1e-170, 5e307, 1e-300])
def test_parseval_frame_is_scale_free(scale):
    unit = parseval_projection(FRAME).matrix
    scaled = parseval_projection(FRAME * scale).matrix
    assert np.isfinite(scaled).all()
    assert np.max(np.abs(scaled - unit)) <= 1e-12
    assert np.max(np.abs(scaled @ scaled.conj().T - np.eye(2))) <= 1e-12


def test_coherence_matches_the_unscaled_formula_bit_for_bit():
    rng = np.random.default_rng(20)
    compared = 0
    for _ in range(SEEDED):
        a = _normal_range(rng, (int(rng.integers(1, 5)), int(rng.integers(2, 7))))
        try:
            want = _coherence_oracle(a)
        except ZeroColumn:
            with pytest.raises(ZeroColumn):
                coherence(a)
            continue
        result = coherence(a)
        assert (result.mu, result.pair) == want
        compared += 1
    assert compared > SEEDED * 0.9


def test_numeric_probe_matches_the_unscaled_decision_bit_for_bit():
    rng = np.random.default_rng(21)
    sparks = set()
    for _ in range(SEEDED):
        a = _normal_range(rng, (int(rng.integers(1, 5)), int(rng.integers(1, 6))))
        cert = numeric_spark_probe(a)
        assert (cert.spark, cert.witness, cert.checked_subsets) == _probe_oracle(a)
        sparks.add((cert.spark, cert.witness is None))
    assert {(1, False), (2, False), (3, False), (2, True), (5, True)} <= sparks


def test_parseval_frame_matches_the_inverse_square_root():
    rng = np.random.default_rng(22)
    for _ in range(SEEDED):
        m = int(rng.integers(1, 5))
        shape = (m, m + int(rng.integers(0, 4)))
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-99, 99)
        g = parseval_projection(a).matrix
        assert np.max(np.abs(g - _parseval_oracle(a))) <= 1e-9
        assert np.max(np.abs(g @ g.conj().T - np.eye(m))) <= 1e-12


def test_cli_coherence_near_the_float_maximum(tmp_path):
    code, out, err = _run(BIG_FILE, ["coherence"], tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out)["mu"] == pytest.approx(0.7071067811865475, abs=1e-15)


def test_cli_spark_near_the_float_maximum(tmp_path):
    code, out, err = _run(BIG_FILE, ["spark"], tmp_path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["spark"], doc["witness"], doc["checked_subsets"], doc["mode"]) == (2, [0, 1], 3, "numeric")


def test_cli_coherence_near_the_float_minimum(tmp_path):
    code, out, err = _run(float_file(TINY), ["coherence"], tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out)["mu"] <= 1e-15


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_cli_parseval_at_either_end_of_the_range(scale, tmp_path):
    code, out, err = _run(float_file(FRAME * scale), ["construct", "--parseval"], tmp_path)
    assert (code, err) == (0, "")
    _, unit_out, _ = _run(float_file(FRAME), ["construct", "--parseval"], tmp_path)
    assert np.max(np.abs(_parseval_entries(out) - _parseval_entries(unit_out))) <= 1e-12
