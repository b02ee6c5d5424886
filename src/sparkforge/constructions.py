"""Deterministic frame constructions with optional exact shadows.

A Frame is a complex M x N matrix together with provenance (how it was
built, whether its columns are unit norm, its tight frame bound) and, when
the entries live in a cyclotomic or integer ring, an exact shadow matrix
that the exact spark engine can certify.  Numeric entries always equal the
floating evaluation of the shadow rescaled by the recorded positive row and
column diagonals, so spark statements transfer between the two views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadModulus,
    EmptyBases,
    NonFiniteEntry,
    NotPrime,
    RankDeficient,
    ShapeError,
    ZeroColumn,
    _quoted,
)
from .exact_arith import CycInt, ExactScalar, is_prime
from .exact_linalg import ExactMatrix, dft_submatrix
from .dft_analysis import IndexSet

__all__ = [
    "Provenance",
    "Frame",
    "CoherenceResult",
    "vandermonde",
    "harmonic",
    "harmonic_identity",
    "quadratic_residue_rows",
    "parseval_projection",
    "coherence",
    "welch_bound_sq",
    "g_eval",
    "optimal_vandermonde",
]


def _complex_matrix(f, min_shape=(0, 0)) -> np.ndarray:
    """A Frame, array or ExactMatrix as a finite 2-d complex array of at
    least min_shape: the one reader of float matrices in the package."""
    if isinstance(f, ExactMatrix):
        arr = np.array(f.to_complex_rows(), dtype=complex).reshape(f.rows, f.cols)
    else:
        arr = np.asarray(getattr(f, "matrix", f), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < min_shape[0] or arr.shape[1] < min_shape[1]:
        raise ShapeError(f"expected a 2-d array of shape at least {min_shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("matrix contains NaN or infinity")
    return arr


def _unit_scaled(arr: np.ndarray, axis=None) -> np.ndarray:
    """arr times the power of two that brings the largest real or imaginary
    part of each slice along axis (of all of arr for None) into [1/2, 1).

    Exact while entries stay normal floats, so ratios are unchanged, and no
    square overflows.  A modulus would overflow for parts above 1.3e308.
    """
    parts = np.maximum(np.abs(arr.real), np.abs(arr.imag))
    _, e = np.frexp(np.max(parts, axis=axis, keepdims=True, initial=0.0))
    out = np.empty_like(arr)
    out.real, out.imag = np.ldexp(arr.real, -e), np.ldexp(arr.imag, -e)
    return out


@dataclass
class Provenance:
    kind: str
    params: dict = field(default_factory=dict)
    unit_norm: bool = False
    tight_bound: float | None = None
    parseval: bool = False


@dataclass
class Frame:
    """Complex frame matrix plus provenance and optional exact shadow."""

    matrix: np.ndarray
    provenance: Provenance
    exact_shadow: ExactMatrix | None = None
    shadow_row_scale: np.ndarray | None = None
    shadow_col_scale: np.ndarray | None = None

    def __post_init__(self):
        self.matrix = _complex_matrix(self.matrix)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def shadow_numeric(self) -> np.ndarray:
        """Floating evaluation of the shadow under the recorded scalings."""
        if self.exact_shadow is None:
            raise ValueError("frame has no exact shadow")
        base = _complex_matrix(self.exact_shadow)
        return self.shadow_row_scale[:, None] * base * self.shadow_col_scale[None, :]


def _validate_rows(order: int, rows) -> tuple[int, ...]:
    if not isinstance(rows, IndexSet):
        rows = IndexSet.from_iterable(order, rows)
    elif rows.order != order:
        raise ShapeError(f"index set order {rows.order} differs from {order}")
    return rows.members


def vandermonde(bases, m: int) -> Frame:
    """Vandermonde frame with one column of powers 1, b, ..., b^(m-1) per base.

    Distinct bases give a full spark frame and repeats never do, because
    every maximal minor is a classical Vandermonde determinant, the product
    of pairwise base differences.  Integer bases and cyclotomic bases carry
    an exact shadow.
    """
    bases = list(bases)
    if not bases:
        raise EmptyBases("need at least one base")
    if m < 1:
        raise ShapeError("m must be positive")
    if len(bases) < m:
        raise ShapeError(f"need at least {_quoted(m)} bases for an {_quoted(m)}-row frame")
    n = len(bases)

    shadow = None
    base_kind = "complex"
    if all(isinstance(b, (int, bool)) for b in bases):
        base_kind = "integer"
        top = max(abs(b) for b in bases)  # top^(m-1), the largest entry, must be a float
        if (m - 1) * (top.bit_length() - 1) >= 1024 or top ** (m - 1) >= 2**1024 - 2**970:
            raise NonFiniteEntry(f"an integer base to the power {m - 1} leaves float range")
        shadow = ExactMatrix.from_rows([[b**i for b in bases] for i in range(m)])
    elif all(isinstance(b, CycInt) for b in bases):
        orders = {b.order for b in bases}
        if len(orders) != 1:
            raise ShapeError("cyclotomic bases must share one order")
        base_kind = "cyclotomic"
        shadow = ExactMatrix.from_rows(
            [[ExactScalar(b**i) for b in bases] for i in range(m)]
        )

    if shadow is not None:
        numeric = shadow
    else:
        try:
            numeric = [[complex(b) ** i for b in bases] for i in range(m)]
        except OverflowError as exc:
            raise NonFiniteEntry(f"a power of a base overflows: {exc}") from exc

    distinct = len(set(bases)) == n
    frame = Frame(
        numeric,
        Provenance(
            kind="vandermonde",
            params={"m": m, "n": n, "base_kind": base_kind, "distinct_bases": distinct},
        ),
        exact_shadow=shadow,
        shadow_row_scale=np.ones(m) if shadow is not None else None,
        shadow_col_scale=np.ones(n) if shadow is not None else None,
    )
    return frame


def harmonic(order: int, rows, normalize: bool = False) -> Frame:
    """Selected rows of the order-th DFT matrix, always with an exact shadow.

    Entry (i, j) is w^(rows[i] * j) with w = exp(-2 pi i / order).  Columns
    all have norm sqrt(M); pass normalize=True to scale them to unit norm.
    The shadow stays unnormalized, related by the recorded column scale.
    """
    rows = _validate_rows(order, rows)
    if not rows:
        raise ShapeError("need at least one row")
    m = len(rows)
    shadow = dft_submatrix(order, rows)
    numeric = np.exp(
        (-2j * np.pi / order) * np.outer(np.array(rows), np.arange(order))
    )
    col_scale = np.full(order, 1 / math.sqrt(m)) if normalize else np.ones(order)
    numeric = numeric * col_scale[None, :]
    return Frame(
        numeric,
        Provenance(
            kind="harmonic",
            params={"order": order, "rows": list(rows), "normalized": normalize},
            unit_norm=normalize,
            tight_bound=order / m if normalize else float(order),
        ),
        exact_shadow=shadow,
        shadow_row_scale=np.ones(m),
        shadow_col_scale=col_scale,
    )


def harmonic_identity(order: int, rows, k: int) -> Frame:
    """Unit-norm tight frame of M x (order + k): scaled DFT rows plus k spikes.

    Requires prime order.  The DFT block rows are scaled by a positive
    diagonal chosen so that appending the first k identity columns yields a
    tight frame with bound (order + k) / M and unit-norm columns.  The
    exact shadow drops the two positive diagonals (rows of the DFT block,
    the identity columns' own heights); neither rescaling can change which
    submatrices are singular, so full-spark certification transfers.
    """
    if not is_prime(order):
        raise NotPrime(f"{order} is not prime")
    rows = _validate_rows(order, rows)
    m = len(rows)
    if not 1 <= k <= m:
        raise ShapeError(f"k must lie in 1..{m}")

    d_head = math.sqrt((order + k - m) / (m * order))
    d_tail = math.sqrt((order + k) / (m * order))
    diag = np.array([d_head] * k + [d_tail] * (m - k))

    base = harmonic(order, rows)
    numeric = np.hstack([diag[:, None] * base.matrix, np.eye(m, k, dtype=complex)])
    zero = ExactScalar.zero(order)
    one = ExactScalar.one(order)
    shadow = ExactMatrix.from_rows(
        [base.exact_shadow.row_list(i) + [one if i == j else zero for j in range(k)]
         for i in range(m)]
    )

    col_scale = np.concatenate([np.ones(order), np.full(k, 1 / d_head)])
    return Frame(
        numeric,
        Provenance(
            kind="harmonic_identity",
            params={"order": order, "rows": list(rows), "k": k},
            unit_norm=True,
            tight_bound=(order + k) / m,
        ),
        exact_shadow=shadow,
        shadow_row_scale=diag,
        shadow_col_scale=col_scale,
    )


def quadratic_residue_rows(order: int) -> IndexSet:
    """The set {x^2 mod order : x in Z_order} for prime order = 1 mod 4.

    Under that congruence the squares form a difference set style row
    selection whose harmonic-plus-identity frames stay full spark; other
    moduli are refused.
    """
    if not is_prime(order) or order % 4 != 1:
        raise BadModulus(f"{order} is not a prime congruent to 1 mod 4")
    residues = sorted({(x * x) % order for x in range(order)})
    return IndexSet(order, tuple(residues))


def parseval_projection(f) -> Frame:
    """Closest Parseval frame (FF*)^(-1/2) F of a numerically full-rank frame.

    A frame has rows and columns, and no more rows than columns: FF* is
    invertible only then.  With the thin SVD F = U S V*, (FF*)^(-1/2) F is
    the polar factor U V*, which scaling F leaves as it is.  Spark is
    preserved: the row map applied is invertible.  The result has no exact
    shadow because the inverse square root is irrational.
    """
    arr = _complex_matrix(f, min_shape=(1, 1))
    if arr.shape[0] > arr.shape[1]:
        raise RankDeficient(f"more rows than columns: {arr.shape[0]}x{arr.shape[1]}")
    u, svals, vh = np.linalg.svd(_unit_scaled(arr), full_matrices=False)
    if svals[0] == 0.0 or svals[-1] <= 1e-10 * svals[0]:
        raise RankDeficient("matrix is numerically rank deficient")
    source = f.provenance.kind if isinstance(f, Frame) else "array"
    return Frame(
        u @ vh,
        Provenance(
            kind="parseval_projection",
            params={"source": source},
            unit_norm=False,
            tight_bound=1.0,
            parseval=True,
        ),
    )


@dataclass(frozen=True)
class CoherenceResult:
    mu: float
    pair: tuple[int, int]


def coherence(f) -> CoherenceResult:
    """Largest absolute inner product between distinct normalized columns.

    Ties resolve to the lexicographically smallest column pair.  Columns
    are scaled by powers of two first, so their norms cannot overflow.  The
    Gram matrix is read past its diagonal in row blocks of about 2^20
    entries: one block, the whole matrix, up to 1,024 columns.
    """
    arr = _unit_scaled(_complex_matrix(f, min_shape=(0, 2)), axis=0)
    norms = np.linalg.norm(arr, axis=0)
    zero_cols = np.nonzero(norms == 0.0)[0]
    if zero_cols.size:
        raise ZeroColumn(f"column {int(zero_cols[0])} is zero")
    unit = arr / norms[None, :]
    n, best = unit.shape[1], CoherenceResult(mu=0.0, pair=(0, 1))
    for i in range(0, n - 1, step := max(1, (1 << 20) // n)):
        block = np.triu(np.abs(unit[:, i : i + step].conj().T @ unit), i + 1)  # pairs (i + r, c)
        r, c = divmod(int(np.argmax(block)), n)
        if block[r, c] > best.mu:  # strictly: the first of tying pairs, (0, 1) at 0 to begin, stays
            best = CoherenceResult(mu=float(block[r, c]), pair=(i + r, c))
    return best


def welch_bound_sq(m: int, n: int) -> float:
    """Lower bound on squared coherence of any M x N unit-norm frame."""
    if m < 1:
        raise ShapeError("need at least one row")
    if n < 2:
        raise ShapeError("need at least two columns")
    return (n - m) / (m * (n - 1))


def g_eval(x: float, m: int) -> float:
    """Squared modulus of the m-term geometric exponential sum at frequency x.

    Closed form (sin(m pi x) / sin(pi x))^2 with the removable singularity
    at integer x filled by its limit m^2.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not -math.inf < x < math.inf:
        raise ValueError(f"x must be finite, got {x}")
    if x == round(x):
        return float(m * m)
    # Reduce mod 1 before scaling by pi; x - round(x) is exact, so the sines
    # keep full relative accuracy near integer x.  The numerator is reduced
    # after the denominator so the m-fold product never swallows a small
    # residual.
    den = x - round(x)
    num = den * m
    num -= round(num)
    return (math.sin(math.pi * num) / math.sin(math.pi * den)) ** 2


def optimal_vandermonde(order: int, m: int, normalize: bool = False) -> Frame:
    """The coherence-optimal Vandermonde frame: bases equally spaced on the circle.

    Identical to the first m rows of the order-th DFT.  The optimality
    contract covers order >= 2m; smaller orders still build, flagged as out
    of contract in the provenance.
    """
    if m < 1 or order < m:
        raise ShapeError("need order >= m >= 1")
    frame = harmonic(order, range(m), normalize=normalize)
    frame.provenance = Provenance(
        kind="optimal_vandermonde",
        params={
            "order": order,
            "m": m,
            "normalized": normalize,
            "optimal_claim": order >= 2 * m,
        },
        unit_norm=frame.provenance.unit_norm,
        tight_bound=frame.provenance.tight_bound,
    )
    return frame
