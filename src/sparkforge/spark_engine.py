"""Spark computation: exact certificates, numeric probes, compressed probes.

The spark of a matrix is the size of its smallest linearly dependent column
subset, with sentinel cols+1 when every column subset is independent.  A
matrix with M rows is "full spark" when the spark equals M+1, equivalently
when every MxM column submatrix is invertible.

One subset sweep, _first_dependent, decides spark, the numeric probe and
the Hall girth of matroid: sizes 1, 2, ... in turn, each entered only when
its whole level fits in the budget and searched in lexicographic column
order.  The witness reported is the lexicographically smallest dependent
subset at the answer size, whatever the thread count.

The numeric probe and Hall girth test one subset at a time.  spark, and
the full-spark check of the single size M, search in blocks mod p: the
matrix is mapped to F_p, p = 1 (mod N) a prime above 2^30, under each of
the phi(N) ring maps Z[w] -> F_p, and a block is eliminated with numpy.
Rank mod p never exceeds the true rank, so one image of full rank proves a
subset independent, and only exact Q(w) arithmetic ever says "dependent".
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CapExceeded,
    NonFiniteEntry,
    ShapeError,
    ZeroMatrix,
)
from .exact_arith import divisors
from .exact_linalg import ExactMatrix, det_exact, rank_exact

__all__ = [
    "SparkCertificate",
    "CompressedProbeResult",
    "spark",
    "is_full_spark",
    "numeric_spark_probe",
    "compressed_spark_probe",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class SparkCertificate:
    """Outcome of a spark computation or full-spark check.

    ``witness`` is the lexicographically smallest dependent column subset
    that was explicitly verified; it is None when no dependent subset was
    examined (sentinel results, and spark = rows+1 results where dependence
    of every larger subset is forced by the row count).  For full-spark
    refutations the witness has size rows and ``spark`` records that size,
    an upper bound: smaller subsets were never searched.

    ``checked_subsets`` counts examined subsets: on refutation, every
    subset up to and including the witness in sweep order; on confirmation,
    the whole sweep.
    """

    spark: int
    rows: int
    cols: int
    witness: tuple[int, ...] | None
    checked_subsets: int
    mode: str
    budget: int | None = None

    @property
    def full_spark(self) -> bool:
        return self.cols >= self.rows and self.spark == self.rows + 1

    @property
    def sentinel(self) -> bool:
        """True when no dependent column subset exists at all."""
        return self.spark == self.cols + 1

    def as_dict(self) -> dict:
        return {
            "spark": self.spark,
            "rows": self.rows,
            "cols": self.cols,
            "full_spark": self.full_spark,
            "sentinel": self.sentinel,
            "witness": list(self.witness) if self.witness is not None else None,
            "checked_subsets": self.checked_subsets,
            "mode": self.mode,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class CompressedProbeResult:
    """Randomized one-sided test of the claim spark(F) > K.

    A True answer is a proof: every K columns of some compressed matrix
    Phi F are independent, and Phi F_S independent implies F_S independent.
    A False answer is the probabilistic one: a sketch can make independent
    columns of F dependent, so it certifies spark(F) <= K only when the
    candidate columns are confirmed dependent in F itself (the CLI offers
    that corroboration).
    """

    exceeds_k: bool
    k: int
    trials: int
    p: int
    capped: bool
    failing_trial: int | None
    candidate_columns: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.exceeds_k

    def as_dict(self) -> dict:
        return {
            "spark_exceeds_k": self.exceeds_k,
            "k": self.k,
            "trials": self.trials,
            "p": self.p,
            "capped": self.capped,
            "failing_trial": self.failing_trial,
            "candidate_columns": (
                list(self.candidate_columns) if self.candidate_columns is not None else None
            ),
        }


def _lex_rank(n: int, combo: tuple[int, ...]) -> int:
    """How many size-len(combo) subsets of range(n) precede combo in lex order."""
    k, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        rank += sum(math.comb(n - x - 1, k - i - 1) for x in range(prev + 1, c))
        prev = c
    return rank


def _first_dependent(
    n: int, max_k: int, budget: int, search
) -> tuple[int, tuple[int, ...] | None, int]:
    """The one subset sweep: (k, cols, checked) for the first dependent subset.

    Sizes 1..max_k are taken in turn, and a size is entered only when its
    whole level fits in what is left of the budget; BudgetExceeded names the
    first size that does not.  ``search(k)`` returns the lexicographically
    first dependent size-k subset of range(n), or None; ``checked`` counts
    every subset up to and including the answer.  When no subset is
    dependent the answer is (max_k + 1, None, checked).
    """
    checked = 0
    for k in range(1, max_k + 1):
        level = math.comb(n, k)
        if checked + level > budget:
            raise BudgetExceeded(
                f"size-{k} level needs {level} more subsets, budget {budget}",
                k_reached=k,
            )
        cols = search(k)
        if cols is not None:
            return k, cols, checked + _lex_rank(n, cols) + 1
        checked += level
    return max_k + 1, None, checked


def _subset_search(n: int, dependent):
    """A level search over range(n) that tests one subset at a time."""
    # filter() drives the level from C, which keeps the per-subset cost of a
    # cheap test such as Hall's close to that of an inline loop.
    return lambda k: next(filter(dependent, itertools.combinations(range(n), k)), None)


def spark(a: ExactMatrix, budget: int = DEFAULT_BUDGET) -> SparkCertificate:
    """Exact spark by the size-then-lex sweep, each level searched mod p.

    rank_exact decides each subset that is rank deficient under every map.
    Past size min(rows, cols) every subset is dependent (or none is left),
    so that size plus one is the spark when no smaller subset is dependent.
    """
    if a.is_zero():
        raise ZeroMatrix("spark of the zero matrix is undefined")
    m, n = a.rows, a.cols
    search = _block_search(a, lambda cols: rank_exact(a.column_submatrix(cols)) < len(cols))
    k, witness, checked = _first_dependent(n, min(m, n), budget, search)
    return SparkCertificate(
        spark=k, rows=m, cols=n, witness=witness,
        checked_subsets=checked, mode="exact", budget=budget,
    )


# Subsets are decided modulo the first prime p = 1 (mod N) above 2^30, so
# every residue stays below 2^31 and each fraction-free update pk*x - a*y
# fits in int64.  Blocks of stacked subsets start small, so that early
# refutations stay cheap, and double up to about _BLOCK_ENTRIES int64 entries.
_PRIME_FLOOR = 1 << 30
_FIRST_BLOCK = 32
_BLOCK_ENTRIES = 1 << 16


def _is_prime_below_2_31(n: int) -> bool:
    """Deterministic Miller-Rabin on bases 2, 3, 5, 7; exact below 3.2e9."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for base in (2, 3, 5, 7):
        x = pow(base, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _modular_maps(order: int) -> tuple[int, np.ndarray]:
    """(p, w) with w[k, i] = g^(e_k * i) mod p over the units e_k mod order.

    g is a primitive order-th root of unity mod p, so row k is the image of
    the power basis under the ring map Z[w] -> F_p sending w to g^(e_k);
    these are all phi(order) such maps.
    """
    p = _PRIME_FLOOR + 1 + (-_PRIME_FLOOR) % order
    while not _is_prime_below_2_31(p):
        p += order
    if p >= 1 << 31:
        raise ValueError(f"no prime = 1 (mod {order}) in (2^30, 2^31)")
    g = next(
        g
        for g in (pow(h, (p - 1) // order, p) for h in itertools.count(2))
        if all(pow(g, d, p) != 1 for d in divisors(order)[:-1])
    )
    units = [e for e in range(1, order + 1) if math.gcd(e, order) == 1]
    w = np.array([[pow(g, e * i, p) for i in range(len(units))] for e in units], dtype=np.int64)
    w.flags.writeable = False  # shared by every caller through the cache
    return p, w


def _column_images(a: ExactMatrix, p: int, w: np.ndarray) -> np.ndarray:
    """Images of a, transposed, under every map: shape (phi, cols, rows).

    Each row is first scaled by the lcm of its denominators, which changes
    no minor's vanishing.
    """
    phi = w.shape[0]
    coeffs = np.empty((a.cols, a.rows, phi), dtype=np.int64)
    for i in range(a.rows):
        row = a.row_list(i)
        if a.is_integer():
            scaled = [(e,) for e in row]
        else:
            lcm = math.lcm(*(e.den for e in row))
            scaled = [[c * (lcm // e.den) for c in e.num.coeffs] for e in row]
        coeffs[:, i] = [[c % p for c in v] for v in scaled]
    images = np.zeros((phi, a.cols, a.rows), dtype=np.int64)
    for t in range(phi):
        images = (images + w[:, t, None, None] * coeffs[None, :, :, t]) % p
    return images


def _vanishing_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Flags, per m x k matrix in the stack (k <= m), whose rank mod p is below k.

    Fraction-free elimination column by column, pivoting on the first
    nonzero entry: a step with a nonzero pivot scales rows by a unit, so no
    inverse is needed.  The stack is overwritten.
    """
    deficient = np.zeros(stack.shape[0], dtype=bool)
    at = np.arange(stack.shape[0])
    for _ in range(stack.shape[2]):
        nonzero = stack[:, :, 0] != 0
        deficient |= ~nonzero.any(axis=1)
        pivot = nonzero.argmax(axis=1)
        top = stack[at, pivot]
        stack[at, pivot] = stack[:, 0]
        rest = top[:, :1, None] * stack[:, 1:, 1:]
        rest -= stack[:, 1:, :1] * top[:, None, 1:]
        stack = np.remainder(rest, p, out=rest)
    return deficient


def _block_search(a: ExactMatrix, dependent):
    """A level search over the columns of a, in lexicographic blocks mod p.

    Each size-k subset of a block is stacked as an m x k image per map; a
    subset whose images are all deficient goes to the exact test
    ``dependent(cols)``, and if that fails (p divides every k x k minor) the
    search goes on.
    """
    p, w = _modular_maps(a.order)
    images = _column_images(a, p, w)
    phi, n, m = images.shape

    def search(k):
        cap = max(1, _BLOCK_ENTRIES // max(1, phi * m * k))
        combos = itertools.combinations(range(n), k)
        size = min(_FIRST_BLOCK, cap)
        while block := list(itertools.islice(combos, size)):
            idx = np.array(block, dtype=np.intp).reshape(len(block), k)
            stack = images[:, idx].swapaxes(2, 3).reshape(phi * len(block), m, k)
            deficient = _vanishing_mod_p(stack, p).reshape(phi, len(block)).all(axis=0)
            for j in np.flatnonzero(deficient):
                if dependent(block[j]):
                    return block[j]
            size = min(2 * size, cap)
        return None

    return search


def is_full_spark(
    a: ExactMatrix, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> SparkCertificate:
    """Check every MxM column submatrix for invertibility, exactly.

    The single size M is searched by _block_search, and the whole sweep
    must fit in the budget.  A minor with a nonzero image under some ring
    map Z[w] -> F_p is nonzero; a subset whose images all vanish is decided
    by det_exact, and the first exact zero is the witness.  ``threads`` is
    accepted for compatibility and changes nothing.
    """
    m, n = a.rows, a.cols
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if m > n:
        raise ShapeError(f"full spark needs cols >= rows, got {m}x{n}")
    total = math.comb(n, m)
    if total > budget:
        raise BudgetExceeded(
            f"sweep needs {total} subsets, budget {budget}", k_reached=m
        )
    witness = _block_search(a, lambda cols: det_exact(a.column_submatrix(cols)).is_zero())(m)
    return SparkCertificate(
        spark=m + 1 if witness is None else m, rows=m, cols=n, witness=witness,
        checked_subsets=total if witness is None else _lex_rank(n, witness) + 1,
        mode="exact", budget=budget,
    )


def numeric_spark_probe(
    f, tol: float = 1e-10, budget: int = DEFAULT_BUDGET
) -> SparkCertificate:
    """Floating-point spark estimate via singular value rank decisions.

    A column subset counts as dependent when its smallest singular value is
    at most tol * largest * max(shape).  Same sweep order and sentinel
    conventions as the exact engine; the certificate is advisory, not a
    proof.
    """
    arr = np.asarray(getattr(f, "matrix", f), dtype=complex)
    if arr.ndim != 2:
        raise ShapeError("expected a 2-d array")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("matrix contains NaN or infinity")
    m, n = arr.shape

    def dependent(cols):
        sub = arr[:, cols]
        s = np.linalg.svd(sub, compute_uv=False)
        smax = float(s[0])
        return smax == 0.0 or float(s[-1]) <= tol * smax * max(sub.shape)

    k, witness, checked = _first_dependent(n, min(m, n), budget, _subset_search(n, dependent))
    return SparkCertificate(
        spark=k, rows=m, cols=n, witness=witness,
        checked_subsets=checked, mode="numeric", budget=budget,
    )


def compressed_spark_probe(
    f: ExactMatrix,
    k: int,
    trials: int,
    rng_seed: int,
    p_cap: int = 10**6,
    allow_cap: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> CompressedProbeResult:
    """Randomized test of spark(F) > k through integer sketch matrices.

    Each trial compresses F to k rows with a Vandermonde sketch on k
    distinct bases drawn from {1, ..., P}, P = rows^3 * 2^(cols+1), and
    checks the compressed matrix for full spark exactly.  P is clamped to
    p_cap (with a warning recorded on the result) unless allow_cap is
    False, in which case CapExceeded is raised.
    """
    if not isinstance(f, ExactMatrix) or not f.is_integer():
        raise TypeError("compressed probe needs an integer ExactMatrix")
    m, n = f.rows, f.cols
    if not 1 <= k <= min(m, n):
        raise ShapeError(f"k must lie in 1..min(rows, cols), got {k}")
    if trials < 1:
        raise ValueError("trials must be positive")
    p = (m**3) * (2 ** (n + 1))
    capped = False
    if p > p_cap:
        if not allow_cap:
            raise CapExceeded(f"P = {p} exceeds cap {p_cap}")
        warnings.warn(
            f"sketch base pool capped at {p_cap} (uncapped size {p}); "
            "the success guarantee degrades",
            stacklevel=2,
        )
        p = p_cap
        capped = True
    if p < k:
        raise CapExceeded(f"cap {p} leaves fewer than k = {k} bases")
    rng = random.Random(rng_seed)
    rows_of_f = f.to_rows()
    for t in range(trials):
        bases = sorted(rng.sample(range(1, p + 1), k))
        compressed = []
        for b in bases:
            powers = [1]
            for _ in range(m - 1):
                powers.append(powers[-1] * b)
            compressed.append(
                [sum(powers[i] * rows_of_f[i][j] for i in range(m)) for j in range(n)]
            )
        cert = is_full_spark(ExactMatrix.from_rows(compressed), budget=budget)
        if not cert.full_spark:
            return CompressedProbeResult(
                exceeds_k=False,
                k=k,
                trials=trials,
                p=p,
                capped=capped,
                failing_trial=t,
                candidate_columns=cert.witness,
            )
    return CompressedProbeResult(
        exceeds_k=True,
        k=k,
        trials=trials,
        p=p,
        capped=capped,
        failing_trial=None,
        candidate_columns=None,
    )
