"""Spark computation: exact certificates, numeric probes, compressed probes.

The spark of a matrix is the size of its smallest linearly dependent column
subset, with sentinel cols+1 when every column subset is independent.  A
matrix with M rows is "full spark" when the spark equals M+1, equivalently
when every MxM column submatrix is invertible.  spark, the full-spark
check and the numeric probe run the one subset sweep, sweep._first_dependent.

Both engines search a level through one block loop, _block_sweep, over
the cached tables of _subset_rows: a whole block of subsets is stacked and
flagged at once, and each flagged subset is then proved or accepted.  The
numeric probe flags a block by one batched SVD and accepts its flags.
spark and the full-spark check flag in blocks mod p: the matrix is mapped
to F_p, p = 1 (mod N) a prime in (2^25, 2^26), so that all arithmetic mod
p is exact in int64, under the first of the phi(N) ring maps Z[w] -> F_p, its
rows are mixed once by a fixed seeded matrix R, and a block is eliminated
with numpy without row exchanges.  The matrix is one column-major array,
the exponent table of a matrix of roots of unity w^t (a DFT submatrix,
say) or else the power-basis coefficients, and one function, _images,
maps it for the search and for every prime of the proof below, by one
gather or by one modular product.  A subset whose
k x k image R_k A_S has a nonzero last pivot is independent, whatever R
is: rank (R_k A_S) <= rank A_S.  A dependent subset is deficient under
every map, so the one map flags it; a random R makes a flag rare for
other subsets.  A flagged subset's columns alone go to a norm-bound
proof, which derives from them a Hadamard bound on every conjugate of
every minor (k^(k/2) for roots of unity) and eliminates them with
pivoting under every map of p and then of further primes, until their
product exceeds the bound: they are dependent when they stay deficient
under all of those maps.  No Q(w) arithmetic runs.

When the matrix is rows of the N-th DFT over all N columns, read off the
exponents of its roots, the rank of a column subset is constant on its
orbit under the affine maps c -> u c + t of Z_N (u a unit): the map scales
each row by a root of unity and applies the Galois map w -> w^u.  The
block search then stacks only the lex-min member of each orbit, in lex
order, which finds the same first dependent subset; certificates and
budgets count every subset as before.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .constructions import _complex_matrix, _unit_scaled
from .errors import CapExceeded, ShapeError, _quoted
from .exact_arith import _factorize, _units, euler_phi, is_prime
from .exact_linalg import ExactMatrix, _integral_rows
from .exact_linalg import det_exact, rank_exact  # noqa: F401 (bench/run.py --trace 1 wraps them)
from .sweep import DEFAULT_BUDGET, _first_dependent

__all__ = [
    "SparkCertificate",
    "CompressedProbeResult",
    "spark",
    "is_full_spark",
    "numeric_spark_probe",
    "compressed_spark_probe",
    "DEFAULT_BUDGET",
]


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


def spark(a: ExactMatrix, budget: int = DEFAULT_BUDGET) -> SparkCertificate:
    """Exact spark by the size-then-lex sweep, each level searched mod p.

    _block_search proves each dependent subset by the norm bound, with no
    Q(w) arithmetic.  Past size K = min(rows, cols) every subset is
    dependent (or none is left), so K + 1 is the spark when no smaller
    subset is dependent.  When the whole sweep fits the budget, level K
    goes first: with none of its subsets dependent, no smaller one is, and
    the answer is the sweep's.  Otherwise _first_dependent runs, reusing
    level K.  A zero column is a dependent singleton, so the zero matrix
    has spark 1 and witness (0,).
    """
    m, n = a.rows, a.cols
    top, search = min(m, n), functools.cache(_block_search(a))
    total = sum(math.comb(n, k) for k in range(1, top + 1))
    if total <= budget and search(top) is None:
        return SparkCertificate(top + 1, m, n, None, total, "exact", budget)
    k, witness, checked = _first_dependent(n, range(1, top + 1), budget, search)
    return SparkCertificate(k, m, n, witness, checked, "exact", budget)


# Subsets are decided modulo primes p = 1 (mod N) in (_PRIME_FLOOR,
# 2 _PRIME_FLOOR), so every residue, of an image, a root or the row mixing,
# is below 2^26 and a product of two is below 2^52: one bound for all int64
# arithmetic mod p.  _mulmod sums at most _MAX_TERMS products and the residue
# carried over, (2^26 - 1)^2 (2^11 - 1) + 2^26 < 2^63; phi(N) <= 2038 <
# _MAX_TERMS at every order up to 2048, so a coefficient image is one run.
# An elimination update r = a*x - b*y (_last_pivot_vanishes, _vanishing_mod_p)
# has |r| < 2^52, and r - (r // p)*p is its residue in [0, p).  Blocks of
# stacked subsets start small, so that early refutations stay cheap, and
# double up to about _BLOCK_ENTRIES int64 entries.
_PRIME_FLOOR = 1 << 25
_MAX_TERMS = (1 << 11) - 1
_FIRST_BLOCK = 32
_BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=16)
def _root_images(order: int, index: int) -> tuple[int, np.ndarray]:
    """(p, roots) for the index-th prime p = 1 (mod order) above _PRIME_FLOOR.

    roots[k, t] = g^(e_k t) mod p for t in 0..order-1, over the units e_k
    mod order, g a primitive order-th root of unity mod p: row k is the
    image of every power w^t under the ring map Z[w] -> F_p sending w to
    g^(e_k), and these are all phi(order) such maps.
    """
    first = _PRIME_FLOOR + 1 + (-_PRIME_FLOOR) % order  # the least p = 1 (mod order) above it
    p = _root_images(order, index - 1)[0] + order if index else first
    while not is_prime(p):
        p += order
    if p >= 2 * _PRIME_FLOOR:
        e = _PRIME_FLOOR.bit_length() - 1
        raise ValueError(f"fewer than {index + 1} primes = 1 (mod {order}) in (2^{e}, 2^{e + 1})")
    # g^order = 1, and g is primitive once g^(order/q) != 1 for every prime q dividing order.
    g = next(g for g in (pow(h, (p - 1) // order, p) for h in itertools.count(2))
             if all(pow(g, order // q, p) != 1 for q in _factorize(order)))
    powers = [1]
    for _ in range(order - 1):
        powers.append(powers[-1] * g % p)
    roots = np.array(powers, dtype=np.int64)[np.outer(_units(order), np.arange(order)) % order]
    roots.flags.writeable = False  # shared by every caller through the cache
    return p, roots


def _integral_coeffs(a: ExactMatrix) -> np.ndarray:
    """Power-basis coefficients of a as Python ints, shape (cols, rows, phi).

    The rows are those exact_linalg._integral_rows clears for det_exact:
    each Q(w) row scaled into Z[w], which changes no minor's vanishing.  The
    ints stay exact: entries may pass 2^64, and the Hadamard bound of
    _dependent_by_norm is taken on them.
    """
    if a.is_integer():
        return np.array(a.entries, dtype=object).reshape(a.rows, a.cols, 1).swapaxes(0, 1)
    flat = itertools.chain.from_iterable([e.coeffs for row in _integral_rows(a)[0] for e in row])
    coeffs = np.fromiter(flat, dtype=object).reshape(a.rows, a.cols, euler_phi(a.order))
    return coeffs.swapaxes(0, 1)


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact in int64 for residues a and b mod p (see
    _PRIME_FLOOR) and any number of terms: runs of _MAX_TERMS rows of b,
    reduced between runs."""
    for s in range(0, b.shape[0] or 1, _MAX_TERMS):
        run = a[..., s : s + _MAX_TERMS] @ b[s : s + _MAX_TERMS]
        if s:
            run += out
        out = np.remainder(run, p, out=run)
    return out


def _images(
    order: int, index: int, columns: np.ndarray, maps: int | None = None
) -> tuple[int, np.ndarray]:
    """(p, images) for the index-th prime p of _root_images: the images of
    the column-major array ``columns`` under the first ``maps`` maps of p,
    every map when None, shape (maps, cols, rows).

    An integer array is the exponent table, shape (cols, rows), of a
    matrix of roots w^t, and its images are one gather from roots.  An
    object array holds power-basis coefficients, shape (cols, rows, phi),
    whose image sum_t c_t g^(e_k t) is one _mulmod by the first phi
    columns of roots.
    """
    p, roots = _root_images(order, index)
    roots = roots[:maps]
    if columns.dtype != object:
        return p, roots[:, columns]
    cols, rows, phi = columns.shape
    residues = (columns % p).astype(np.int64).reshape(cols * rows, phi).T
    return p, _mulmod(roots[:, :phi], residues, p).reshape(len(roots), cols, rows)


@functools.lru_cache(maxsize=16)
def _row_mixing(k: int, m: int, p: int) -> np.ndarray:
    """The first k rows of a fixed, seeded random m x m matrix mod p."""
    rng = random.Random(0)
    mixing = np.array([rng.randrange(p) for _ in range(k * m)], dtype=np.int64).reshape(k, m)
    mixing.flags.writeable = False  # shared by every caller through the cache
    return mixing


def _vanishing_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Flags, per m x k matrix in the stack (1 <= k <= m), whose rank mod p is below k.

    Fraction-free elimination column by column, pivoting on the first
    nonzero entry t: every row x, the pivot row y included, becomes
    t*x - x0*y without its first entry.  The pivot row becomes zero, and a
    nonzero pivot scales the other rows by a unit, so no inverse is needed.
    A zero column leaves only zeros after it, so a matrix is deficient
    exactly when its last column is zero once reached.  The stack is
    overwritten.  Only single subsets in _dependent_by_norm take this
    kernel; the block search takes _last_pivot_vanishes.
    """
    at = np.arange(stack.shape[0])
    for _ in range(stack.shape[2] - 1):
        top = stack[at, (stack[:, :, 0] != 0).argmax(axis=1)]
        rest = top[:, :1, None] * stack[:, :, 1:]
        rest -= stack[:, :, :1] * top[:, None, 1:]
        stack = np.remainder(rest, p, out=rest)
    return ~stack.any(axis=(1, 2))


def _last_pivot_vanishes(stack: np.ndarray, p: int) -> np.ndarray:
    """Flags, per k x k matrix stack[:, :, s] of a (k, k, subsets) stack,
    whose last pivot is 0 mod p.

    Fraction-free elimination without row exchanges: each step replaces A
    by a00 A11 - a10 a01, whose determinant is a00^(k-2) det A.  So the
    last pivot is det A times powers of the earlier pivots, and a matrix
    left unflagged is invertible mod p.  An invertible matrix is flagged
    only when one of its leading minors of size k-2 or less vanishes.  The
    subset axis is innermost, so each step runs over contiguous runs of one
    entry per subset, and reduces by floor division (see _PRIME_FLOOR).
    k = 0 leaves no entry and no flag.
    """
    for _ in range(stack.shape[0] - 1):
        rest = stack[:1, :1] * stack[1:, 1:]
        rest -= stack[1:, :1] * stack[:1, 1:]
        rest -= rest // p * p
        stack = rest
    return (stack == 0).any(axis=(0, 1))


def _block_search(a: ExactMatrix):
    """A level search over the columns of a, in lexicographic blocks mod p.

    The columns' images under the first map of the first prime p, the only
    map built here, are mixed once into the (min(rows, cols), cols) array
    R A, by one _mulmod with R = _row_mixing(min(rows, cols), rows, p).
    Each size-k subset S of a block is stacked as the k x k matrix R_k A_S,
    R_k the first k rows of R, along the last axis of a (k, k, subsets)
    array, in blocks of up to _BLOCK_ENTRIES // k^2 subsets.  A nonzero
    last pivot (_last_pivot_vanishes) proves S independent; each flagged S
    goes in turn to _dependent_by_norm, which is given S's columns alone
    and eliminates them again with pivoting under every map of p and of
    further primes.  If one image there has rank k (a false flag, or a
    nonzero minor that the first map sends to 0) the search goes on.

    The matrix is held as one column-major array for _images, under the
    first prime here and under every prime of the proof: the exponent
    table of a matrix whose every entry is a root of unity w^t
    (_root_exponents: the table a DFT submatrix was built from, or the one
    exact_linalg looked up once for any other matrix), else the power-basis
    coefficients (_integral_coeffs).  No coefficients are built for a
    matrix of roots.

    When a is DFT rows over all N columns (_dft_rows), the rank of a
    column subset is constant on its orbit under the affine maps
    c -> u c + t of Z_N, so only the lex-min member of each orbit is
    stacked, in lex order.  The first dependent representative is then
    the lex-first dependent subset overall, and the answer is the one the
    full lex sweep gives.

    Either way the level runs through _block_sweep, with the last pivot as
    its flag and _dependent_by_norm as its proof.
    """
    exponents = _root_exponents(a)
    columns = _integral_coeffs(a) if exponents is None else exponents.T
    p, images = _images(a.order, 0, columns, maps=1)
    orbits = _dft_rows(a, exponents)
    n, m = images.shape[1:]
    mixed = _mulmod(_row_mixing(min(m, n), m, p), images[0].T, p)

    def flags(block):
        # [row, column, subset]: R_k A_S for each subset S of the block.
        return _last_pivot_vanishes(mixed[: block.shape[1]].take(block.T, axis=1), p)

    return _block_sweep(n, orbits, lambda k: k * k, flags,
                        lambda cols: _dependent_by_norm(a.order, columns[cols]))


def _block_sweep(n: int, orbits: bool, entries, flags, proves):
    """search(k) for _first_dependent, the one block loop of both engines:
    the first size-k subset, in the order of _subset_rows(n, k, orbits),
    that ``flags`` marks and ``proves`` accepts, or None.

    _subset_rows gives the level as arrays of column indices, from an LRU
    byte cache that keeps each level, plain or one per orbit, for the next
    search of the same (n, k).  Blocks are slices of those arrays (_blocks)
    of up to _BLOCK_ENTRIES // entries(k) subsets, entries(k) being what
    one subset stacks.  flags(block) decides a whole block in one call;
    proves(columns) then takes its marked rows in turn, and only the first
    one accepted becomes a tuple of ints.
    """

    def search(k):
        cap = max(1, _BLOCK_ENTRIES // max(1, entries(k)))
        rows = _subset_rows(n, k, orbits)
        try:
            for block in _blocks(rows, min(_FIRST_BLOCK, cap), cap):
                for j in np.flatnonzero(flags(block)):
                    if proves(block[j]):
                        return tuple(block[j].tolist())
            return None
        finally:
            rows.close()

    return search


def _blocks(chunks, size: int, cap: int):
    """The rows of the arrays ``chunks`` in blocks of ``size`` rows, the size
    doubling up to ``cap``; the last block may be shorter.  A block that lies
    within one array is a view of it."""
    held, have = [], 0
    for chunk in chunks:
        while len(chunk):
            held.append(chunk[: size - have])
            chunk = chunk[size - have :]
            have += len(held[-1])
            if have == size:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, have, size = [], 0, min(2 * size, cap)
    if held:
        yield held[0] if len(held) == 1 else np.concatenate(held)


def _root_exponents(a: ExactMatrix) -> np.ndarray | None:
    """a.root_exponents() as an intp array of shape (rows, cols), or None.

    exact_linalg owns the table: a DFT submatrix records it as it is built,
    any other matrix finds it by value once.  This is the engine's one
    reader of it, so that replacing it with None sends any matrix down the
    coefficient path.
    """
    exponents = a.root_exponents()
    if exponents is None:
        return None
    return np.fromiter(exponents, np.intp, len(exponents)).reshape(a.rows, a.cols)


# Orbit masks sum distinct bits in uint64, so the affine-orbit sweep takes N <= 64.
_MAX_ORBIT_ORDER = 64


def _dft_rows(a: ExactMatrix, exponents: np.ndarray | None) -> bool:
    """Whether every row of a is a row of the N-th DFT over all N columns:
    entry (i, j) is exactly w^(r_i j) for every j in 0..N-1, cols = order = N.

    ``exponents`` is _root_exponents(a), so r_i is the exponent of entry
    (i, 1).  Any other matrix (integer, not roots of unity, another root
    anywhere, columns missing or out of that order) takes the plain sweep.
    """
    n = a.cols
    if exponents is None or a.order != n or n > _MAX_ORBIT_ORDER:
        return False
    # N = 1 has the column 0 alone, where every exponent is 0.
    return bool((exponents == np.outer(exponents[:, 1 % n], np.arange(n)) % n).all())


@functools.lru_cache(maxsize=8)
def _affine_masks(n: int) -> np.ndarray:
    """masks[c, g] = 2^(n-1-g(c)) over the affine maps g: c -> u c + t of
    Z_n, the identity first.

    Summed over a subset S, column g is the bit mask of g(S) with element 0
    on the top bit, and of two subsets of one size the lex-smaller has the
    larger mask: the first element where they differ is in it.
    """
    units = np.array(_units(n), dtype=np.uint64)
    c = np.arange(n, dtype=np.uint64)
    image = (units[:, None, None] * c + c[:, None]) % n  # [u, t, c]
    masks = np.left_shift(np.uint64(1), n - 1 - image).reshape(-1, n).T.copy()
    masks.flags.writeable = False
    return masks


def _orbit_walk(n: int, k: int):
    """Lex-min members of the affine orbits of size-k subsets of Z_n, in lex
    order, as arrays of _index_dtype(n) rows.

    A depth-first walk over prefixes.  Deleting the largest element of a
    lex-min member leaves a lex-min member (if g(S') precedes S' then g(S)
    precedes S), so a prefix that is not lex-min ends its subtree.  The
    children of a prefix are tested in one numpy step: each is lex-min
    when no affine image has a larger mask.
    """
    masks, dtype = _affine_masks(n), _index_dtype(n)

    def below(prefix, mask, lo):
        j = len(prefix)
        sums = mask + masks[lo : n - k + j + 1]
        least = np.flatnonzero(sums.max(axis=1) == sums[:, 0])
        if j + 1 == k:
            if len(least):
                out = np.empty((len(least), k), dtype=dtype)
                out[:, :j] = prefix
                out[:, j] = lo + least
                yield out
            return
        for c in least.tolist():
            yield from below(prefix + (lo + c,), sums[c], lo + c + 1)

    if k == 0:
        yield np.empty((1, 0), dtype=dtype)
    else:
        yield from below((), np.zeros(masks.shape[1], dtype=np.uint64), 0)


# A lex walk yields arrays of _FIRST_BLOCK rows, doubling up to _WALK_ROWS,
# so a search that stops early has built little more than it stacked.
_WALK_ROWS = 1 << 12


def _index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the column indices 0..n-1."""
    return np.min_scalar_type(max(n - 1, 0))


def _lex_walk(n: int, k: int):
    """The size-k subsets of range(n) in lex order, as arrays of
    _index_dtype(n) rows."""
    dtype, size = _index_dtype(n), _FIRST_BLOCK
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    left = math.comb(n, k)
    while left:
        rows = min(size, left)
        yield np.fromiter(flat, dtype, rows * k).reshape(rows, k)
        left -= rows
        size = min(2 * size, _WALK_ROWS)


# Subset-index tables depend only on (n, k) and on whether they hold every
# subset or one per affine orbit.  Each key keeps the rows its walks have
# reached as bytes of _index_dtype(n), their count, and whether a walk ran
# to the end.  The dict is in recency order: a table moves to the end when
# it is used, and the least recently used tables go first when the row
# bytes pass _SUBSET_CACHE_BYTES.
_SUBSET_CACHE_BYTES = 1 << 23
_subset_cache: dict[tuple[int, int, bool], tuple[bytes, int, bool]] = {}


def _subset_rows(n: int, k: int, orbits: bool):
    """_orbit_walk(n, k) when ``orbits``, else _lex_walk(n, k), as arrays:
    the rows kept for the key, then the rows past them, from a walk that
    starts again at the first row and keeps its rows while the bound
    allows."""
    key = n, k, orbits
    data, count, complete = _subset_cache.pop(key, (b"", 0, False))
    _subset_cache[key] = data, count, complete
    if count:
        yield np.frombuffer(data, dtype=_index_dtype(n)).reshape(count, k)
    if complete:
        return
    walk = _orbit_walk if orbits else _lex_walk
    grown, size, whole, replayed = [data], len(data), True, count
    try:
        for chunk in walk(n, k):
            chunk, replayed = chunk[replayed:], max(0, replayed - len(chunk))
            whole = whole and size + chunk.nbytes <= _SUBSET_CACHE_BYTES
            if whole:
                grown.append(chunk.tobytes())
                size += chunk.nbytes
                count += len(chunk)
            yield chunk
        complete = whole
    finally:
        # Runs when the caller stops early too.  Another walk of the key may
        # have stored its rows meanwhile; the entry with more rows, or with
        # as many and complete, stays.
        if (count, complete) > _subset_cache.get(key, (b"", 0, False))[1:]:
            _subset_cache.pop(key, None)
            _subset_cache[key] = b"".join(grown), count, complete
            while sum(len(kept) for kept, _, _ in _subset_cache.values()) > _SUBSET_CACHE_BYTES:
                del _subset_cache[next(iter(_subset_cache))]


def _dependent_by_norm(order: int, columns: np.ndarray) -> bool:
    """Decide k columns of Z[w] entries, flagged by the block search.

    The columns are given alone, as to _images: an exponent table of shape
    (k, rows), or coefficients of shape (k, rows, phi).  The bound h2 on
    |sigma(alpha)|^2, for every k x k minor alpha and every embedding
    sigma, is Hadamard's inequality taken here on those columns: k^k for
    roots of unity, whose conjugates all have modulus 1, else the product
    over the columns of sum_i L1(a_ij)^2.  A prime = 1 (mod order) splits
    completely in Z[w], so a minor that vanishes under all phi maps of
    each prime taken is divisible by their product P, and
    |Norm alpha| >= P^phi unless alpha = 0.  Primes are therefore taken
    from the first, the block search's own, until P^2 > h2, and the images
    under each are eliminated with pivoting (_vanishing_mod_p): the
    columns are dependent if they stay deficient under every map of every
    prime, and independent as soon as one image has rank k (Cabay and Lam,
    1977).  The block search flags under the first map of the first prime
    only, so the proof starts at that prime and checks all of its maps.
    """
    if columns.dtype != object:
        h2 = len(columns) ** len(columns)
    else:
        l1 = np.abs(columns).sum(axis=2)
        h2 = math.prod((l1 * l1).sum(axis=1).tolist())
    modulus, index = 1, 0
    while modulus * modulus <= h2:
        q, images = _images(order, index, columns)
        if not _vanishing_mod_p(images.swapaxes(1, 2), q).all():
            return False
        modulus *= q
        index += 1
    return True


def is_full_spark(
    a: ExactMatrix, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> SparkCertificate:
    """Check every MxM column submatrix for invertibility, exactly.

    _first_dependent searches the single size M by _block_search, within
    the budget.  A minor with a nonzero image under some ring map
    Z[w] -> F_p is nonzero; a minor whose images all vanish is zero when
    the norm bound proves it, and the first such minor is the witness.
    ``threads`` is accepted for compatibility and changes nothing.
    """
    m, n = a.rows, a.cols
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {_quoted(threads)}")
    if m > n:
        raise ShapeError(f"full spark needs cols >= rows, got {m}x{n}")
    k, witness, checked = _first_dependent(n, (m,), budget, _block_search(a))
    return SparkCertificate(k, m, n, witness, checked, "exact", budget)


def numeric_spark_probe(
    f, tol: float = 1e-10, budget: int = DEFAULT_BUDGET
) -> SparkCertificate:
    """Floating-point spark estimate via singular value rank decisions.

    A column subset counts as dependent when its smallest singular value is
    at most tol * largest * rows, for a finite tol >= 0, once scaled by a
    power of two into range.  Each level runs through _block_sweep in plain
    lex order: a block of subsets is stacked as one (subsets, rows, k)
    array, scaled per subset, and decided by one batched SVD, and a flagged
    subset is taken as it is.  Same sweep order and sentinel conventions as
    the exact engine; the certificate is advisory, not a proof.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    arr = _complex_matrix(f)
    m, n = arr.shape

    def flags(block):
        # [subset, row, column]: A_S for each subset S of the block.
        stack = _unit_scaled(arr.T[block].swapaxes(1, 2), axis=(1, 2))
        s = np.linalg.svd(stack, compute_uv=False)
        return s[:, -1] <= tol * s[:, 0] * m

    search = _block_sweep(n, False, lambda k: m * k, flags, lambda cols: True)
    k, witness, checked = _first_dependent(n, range(1, min(m, n) + 1), budget, search)
    return SparkCertificate(k, m, n, witness, checked, "numeric", budget)


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
    p_cap, which the result records as capped=True and p=p_cap, unless
    allow_cap is False, in which case CapExceeded is raised.
    """
    if not isinstance(f, ExactMatrix) or not f.is_integer():
        raise TypeError("compressed probe needs an integer ExactMatrix")
    m, n = f.rows, f.cols
    if not 1 <= k <= min(m, n):
        raise ShapeError(f"k must lie in 1..min(rows, cols), got {_quoted(k)}")
    if trials < 1:
        raise ValueError("trials must be positive")
    p = (m**3) * (2 ** (n + 1))
    capped = False
    if p > p_cap:
        if not allow_cap:
            raise CapExceeded(f"P = {_quoted(p)} exceeds cap {p_cap}")
        p = p_cap
        capped = True
    if p < k:
        raise CapExceeded(f"cap {p} leaves fewer than k = {k} bases")
    rng = random.Random(rng_seed)
    result = functools.partial(CompressedProbeResult, k=k, trials=trials, p=p, capped=capped)
    for t in range(trials):
        bases = sorted(rng.sample(range(1, p + 1), k))
        sketch = ExactMatrix.from_rows([[b**i for i in range(m)] for b in bases])
        cert = is_full_spark(sketch @ f, budget=budget)
        if not cert.full_spark:
            return result(exceeds_k=False, failing_trial=t, candidate_columns=cert.witness)
    return result(exceeds_k=True, failing_trial=None, candidate_columns=None)
