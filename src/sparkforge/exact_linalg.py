"""Exact determinants and ranks for integer and cyclotomic matrices.

Matrices hold either arbitrary-precision integers or ExactScalar entries.
det_exact and rank_exact both read one fraction-free elimination, _bareiss
(in exact_arith, where ExactScalar.inverse also runs it), which pivots on
the first nonzero entry of each column; its last pivot is the determinant
up to the sign of the row swaps.  Integer rows go in as they are.  Each
Q(w) row is first cleared by the lcm of its denominators, so the
elimination runs in Z[w], where Sylvester's identity makes every division
exact, and the product of those lcms divides the determinant at the end.

This module is also the one that knows which entries are roots of unity
w^t, and for which t (ExactMatrix.root_exponents): a DFT submatrix records
the table it is built from, any other matrix looks its entries up once.
"""

from __future__ import annotations

import math
import operator

from .errors import IndexOutOfRange, NonFiniteEntry, ShapeError, SideLimitExceeded
from .exact_arith import CycInt, ExactScalar, _bareiss, _root_table

__all__ = ["ExactMatrix", "det_exact", "rank_exact", "dft_submatrix"]

DEFAULT_SIDE_LIMIT = 64

_INT = "int"
_SCALAR = "scalar"
_ORDER = operator.attrgetter("num.order")


class ExactMatrix:
    """Row-major matrix of integers or of ExactScalar entries.

    ``order`` is the common cyclotomic order of the entries; integer
    matrices carry order 1.  The exponent table (root_exponents) is held in
    ``_exponents`` once known; equality and hashing ignore it.
    """

    __slots__ = ("rows", "cols", "order", "entries", "kind", "_exponents")

    def __init__(self, rows: int, cols: int, entries, order: int = 1):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        # One check per distinct entry type; the orders are read without a
        # Python-level loop (deduplicating entry objects by id costs more).
        types = set(map(type, entries))
        if types and all(issubclass(t, int) for t in types):
            kind = _INT
            if order != 1:
                raise ValueError("integer matrices carry order 1")
        elif types:
            if not all(issubclass(t, ExactScalar) for t in types):
                raise TypeError("entries must be all int or all ExactScalar")
            orders = set(map(_ORDER, entries))
            if len(orders) != 1:
                raise ValueError(f"mixed cyclotomic orders {sorted(orders)}")
            order = orders.pop()
            kind = _SCALAR
        else:
            kind = _INT if order == 1 else _SCALAR
        self.rows = rows
        self.cols = cols
        self.order = order
        self.entries = entries
        self.kind = kind

    @classmethod
    def from_rows(cls, rows_of_entries) -> "ExactMatrix":
        rows_of_entries = [list(r) for r in rows_of_entries]
        nrows = len(rows_of_entries)
        ncols = len(rows_of_entries[0]) if nrows else 0
        if any(len(r) != ncols for r in rows_of_entries):
            raise ShapeError("ragged rows")
        flat = []
        for r in rows_of_entries:
            for e in r:
                flat.append(ExactScalar(e) if isinstance(e, CycInt) else e)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def is_integer(self) -> bool:
        return self.kind == _INT

    def root_exponents(self) -> tuple[int, ...] | None:
        """The row-major table T with entry k equal to w^T[k], or None when
        the matrix is integer or some entry is not such a root.

        dft_submatrix records its table as it builds the entries.  Any other
        matrix looks its entries up by value, in the root table of its
        order, the first time it is asked: each distinct entry object once,
        and a root has denominator 1.
        """
        if self.kind == _INT:
            return None
        try:
            return self._exponents
        except AttributeError:
            self._exponents = _exponents_by_value(self)
            return self._exponents

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        base = i * self.cols
        return list(self.entries[base : base + self.cols])

    def to_rows(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    def column_submatrix(self, cols) -> "ExactMatrix":
        cols = list(cols)
        ncols = self.cols
        if any(c < 0 or c >= ncols for c in cols):
            raise ShapeError("column index out of range")
        ents = []
        for i in range(self.rows):
            base = i * ncols
            for c in cols:
                ents.append(self.entries[base + c])
        return ExactMatrix(self.rows, len(cols), ents, self.order)

    def transpose(self) -> "ExactMatrix":
        ents = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return ExactMatrix(self.cols, self.rows, ents, self.order)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.kind != other.kind or self.order != other.order:
            raise TypeError("matmul requires matching entry kinds and orders")
        a, b = self.to_rows(), other.to_rows()
        n, m, p = self.rows, self.cols, other.cols
        if self.kind == _INT:
            zero = 0
        else:
            zero = ExactScalar.zero(self.order)
        out = []
        for i in range(n):
            ai = a[i]
            for j in range(p):
                acc = zero
                for k in range(m):
                    acc = acc + ai[k] * b[k][j]
                out.append(acc)
        return ExactMatrix(n, p, out, self.order)

    def to_complex_rows(self) -> list[list[complex]]:
        convert = complex if self.kind == _INT else ExactScalar.to_complex
        try:
            return [[convert(e) for e in self.row_list(i)] for i in range(self.rows)]
        except OverflowError as exc:
            raise NonFiniteEntry(f"exact entry out of float range: {exc}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.order == self.order
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.order, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, order={self.order}, kind={self.kind})"


def _exponents_by_value(a: ExactMatrix) -> tuple[int, ...] | None:
    index = _root_table(a.order)[1]
    ids = list(map(id, a.entries))
    exponent = {}
    for key, e in dict(zip(ids, a.entries)).items():
        t = index.get(e.num.coeffs) if e.den == 1 else None
        if t is None:
            return None
        exponent[key] = t
    return tuple(map(exponent.__getitem__, ids))


def _integral_rows(a: ExactMatrix) -> tuple[list[list], int]:
    """The rows of a, each Q(w) row cleared by the lcm of its denominators, and their product."""
    if a.kind == _INT:
        return a.to_rows(), 1
    rows, factor = [], 1
    for row in a.to_rows():
        lcm = math.lcm(*(e.den for e in row))
        rows.append([e.num.scale(lcm // e.den) for e in row])
        factor *= lcm
    return rows, factor


def det_exact(a: ExactMatrix, side_limit: int = DEFAULT_SIDE_LIMIT) -> ExactScalar:
    """Exact determinant; 0x0 matrices have determinant one."""
    if a.rows != a.cols:
        raise ShapeError(f"determinant of a {a.rows}x{a.cols} matrix")
    if a.rows > side_limit:
        raise SideLimitExceeded(f"side {a.rows} exceeds limit {side_limit}")
    rows, factor = _integral_rows(a)
    rank, sign, last = _bareiss(rows, a.cols, stop_at_gap=True)
    if rank < a.rows:
        return ExactScalar.zero(a.order)
    last = CycInt.from_int(a.order, last) if isinstance(last, int) else last
    return ExactScalar(last if sign > 0 else -last, factor)


def rank_exact(a: ExactMatrix) -> int:
    """Exact rank over the entry field."""
    return _bareiss(_integral_rows(a)[0], a.cols, stop_at_gap=False)[0]


def dft_submatrix(order: int, rows, cols=None) -> ExactMatrix:
    """Rows of the order-th DFT matrix as an exact cyclotomic matrix.

    Entry (i, j) is w^(rows[i] * cols[j]) with w a primitive order-th root
    of unity; cols defaults to the whole residue range.  The exponents
    rows[i] * cols[j] mod order are computed once, each entry is the shared
    scalar at that index of the order's root table, and the exponents are
    recorded as the matrix's root_exponents.  The root table is the
    validation: no entry is checked again, and the matrix is never looked
    up by value.
    """
    rows = list(rows)
    if rows and not 0 <= min(rows) <= max(rows) < order:
        raise IndexOutOfRange("row index out of residue range")
    if cols is None:
        cols = range(order)
    else:
        cols = list(cols)
        if cols and not 0 <= min(cols) <= max(cols) < order:
            raise IndexOutOfRange("column index out of residue range")
        # operator.index refuses a float index and keeps the table Python ints.
        cols = list(map(operator.index, cols))
    roots = _root_table(order)[0]
    exponents = tuple([r * c % order for r in map(operator.index, rows) for c in cols])
    a = ExactMatrix.__new__(ExactMatrix)
    a.rows, a.cols, a.order = len(rows), len(cols), order
    a.entries = tuple(map(roots.__getitem__, exponents))
    # With no entries the order alone sets the kind, as in ExactMatrix().
    a.kind = _SCALAR if exponents or order != 1 else _INT
    a._exponents = exponents
    return a
