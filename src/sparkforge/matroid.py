"""Transversal matroid girth via Hall's condition and random representations.

A bipartite graph on ground elements (left) and match targets (right)
defines a transversal matroid: a set of ground elements is independent when
it can be matched injectively into its neighborhoods.  The girth, the size
of the smallest dependent set, is the smallest |C| whose total neighborhood
has at most |C| - 1 vertices.

A random integer matrix supported on the bipartite adjacency represents
the matroid with probability at least 1/2 per draw, which turns spark
computations into one-sided girth estimates: spark never exceeds girth, so
the max over independent draws only improves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BadK, CapExceeded, ShapeError
from .exact_linalg import ExactMatrix
from .sweep import DEFAULT_BUDGET, _first_dependent

__all__ = [
    "BipartiteGraph",
    "SimpleGraph",
    "GirthResult",
    "hall_girth",
    "random_representation",
    "girth_via_representation",
    "clique_gadget",
]

# Adjacency entries |E| * (C(k,2) - k + 1) of the largest clique gadget built.
MAX_GADGET_ENTRIES = 1_000_000


def _field(data, key: str):
    if not isinstance(data, dict) or key not in data:
        raise ShapeError(f"graph file missing field {key!r}")
    return data[key]


def _graph_list(value) -> list:
    # A dict or string would iterate as keys or characters, or as nothing.
    if not isinstance(value, (list, tuple)):
        raise ShapeError(f"graph lists must be JSON lists, got {value!r}")
    return value


def _graph_int(value) -> int:
    # bool is an int subclass, and int() would truncate floats silently.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShapeError(f"graph entries must be integers, got {value!r}")
    return value


@dataclass(frozen=True)
class BipartiteGraph:
    """Ground elements 0..ground_size-1, each adjacent to right vertices."""

    ground_size: int
    right_size: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ground_size < 0 or self.right_size < 0:
            raise ShapeError("negative sizes")
        adj = tuple(tuple(sorted(set(nbrs))) for nbrs in self.adj)
        object.__setattr__(self, "adj", adj)
        if len(adj) != self.ground_size:
            raise ShapeError("adjacency length must equal ground_size")
        for nbrs in adj:
            for v in nbrs:
                if not 0 <= v < self.right_size:
                    raise ShapeError(f"right vertex {v} out of range")

    @classmethod
    def from_dict(cls, data: dict) -> "BipartiteGraph":
        return cls(
            ground_size=_graph_int(_field(data, "ground")),
            right_size=_graph_int(_field(data, "right")),
            adj=tuple(
                tuple(_graph_int(v) for v in _graph_list(nbrs))
                for nbrs in _graph_list(_field(data, "adj"))
            ),
        )

    def to_dict(self) -> dict:
        return {
            "ground": self.ground_size,
            "right": self.right_size,
            "adj": [list(nbrs) for nbrs in self.adj],
        }


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected loop-free graph; edges stored as sorted pairs."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertices < 0:
            raise ShapeError("negative vertex count")
        canon = set()
        for a, b in self.edges:
            if a == b:
                raise ShapeError("self loops are not allowed")
            if not (0 <= a < self.vertices and 0 <= b < self.vertices):
                raise ShapeError(f"edge ({a}, {b}) out of range")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def from_dict(cls, data: dict) -> "SimpleGraph":
        return cls(
            vertices=_graph_int(_field(data, "vertices")),
            edges=tuple(
                (_graph_int(a), _graph_int(b)) for a, b in _graph_list(_field(data, "edges"))
            ),
        )

    def to_dict(self) -> dict:
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class GirthResult:
    """Girth value with provenance.

    ``girth`` equals ground_size + 1 (with witness None) when no dependent
    set exists.  A witness from the hall method fails Hall's condition; a
    witness from the representation method indexes ground columns that were
    rank deficient in the best draw.
    """

    girth: int
    ground_size: int
    witness: tuple[int, ...] | None
    method: str
    trials: int | None = None
    seed: int | None = None

    @property
    def sentinel(self) -> bool:
        return self.girth == self.ground_size + 1

    def as_dict(self) -> dict:
        return {
            "girth": self.girth,
            "ground": self.ground_size,
            "sentinel": self.sentinel,
            "witness": list(self.witness) if self.witness is not None else None,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
        }


def _first_violation(masks: list[int], k: int) -> tuple[int, ...] | None:
    """The lexicographically first k-subset whose neighbourhood has < k vertices.

    A depth-first search over ascending prefixes carries the union of their
    neighbourhood bitmasks and drops a prefix once that union has k vertices:
    a neighbourhood only grows, so no extension of it is a dependent k-set.
    Prefixes are taken in lexicographic order, so the first leaf reached is
    the answer.  Every prefix tested extends to some k-subset, and a k-subset
    has k prefixes, so a level costs at most k * C(n, k) steps.
    """
    n = len(masks)
    prefix, unions = [], [0]
    stack = [iter(range(n - k + 1))]
    while stack:
        for e in stack[-1]:
            union = unions[-1] | masks[e]
            if union.bit_count() < k:
                if len(prefix) == k - 1:
                    return (*prefix, e)
                prefix.append(e)
                unions.append(union)
                stack.append(iter(range(e + 1, n - k + len(prefix) + 1)))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()
                unions.pop()
    return None


def hall_girth(g: BipartiteGraph, budget: int = DEFAULT_BUDGET) -> GirthResult:
    """Exact girth by Hall's condition, in size-then-lexicographic order.

    A subset C is dependent as soon as its total neighborhood has at most
    |C| - 1 vertices; the first such C in size-then-lexicographic order is
    the witness.  Each size is searched by _first_violation under the budget
    rule of the subset sweep.
    """
    n = g.ground_size
    masks = [sum(1 << v for v in nbrs) for nbrs in g.adj]
    girth, witness, _ = _first_dependent(
        n, range(1, n + 1), budget, lambda k: _first_violation(masks, k)
    )
    return GirthResult(girth=girth, ground_size=n, witness=witness, method="hall_oracle")


def random_representation(g: BipartiteGraph, rng_seed: int) -> ExactMatrix:
    """Random integer matrix supported on the adjacency pattern.

    Entry (i, j) for right vertex i adjacent to ground element j is drawn
    uniformly from {1, ..., ground_size * 2^(ground_size + 1)}; other
    entries are zero.  Each draw represents the transversal matroid with
    probability at least 1/2, and failures only shrink independent sets,
    never enlarge them.
    """
    if g.right_size < 1:
        raise ShapeError("need at least one right vertex")
    n = g.ground_size
    hi = n * 2 ** (n + 1)
    rng = random.Random(rng_seed)
    columns = []
    for j in range(n):
        col = [0] * g.right_size
        for i in g.adj[j]:
            col[i] = rng.randint(1, hi)
        columns.append(col)
    entries = [columns[j][i] for i in range(g.right_size) for j in range(n)]
    return ExactMatrix(g.right_size, n, entries)


def girth_via_representation(
    g: BipartiteGraph, trials: int, rng_seed: int, budget: int = DEFAULT_BUDGET
) -> GirthResult:
    """One-sided girth estimate: the max spark over random representations.

    Every draw satisfies spark <= girth, so the estimate only ever falls
    short, and each draw independently achieves equality with probability
    at least 1/2.  Drawing stops at the ceiling min(right, ground) + 1,
    which later draws could only tie.  A graph without edges is decided
    before any draw, as hall_girth decides it: girth 1 with witness (0,),
    or with no witness when the ground set is empty.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = g.ground_size
    if not any(g.adj):
        # No edges: every element is a loop, decided without a draw.
        return GirthResult(
            girth=1, ground_size=n, witness=(0,) if n else None,
            method="representation", trials=trials, seed=rng_seed,
        )
    from .spark_engine import spark  # loads numpy, which hall_girth never needs

    master = random.Random(rng_seed)
    best = None
    for _ in range(trials):
        cert = spark(random_representation(g, master.randrange(2**62)), budget=budget)
        if best is None or cert.spark > best.spark:
            best = cert
        if best.spark > min(g.right_size, n):
            break
    return GirthResult(
        girth=best.spark, ground_size=n, witness=best.witness,
        method="representation", trials=trials, seed=rng_seed,
    )


def clique_gadget(g: SimpleGraph, k: int) -> BipartiteGraph:
    """Bipartite gadget whose transversal matroid girth detects k-cliques.

    Ground elements are the edges of g in sorted order.  Each edge is
    adjacent to its two endpoints plus C(k,2) - k - 1 shared padding
    vertices, so a set of c edges is dependent exactly when it spans at
    most c + k - C(k,2) vertices.  The smallest such set of size C(k,2)
    is a k-clique, making the girth equal C(k,2) if and only if g contains
    one.  Needs k >= 4 so the padding count is nonnegative; a gadget past
    MAX_GADGET_ENTRIES adjacency entries raises CapExceeded.
    """
    if k < 4:
        raise BadK("gadget needs k >= 4")
    pads = math.comb(k, 2) - k - 1
    entries = len(g.edges) * (pads + 2)
    if entries > MAX_GADGET_ENTRIES:
        raise CapExceeded(f"gadget needs {entries} adjacency entries, cap {MAX_GADGET_ENTRIES}")
    right = g.vertices + pads
    pad_block = tuple(range(g.vertices, right)) if g.edges else ()
    adj = tuple((a, b) + pad_block for a, b in g.edges)
    return BipartiteGraph(ground_size=len(g.edges), right_size=right, adj=adj)
