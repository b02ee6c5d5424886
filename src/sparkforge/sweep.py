"""The one subset sweep, shared by spark and Hall girth, without numpy.

One subset sweep, _first_dependent, decides spark, the full-spark check,
the numeric probe and the Hall girth of matroid: the sizes it is given (1,
2, ... or the single size M of a full-spark check) in turn, each entered
only when its whole level fits in the budget and searched in lexicographic
column order.  The witness reported is the lexicographically smallest
dependent subset at the answer size.  When the whole sweep fits the
budget, spark first searches its top size min(rows, cols): subsets of
independent sets are independent, so one top level can settle all.  The
numeric probe keeps the plain order (rank under a float tolerance is not
monotone), and so does Hall girth, whose top level is the whole ground
set.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**6


def _lex_rank(n: int, combo: tuple[int, ...]) -> int:
    """How many size-len(combo) subsets of range(n) precede combo in lex order.

    Those with combo's first i elements and a smaller (i+1)-th element x,
    prev < x < c, number sum_x C(n-x-1, k-i-1) = C(n-prev-1, k-i) - C(n-c, k-i)
    by the hockey-stick identity.
    """
    k, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        rank += math.comb(n - prev - 1, k - i) - math.comb(n - c, k - i)
        prev = c
    return rank


def _first_dependent(
    n: int, sizes, budget: int, search
) -> tuple[int, tuple[int, ...] | None, int]:
    """The one subset sweep: (k, cols, checked) for the first dependent subset.

    The sizes are taken in turn, and a size is entered only when its whole
    level fits in what is left of the budget; BudgetExceeded names the
    first size that does not.  ``search(k)`` returns the lexicographically
    first dependent size-k subset of range(n), or None; ``checked`` counts
    every subset up to and including the answer.  When no subset is
    dependent the answer is (max(sizes) + 1, None, checked), 1 for no size.
    """
    checked = 0
    for k in sizes:
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
    return max(sizes, default=0) + 1, None, checked
