"""The exact null law of F_r, and the one enumeration budget.

The law of F_r is one exact convolution across trials of the full
column-sum vector, over sorted states, each weighted by its count of
configurations, without touching the (r!)^n space.  Each trial is one numpy
pass over the states times the r! moves: rows sorted, keyed as int64 in a
mixed radix that keeps tuple order, merged by np.unique, with exact
Python-int counts summed on an object array.

Cost is counted in enumerated terms and capped by the one budget BUDGET_CAP
(_check_terms raises BudgetError naming the cell, the term count and the
cap); every exact layer of the package charges it.  This module is small
on purpose: `rate` and `distance --mode exact` read the law and load
nothing of the verifiers in ``exact``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations as iter_permutations

from .bounds import _check_nr
from .errors import BudgetError

__all__ = ["BUDGET_CAP", "centered_doubled", "exact_f_distribution", "point_mass_at_zero"]

BUDGET_CAP = 200_000


def centered_doubled(r: int) -> list[int]:
    """Doubled centered ranks: 2*(k - (r+1)/2) for k = 1..r."""
    return [2 * k - (r + 1) for k in range(1, r + 1)]


def _check_terms(cell: str, terms: int) -> None:
    """The one enumeration budget: BudgetError once a cell needs over BUDGET_CAP terms."""
    if terms > BUDGET_CAP:
        raise BudgetError(f"{cell} needs {terms} enumerated terms, which exceeds "
                          f"the cap {BUDGET_CAP}")


def _sum_counts(r: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Counts of the sorted doubled column sums over n trials, in tuple order.

    One trial's row is uniform on the r! permutations of the doubled ranks,
    so the law of the column sums is the n-fold convolution of that uniform
    law; total weight (r!)^n.  Each state is sorted after every trial, which
    is exact: the moves are closed under permuting coordinates, so sorting
    commutes with each trial, and both callers are symmetric in the columns
    (the sum of squares for F_r; |s|^2 and s' (I - J/r) s for the operator
    link).  Before each trial the budget is charged with the running total
    of states times the r! moves, so a cell past the cap fails at the first
    trial that would exceed it; the moves are built after the first charge.

    A trial is one array pass: every (state, move) sum is sorted along its
    row and keyed as one int64 in mixed radix 2n(r-1)+1 (a column sum lies
    in [-n(r-1), n(r-1)]), which orders keys as the tuples are ordered;
    np.unique merges equal keys, and np.add.at sums their counts on an
    object array, so counts stay exact Python ints past 2^63.
    """
    import numpy as np

    radix = 2 * n * (r - 1) + 1
    states, counts = np.zeros((1, r), np.int64), np.ones(1, object)
    moves, charged = None, 0
    for _ in range(n):
        charged += len(states) * math.factorial(r)
        _check_terms(f"the convolution of {r} column sums at r={r}, n={n}", charged)
        if moves is None:
            if radix ** r > np.iinfo(np.int64).max:
                raise BudgetError(f"the state keys at r={r}, n={n} need {radix}^{r}, past int64")
            moves = np.array(list(iter_permutations(centered_doubled(r))), np.int64)
        sums = np.sort((states[:, None, :] + moves).reshape(-1, r), axis=1)
        keys = (sums + n * (r - 1)) @ radix ** np.arange(r - 1, -1, -1, dtype=np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        summed = np.zeros(len(first), object)
        np.add.at(summed, inverse, np.repeat(counts, len(moves)))
        states, counts = sums[first], summed
    return tuple(zip(map(tuple, states.tolist()), counts.tolist()))


def exact_f_distribution(n: int, r: int) -> list[tuple[Fraction, Fraction]]:
    """Sorted atoms (value, probability) of F_r under the null, exact."""
    _check_nr(n, r)
    weight = math.factorial(r) ** n
    sq_counts: Counter = Counter()
    for state, c in _sum_counts(r, n):
        sq_counts[sum(q * q for q in state)] += c
    scale = Fraction(3, r * (r + 1) * n)  # F = 3 * sum Q_j^2 / (r(r+1)n)
    return [(scale * k, Fraction(c, weight)) for k, c in sorted(sq_counts.items())]


def point_mass_at_zero(n: int, r: int) -> Fraction:
    """Exact P(F_r = 0)."""
    return dict(exact_f_distribution(n, r)).get(Fraction(0), Fraction(0))
