"""The exact null law of F_r, and the one enumeration budget.

From r = 3 on, the law of F_r is one exact convolution across trials of the
full column-sum vector, over sorted states, each weighted by its count of
configurations, without touching the (r!)^n space.  Each trial is one numpy
pass over the states times the r! moves: rows sorted, keyed as int64 in a
mixed radix that keeps tuple order, merged by np.unique, with exact
Python-int counts summed on an object array.  At r = 2 the doubled column
sums are Q = (q, -q), q = n - 2b with b ~ Bin(n, 1/2), so the law is one
binomial row, built by the recurrence C(n, b+1) = C(n, b)(n-b)/(b+1) and
charged (n+1) ceil(n/64) terms (n+1 counts of up to n bits, one term per
64-bit word): it runs to n = 3570, where the convolution, about n^2 terms,
stops at n = 631.  The convolution never runs at r = 2.  The first trial
needs no move: from the zero state every row sorts to the sorted row, so the
engine starts from that one state with count r!, and reads rows from the
second trial on.

Cost is counted in enumerated terms and capped by the one budget BUDGET_CAP
(_check_terms raises BudgetError naming the cell, the term count and the
cap); every exact layer of the package charges it, before any work.  Both of
the budget's decisions live here, and so does every tuple count they read.
The price of a cell that walks one trial's ordered k-tuples of distinct
values is one rule, _check_tuples: m terms per tuple of one trial size r.
The lemma and inequality suites walk the tuples of every size 2..r, and
_check_walk prices that sum in closed form.  One trial's r! rows are the
case k = r.  They are one table, _permutation_table: the r! permutations of
1..r as int16 rows in permutations order, built once per r, which the
sampler in ``montecarlo`` reads as it is (0.62 MB at r = 8, where a tuple of
row tuples held 4.3 MB).  _trial_rows is the one way the exact side reads
it: it prices m terms per row, m the engine's running state count, 1 for
the rows of the operator link, and r^2 for the coupling row draws, and then
returns the doubled centered rows 2 table - (r+1).  The overlap law behind
T_m is priced by the same rule at one term per row, but streams the
permutations and keeps no row, so the lemma suites load no numpy.  A
count is multiplied out only for k <= 30, where it still prints in full;
past that k! alone is beyond any cap, and the cell is refused at once with
the short note "more than 30!".  The other walks are no tuple counts, and
each suite charges _check_terms its own units per step before any cell: the
lemma suite's moment products over n, the identities suite's trials at
each r that draws (_rows_fit: its r! overlap rows fit the budget) and one
term for each other r, the coupling suite's entries per (r, n) cell and
the Stein suite's f' evaluations over p.  A verify suite runs each cell through
_within_budget, which returns the cell's entries, or for a cell past the
budget its one skip entry with the BudgetError as its note.

f_law returns the law as one frozen record, FLaw: the integer keys |Q|^2
(Q the doubled column sums, F_r = 3 |Q|^2 / (r(r+1)n)) in increasing order,
their exact counts, the total (r!)^n and the number of sorted column-sum
states summed over (the engine's; at r = 2 the row's n//2 + 1 values of
|q|, which are the engine's states there too).  Every exact consumer reads that record:
the float atoms of the exact rows in ``montecarlo``, which report its
states, the rational atoms and P(F_r = 0) in ``exact``, and the Stein
half of the operator link in ``stein``.  A sampled law in ``montecarlo`` is
the same record: its draws' |Q|^2 keys tallied, over its samples.

f_of_key is the one place a float F_r is formed, rounded once from
|Q|^2: the observed statistic in ``ranks`` and every atom, exact or
sampled.  law_floats is the one float view of a record, shared by every
distance and the link: atoms through f_of_key, and masses and CDF levels
as the counts and their integer prefix sums over the total, each rounded
once, so the last level is 1.0.

The verify entry format of every suite is owned here: _entry builds one
entry, _count_entry a check counted over units ("N exact" against "N
required", passing when no unit fails), and _skip_entry a check that cannot
run at its cell, with the reason as its note.

This module is small on purpose, and imports only the standard library
(numpy where the table, a float view or the engine runs): `rate` and
`distance` read the law and its float view, `test` the float F_r, and the coupling and
Stein suites the verify entry format, without loading the verifiers in
``exact`` or ``fractions``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import BudgetError, check_count

__all__ = ["BUDGET_CAP", "FLaw", "all_pass", "centered_doubled", "f_law", "f_of_key", "law_floats"]

BUDGET_CAP = 200_000


def _entry(identity: str, r: int | None, n: int | None, status: str, lhs, rhs,
           note: str = "") -> dict:
    """One verify entry {identity, r, n, status, lhs, rhs[, note]}, the format of every suite."""
    e = {"identity": identity, "r": r, "n": n, "status": status, "lhs": str(lhs), "rhs": str(rhs)}
    if note:
        e["note"] = note
    return e


def _count_entry(identity: str, r: int | None, n: int | None, bad: int, total: int,
                 unit: str = "", note: str = "") -> dict:
    """A check counted over `total` units, `bad` of them failing: passes when none fails."""
    return _entry(identity, r, n, "fail" if bad else "pass",
                  f"{total - bad}{unit} exact", f"{total} required", note)


def _skip_entry(identity: str, r: int | None, n: int | None, note: str) -> dict:
    """A check that cannot run at the cell, with the reason."""
    return _entry(identity, r, n, "skip", "-", "-", note)


def all_pass(report: list[dict]) -> bool:
    return all(e["status"] != "fail" for e in report)


def centered_doubled(r: int) -> list[int]:
    """Doubled centered ranks: 2*(k - (r+1)/2) for k = 1..r."""
    return [2 * k - (r + 1) for k in range(1, r + 1)]


def _check_terms(cell: str, terms: int | str) -> None:
    """The one enumeration budget: BudgetError once a cell needs over BUDGET_CAP
    terms (a str stands for a count known to be past any cap; a count past
    2**256 is named as such, so that the note stays short at any size)."""
    if not isinstance(terms, str) and terms > 2 ** 256:
        terms = "more than 2**256"
    if isinstance(terms, str) or terms > BUDGET_CAP:
        raise BudgetError(f"{cell} needs {terms} enumerated terms, which exceeds "
                          f"the cap {BUDGET_CAP}")


def _check_tuples(cell: str, r: int, k: int, per_tuple: int = 1) -> None:
    """The one pricing rule: ``per_tuple`` terms on each ordered k-tuple of
    distinct values of one trial of size r, r!/(r-k)! of them (k = r: its r!
    rows).

    The count is multiplied out only for k <= 30, where it still prints in
    full; past it k! alone is beyond any cap, so the cell is refused at once
    with a short note and no factorial is formed.
    """
    _check_terms(cell, "more than 30!" if k > 30 else per_tuple * math.perm(r, k))


def _rows_fit(r: int) -> bool:
    """Whether one trial's r! rows fit the budget at one term per row, the
    price of the overlap law behind T_m and E[beta^4]."""
    return math.factorial(r) <= BUDGET_CAP


def _check_walk(cell: str, r: int, k: int) -> None:
    """The price of a suite that walks the ordered k-tuples (k >= 2) of every
    trial size 2..r: sum_s s!/(s-k)! = (r+1)!/(r-k)!/(k+1) terms."""
    _check_terms(cell, math.perm(r + 1, k + 1) // (k + 1))


@lru_cache(maxsize=None)
def _permutation_table(r: int):
    """All r! permutations of 1..r as int16 rows in lexicographic order, read-only.

    Rows with first entry f are f followed by the (r-1)-table with its
    entries >= f shifted up by one, which keeps the order lexicographic.
    """
    import numpy as np

    table = np.ones((1, 1), dtype=np.int16)
    for m in range(2, r + 1):
        first = np.repeat(np.arange(1, m + 1, dtype=np.int16), table.shape[0])[:, None]
        rest = np.tile(table, (m, 1))
        rest += rest >= first
        table = np.concatenate([first, rest], axis=1)
    table.setflags(write=False)
    return table


def _trial_rows(cell: str, r: int, per_row: int):
    """One trial's r! rows of doubled centered ranks, 2 _permutation_table(r)
    - (r+1), in permutations order (the identity first), after ``per_row``
    terms on each are charged: on every call, and before any row is built."""
    _check_tuples(cell, r, r, per_row)
    return 2 * _permutation_table(r) - (r + 1)


def _within_budget(identity: str, r: int | None, n: int | None, check) -> list[dict]:
    """check()'s entries, or for a cell past the budget its one skip entry naming the cost."""
    try:
        return check()
    except BudgetError as exc:
        return [_skip_entry(identity, r, n, str(exc))]


def _sum_counts(r: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Counts of the sorted doubled column sums over n trials, in tuple order.

    One trial's row is uniform on the r! permutations of the doubled ranks,
    so the law of the column sums is the n-fold convolution of that uniform
    law; total weight (r!)^n.  Each state is sorted after every trial, which
    is exact: the moves are closed under permuting coordinates, so sorting
    commutes with each trial, and the one caller, f_law, reads a state only
    through its sum of squares.  Before each trial the budget is charged
    r! moves per state summed over so far (_check_tuples), so a cell past the
    cap fails at the first trial that would exceed it.  The first trial's
    law is known without a row: from the zero state every move sorts to the
    sorted row, so it is that one state with count r!.  The engine charges
    it, checks the key range, and starts from it; each later trial reads its
    moves through _trial_rows, which makes that trial's charge.

    A trial is one array pass: every (state, move) sum is sorted along its
    row and keyed as one int64 in mixed radix 2n(r-1)+1 (a column sum lies
    in [-n(r-1), n(r-1)]), which orders keys as the tuples are ordered;
    np.unique merges equal keys, and np.add.at sums their counts on an
    object array, so counts stay exact Python ints past 2^63.
    """
    import numpy as np

    cell, radix = f"the convolution of {r} column sums at r={r}, n={n}", 2 * n * (r - 1) + 1
    _check_tuples(cell, r, r)  # the first trial: r! moves from the zero state
    if radix ** r > np.iinfo(np.int64).max:
        raise BudgetError(f"the state keys at r={r}, n={n} need {radix}^{r}, past int64")
    # after it every state is the sorted row, reached r! ways
    states = np.array([centered_doubled(r)], np.int64)
    counts, seen = np.array([math.factorial(r)], object), 1
    for _ in range(1, n):
        seen += len(states)  # states summed over so far, each charged r! moves
        moves = _trial_rows(cell, r, seen)
        sums = np.sort((states[:, None, :] + moves).reshape(-1, r), axis=1)
        keys = (sums + n * (r - 1)) @ radix ** np.arange(r - 1, -1, -1, dtype=np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        summed = np.zeros(len(first), object)
        np.add.at(summed, inverse, np.repeat(counts, len(moves)))
        states, counts = sums[first], summed
    return tuple(zip(map(tuple, states.tolist()), counts.tolist()))


class FLaw(NamedTuple):
    """The null law of F_r: |Q|^2 = keys[i] with probability counts[i] / total,
    exact from f_law, or a sampled law's tally of its draws."""

    keys: tuple[int, ...]  # |Q|^2 in increasing order, Q the doubled column sums
    counts: tuple[int, ...]  # exact Python ints
    total: int  # (r!)^n
    states: int  # the sorted column-sum states summed over (r = 2: n//2 + 1)
    # a tally of draws holds float64 keys and int64 counts, and its samples as total and states


def f_law(n: int, r: int) -> FLaw:
    """The exact null law of F_r, the record every exact consumer reads: at
    r = 2 read off one binomial row, from r = 3 on summed by _sum_counts."""
    n, r = check_count(n, 1, "n"), check_count(r, 2, "r")
    if r == 2:  # Q = (-q, q) sorted, q = |n - 2b| with b ~ Bin(n, 1/2): one binomial row
        _check_terms(f"the binomial row at r=2, n={n}", (n + 1) * -(-n // 64))
        row = accumulate(range(n // 2), lambda c, b: c * (n - b) // (b + 1), initial=1)
        law = [((2 * b - n, n - 2 * b), c << (2 * b != n)) for b, c in enumerate(row)]
    else:
        law = _sum_counts(r, n)
    sq_counts: Counter = Counter()
    for state, c in law:
        sq_counts[sum(q * q for q in state)] += c
    keys, counts = zip(*sorted(sq_counts.items()))
    return FLaw(keys, counts, math.factorial(r) ** n, len(law))


def f_of_key(key, n: int, r: int):
    """F_r = 3 |Q|^2 / (r(r+1)n) of ``key`` = |Q|^2, the one place a float
    F_r is formed.  A Python int is divided as an int, so F_r is correctly
    rounded at any size; a float64 array elementwise, correctly rounded
    wherever 3 |Q|^2 and r(r+1)n lie below 2**53 (at every exact cell)."""
    return 3 * key / (r * (r + 1) * n)


def law_floats(law: FLaw, n: int, r: int):
    """(atoms, masses, levels) of ``law``, exact or sampled, as float arrays:
    the atoms f_of_key(keys), the masses counts / total and the CDF
    levels the integer prefix sums of the counts over the total, each
    rounded once from its exact value (the last level is 1.0).  Below a
    total of 2**53 every count and prefix is an exact float64, so they divide
    as float64 (a sampled tally's path); past it they divide as Python ints."""
    import numpy as np

    counts = np.asarray(law.counts, np.int64 if law.total < 2 ** 53 else object)
    masses, levels = (np.array(part / law.total, float) for part in (counts, np.cumsum(counts)))
    return f_of_key(np.asarray(law.keys, float), n, r), masses, levels
