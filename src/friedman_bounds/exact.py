"""Exact rational verification of every moment formula by enumeration.

Centered ranks are handled as doubled integers (2*rho is an integer), so all
moments are exact fractions.  The claims are covered by:

* single-trial moments of rho-monomials in up to four distinct treatment
  coordinates: the marginal law of k coordinates of a uniform permutation is
  the uniform law on ordered k-tuples of distinct centered values, so those
  tuples are enumerated directly (each stands for (r-k)! full permutations).
  Every single-trial quantity that the lemma and inequality suites read is
  defined once, in one cached per-r record (_trial_quantity): a rho-moment
  by its powers (rho_moment), any other mean or sum over treatments by its
  formula (_FORMULAS, read through _tuple_mean).  Each check that compares
  one such quantity, or one moment of n trials, with a reference is one row
  (identity, quantity, eq or le, reference[, note[, skip]]) of a table read
  by _row_entries; the per-rho sums, the proof chains, the two pointwise max
  caps, the sign record and the T_m and E[beta^4] budget cells are explicit;

* the expansions of sum_l (rho(k)-rho(l))^m in powers of rho(k), m = 4 and
  6: their coefficients are written once (_spread_expansion), checked by the
  lemma suite against the direct sum and read as floats by the proof chains
  of verify_inequalities;

* moments of sums of n i.i.d. trials (S_j, the pair (S_j, S_k), T_m, and
  from them E[F_r] and E[F_r^2]): the moment table of n trials is one
  binomial product of two cached tables (n-1 trials and one, or n/2 twice),
  so walking n upward costs one product per new n, and a single large n
  about 2 log2(n) products;

* the 2-, 3- and 4-index distinct-sum decompositions behind E[beta^4]:
  each regrouping is stated once, as (weight, index tuples) classes
  (_index_classes), from which every multiset of indices gets two integer
  weights (_multiset_weights), so each random symmetric f is two integer
  dot products with per-multiset weights;

* the law of F_r: the record of ``exact_law`` (f_law), read here as exact
  rational atoms (exact_f_distribution) and P(F_r = 0); tests/test_exact.py
  (test_f_law_moments_equal_joint_moments) checks its E[F], E[F^2] and
  Var(F) against the moments above.

Cost is counted in enumerated terms and capped by the one budget BUDGET_CAP
of ``exact_law``, which forms every tuple count.  The budget, not a fixed r,
bounds each cell: the lemma and inequality suites charge up front the
four- and three-coordinate tuples of every r they walk (the lemmas run to
r = 16, the inequalities to r = 30), the lemma suite its moment
products over every (r, n) cell, and the identities suite one term per
trial at every r it walks whose overlap law fits and one term for each
other r; rho_moment charges its own tuples on every call that walks them.
Each suite checks its flags and charges its walk in one function that it
calls first (_lemma_walk, _inequality_walk, _identity_walk, which checks
the seed by building its exact_law.RngContract, the one owner of a seed and
of the key of the decomposition draws), and `verify` calls it for every
chosen suite before any runs.  The overlap law behind T_m, E[beta^4] and
each decomposition check is exact_law._overlap_law: the law of
Y = sum_l v_l v_pi(l) by a pure-Python subset DP, charged its r 2^(r-1)
moves (exact_law._overlap_moves) on every call, before any draw, so these
suites load no numpy (the decomposition draws do).  A T_m cell, an
E[beta^4] cap or a decomposition r past the budget is one skipped entry,
built by exact_law._within_budget (all three run to r = 14).

Every verify_* function returns a list of JSON-ready entries
{identity, r, n, status, lhs, rhs} in the format of ``exact_law._entry``
(counted checks and skips through ``_count_entry`` and ``_skip_entry``)
and never raises on a failed identity.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, takewhile
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from operator import eq, le

from .errors import DomainError, check_count
from .exact_law import (RngContract, _check_terms, _check_tuples, _check_walk, _count_entry, _entry,
                        _fits, _overlap_law, _overlap_moves, _skip_entry, _within_budget, all_pass,
                        centered_doubled, f_law)

__all__ = [
    "joint_moments",
    "verify_lemma_formulas",
    "verify_inequalities",
    "verify_index_decomposition",
    "verify_identities",
    "exact_f_distribution",
    "point_mass_at_zero",
    "rho_moment",
    "mono_moment",
    "all_pass",
]


def _check(identity: str, r: int, n: int | None, lhs, holds, rhs, note: str = "") -> dict:
    """An entry comparing lhs with rhs: it passes where holds(lhs, rhs), holds eq or le."""
    return _entry(identity, r, n, "pass" if holds(lhs, rhs) else "fail", lhs, rhs, note)


# ---------------------------------------------------------------------------
# single-trial rho moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: r = 3.0 must miss the entry of r = 3 and be refused
def rho_moment(r: int, powers: tuple[int, ...]) -> Fraction:
    """E[rho(1)^p1 * rho(2)^p2 * ...] over distinct coordinates of one trial,
    its ordered len(powers)-tuples charged to the budget before any is walked."""
    r = check_count(r, 2, "r")
    if len(powers) > r:
        raise DomainError(f"{len(powers)} distinct coordinates need r >= {len(powers)}")
    _check_tuples(f"the {len(powers)}-coordinate tuples at r={r}", r, len(powers))
    tuples = list(iter_permutations(centered_doubled(r), len(powers)))
    total = sum(math.prod(v ** p for v, p in zip(tup, powers)) for tup in tuples)
    return Fraction(total, len(tuples) * 2 ** sum(powers))


def mono_moment(r: int, indices: tuple[int, ...]) -> Fraction:
    """E[prod_i rho(indices[i])] for an index tuple that may repeat entries."""
    return rho_moment(r, tuple(sorted(Counter(indices).values(), reverse=True)))


def _tuple_mean(r: int, k: int, fn) -> Fraction:
    """Exact mean of fn over the ordered k-tuples of distinct centered ranks of one trial."""
    tuples = list(iter_permutations([Fraction(v, 2) for v in centered_doubled(r)], k))
    return sum(fn(*t) for t in tuples) / len(tuples)


def _cubic(r: Fraction, v: Fraction) -> Fraction:
    """c = (r^2-1)/4 rho + rho^3: sum_l (rho(l)-rho(k))^3 is -r c at rho = rho(k)."""
    return (r ** 2 - 1) / 4 * v + v ** 3


def _weight(r: Fraction, v: Fraction) -> Fraction:
    """The quartic weight w = (r^2-1) - 12 rho^2."""
    return (r ** 2 - 1) - 12 * v ** 2


# one trial's quantities other than the rho-moments, each defined once and keyed
# by its formula in c, w, d = rho(k)-rho(l) and the normalized spread
# s = 6 d^2/(r(r+1)) - 1: (k, a function of r and k distinct centered ranks),
# read as its mean over the ordered k-tuples; a sum over treatments is that
# mean times the tuple count
_FORMULAS = {
    "E[c^2 rho^2]": (1, lambda r, x: _cubic(r, x) ** 2 * x ** 2),
    "E[c^2 rho'^2]": (2, lambda r, x, y: _cubic(r, x) ** 2 * y ** 2),
    "E[c^4]": (1, lambda r, x: _cubic(r, x) ** 4),
    "E[w^2 rho^4]": (1, lambda r, x: _weight(r, x) ** 2 * x ** 4),
    "E[w^4]": (1, lambda r, x: _weight(r, x) ** 4),
    "E[w^2 rho'^4]": (2, lambda r, x, y: _weight(r, x) ** 2 * y ** 4),
    "E[w^2 rho^2 rho'^2]": (2, lambda r, x, y: _weight(r, x) ** 2 * x ** 2 * y ** 2),
    "E[w^2 rho'^4 rho''^4]": (3, lambda r, x, y, z: _weight(r, x) ** 2 * y ** 4 * z ** 4),
    "E[d^2]": (2, lambda r, x, y: (x - y) ** 2),
    "E[d^4]": (2, lambda r, x, y: (x - y) ** 4),
    "E[s^2], k != l": (2, lambda r, x, y: (6 * (x - y) ** 2 / (r * (r + 1)) - 1) ** 2),
    "E[s^2], k = l": (1, lambda r, x: Fraction(1)),  # d = 0, so s = -1
    "sum_l rho^2": (1, lambda r, x: r * x ** 2),
    "sum_{k,l} d^4": (2, lambda r, x, y: r * (r - 1) * (x - y) ** 4),
    "sum_{k,l} d^6": (2, lambda r, x, y: r * (r - 1) * (x - y) ** 6),
    "sum_{k,l} d^8": (2, lambda r, x, y: r * (r - 1) * (x - y) ** 8),
}


@lru_cache(maxsize=None)
def _trial_quantity(r: int, key) -> Fraction | None:
    """One trial's quantity at r, the per-r record that both single-trial
    suites read, cached per (r, key): a tuple of powers is rho_moment(r, key),
    a key of _FORMULAS the mean of its function; None where it needs more
    distinct coordinates than r."""
    k, fn = _FORMULAS[key] if isinstance(key, str) else (len(key), None)
    if k > r:
        return None
    return rho_moment(r, key) if fn is None else _tuple_mean(r, k, partial(fn, Fraction(r)))


# ---------------------------------------------------------------------------
# sums of n i.i.d. trials: one binomial product per table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _iid_sum_moments(law: tuple, n: int, degrees: tuple[int, ...]) -> dict[tuple, Fraction]:
    """E[prod_i X_i^a_i] for every a <= degrees, X the sum of n i.i.d. trials.

    `law` is one trial's (value tuple, count) pairs.  For independent X and
    Y, E[(X+Y)^a] = sum_{b <= a} C(a, b) E[X^b] E[Y^(a-b)], so the table of
    n >= 2 trials is one product of two cached tables: n-1 trials and one
    when n is odd, n/2 trials twice when n is even.  Walking n upward costs
    one product per new n; a single large n costs about 2 log2(n) products.
    The dict is read-only by convention.
    """
    index = list(iter_product(*(range(d + 1) for d in degrees)))
    if n <= 1:  # the sum of no trials is the point mass at 0
        law = law if n else (((0,) * len(degrees), 1),)
        return {a: Fraction(sum(c * math.prod(map(pow, x, a)) for x, c in law),
                            sum(c for _, c in law)) for a in index}
    x = _iid_sum_moments(law, n - 1 if n % 2 else n // 2, degrees)
    y = _iid_sum_moments(law, 1, degrees) if n % 2 else x
    return {a: sum(math.prod(map(math.comb, a, b)) * x[b] * y[tuple(t - s for t, s in zip(a, b))]
                   for b in iter_product(*(range(t + 1) for t in a)))
            for a in index}


# binomial product terms per (r, n) cell of the lemma suite's n walk, one table
# each: 28 for S_j to degree 6, 36 for (S_j, S_k) to (2, 2), 15 for Y to degree 4
_CELL_PRODUCTS = 28 + 36 + 15


@lru_cache(maxsize=None)
def _s_moments(r: int, n: int) -> dict[str, Fraction]:
    """E[S^2], E[S^4], E[S^6], E[S_j S_k] and E[S_j^2 S_k^2] (j != k), exact.

    One trial adds a doubled rank to the doubled column sum Q_j, uniform on
    the r values, and an ordered pair of distinct ones to (Q_j, Q_k); S =
    (c/2) Q with (c/2)^2 = 3/(r(r+1)n).  The powers of S_j come from the one
    coordinate to degree 6, the mixed ones from the pair to degree (2, 2).
    Cached per cell, which the lemma checks and joint_moments share; the
    dict is read-only by convention.
    """
    base = centered_doubled(r)
    one = _iid_sum_moments(tuple(((v,), 1) for v in base), n, (6,))
    two = _iid_sum_moments(tuple((pair, 1) for pair in iter_permutations(base, 2)), n, (2, 2))
    q = Fraction(3, r * (r + 1) * n)
    return {"E[S^2]": q * one[2,], "E[S^4]": q ** 2 * one[4,], "E[S^6]": q ** 3 * one[6,],
            "E[S_j S_k]": q * two[1, 1], "E[S_j^2 S_k^2]": q ** 2 * two[2, 2]}


def _t_statistic_moments(n: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """((E[T_m])^2, E[T_m^2], E[T_m^4]) exact, via T = (c/4) x.

    For trial m's doubled row d, x = sum_l Q_l d_l is |d|^2 plus n-1 i.i.d.
    copies of Y = sum_l v_l v_pi(l), whose law does not depend on d.  The
    law is charged first, before any work that grows with r.
    """
    y = _iid_sum_moments(_overlap_law(r), n - 1, (4,))
    shift = sum(v * v for v in centered_doubled(r))
    x = [sum(math.comb(k, j) * shift ** (k - j) * y[j,] for j in range(k + 1)) for k in range(5)]
    c2_over_16 = Fraction(3, 4 * r * (r + 1) * n)  # (c/4)^2 with c^2 = 12/(r(r+1)n)
    return c2_over_16 * x[1] ** 2, c2_over_16 * x[2], c2_over_16 ** 2 * x[4]


def _f_moments(r: int, n: int) -> dict[str, Fraction]:
    """E[F], E[F^2] and Var(F) from the S moments, as F = sum_j S_j^2."""
    s = _s_moments(r, n)
    e = {"E[F]": r * s["E[S^2]"],
         "E[F^2]": r * s["E[S^4]"] + r * (r - 1) * s["E[S_j^2 S_k^2]"]}
    e["Var(F)"] = e["E[F^2]"] - e["E[F]"] ** 2
    return e


def joint_moments(r: int, n: int) -> dict[str, Fraction]:
    """Exact joint moments of F_r, S_j and T_m at any n; the T_m overlap law,
    r 2^(r-1) terms, is charged before any S moment is built."""
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    t = _t_statistic_moments(n, r)
    e = {**_f_moments(r, n), **_s_moments(r, n)}
    e["E[T]^2"], e["E[T^2]"], e["E[T^4]"] = t
    return e


def exact_f_distribution(n: int, r: int) -> list[tuple[Fraction, Fraction]]:
    """Sorted atoms (value, probability) of F_r under the null, exact."""
    law = f_law(n, r)  # F = 3 |Q|^2 / (r(r+1)n)
    return [(Fraction(3 * k, r * (r + 1) * n), Fraction(c, law.total))
            for k, c in zip(law.keys, law.counts)]


def point_mass_at_zero(n: int, r: int) -> Fraction:
    """Exact P(F_r = 0)."""
    law = f_law(n, r)
    return Fraction(law.counts[0], law.total) if law.keys[0] == 0 else Fraction(0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_s4(r: int, n: int) -> Fraction:
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    return Fraction(3 * (r - 1) * ((5 * n - 2) * r * r - 5 * n - 2), 5 * n * r * r * (r + 1))


def closed_s6(r: int, n: int) -> Fraction:
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    num = 3 * (r - 1) * (
        35 * n * n * (r * r - 1) ** 2 - 42 * n * (r ** 4 - 1) + 16 * (r ** 4 + r * r + 1)
    )
    return Fraction(num, 7 * r ** 3 * (r + 1) ** 2 * n * n)


def closed_s2s2(r: int, n: int) -> Fraction:
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    num = 5 * n * (r ** 3 - r * r + r + 3) - 4 * r * r - 10 * r + 6
    return Fraction(num, 5 * n * r * r * (r + 1))


def _spread_expansion(r: int, m: int) -> tuple[Fraction, ...]:
    """The coefficients of sum_l (rho(k)-rho(l))^m in rho(k)^0, rho(k)^2, ...
    for m = 4 or 6: the lemma suite proves them, and the proof chains of
    verify_inequalities read them as floats."""
    rr = Fraction(r)
    return {4: (rr * (3 * rr ** 4 - 10 * rr ** 2 + 7) / 240, rr * (rr ** 2 - 1) / 2, rr),
            6: (rr * (3 * rr ** 6 - 21 * rr ** 4 + 49 * rr ** 2 - 31) / 1344,
                rr * (3 * rr ** 4 - 10 * rr ** 2 + 7) / 16, 5 * rr * (rr ** 2 - 1) / 4, rr)}[m]


def _row_entries(rows: tuple, read, r: int, n: int | None = None):
    """The entries of rows at the cell (r, n), in row order.

    A row is (identity, quantity, holds, reference[, note[, skip]]), one
    _check of read(quantity), its absolute value for an identity in |...|,
    by holds (eq or le) against reference(Fraction r) on one trial or
    reference(r, n) on n trials.  Where the quantity needs more treatments
    than r (read returns None), the row is one skip entry named skip, or is
    left out if it has none; only three-coordinate rows name a skip.
    """
    cell = (Fraction(r),) if n is None else (r, n)
    for row in rows:
        name, quantity, holds, reference, note, skip = (*row, "", "")[:6]
        value = read(quantity)
        if value is not None:
            yield _check(name, r, n, abs(value) if name[0] == "|" else value, holds,
                         reference(*cell), note)
        elif skip:
            yield _skip_entry(skip, r, n, "needs three distinct treatments")


# the lemma suite's rows at each r: rho-moments, then (after the sign record)
# the means and the sums over treatments
_MOMENT_LEMMAS = (
    ("E[rho] = 0", (1,), eq, lambda r: 0),
    ("E[rho^3] = 0", (3,), eq, lambda r: 0),
    ("E[rho^2 rho'] = 0", (2, 1), eq, lambda r: 0),
    ("E[rho rho' rho''] = 0", (1, 1, 1), eq, lambda r: 0, "", "E[rho rho' rho''] = 0"),
    ("E[rho^2] closed form", (2,), eq, lambda r: (r ** 2 - 1) / 12),
    ("E[rho rho'] closed form", (1, 1), eq, lambda r: -(r + 1) / 12),
    ("E[rho^4] closed form", (4,), eq, lambda r: (r ** 2 - 1) * (3 * r ** 2 - 7) / 240),
    ("E[rho^3 rho'] closed form", (3, 1), eq, lambda r: -(r + 1) * (3 * r ** 2 - 7) / 240),
    ("E[rho^2 rho'^2] closed form", (2, 2), eq,
     lambda r: (r + 1) * (5 * r ** 3 - 9 * r ** 2 - 5 * r + 21) / 720),
    ("E[rho^6] closed form", (6,), eq,
     lambda r: (r ** 2 - 1) * (3 * r ** 4 - 18 * r ** 2 + 31) / 1344),
    ("E[rho^2 rho' rho''] closed form", (2, 1, 1), eq,
     lambda r: -(r - 3) * (r + 1) * (5 * r + 7) / 720),
    ("|E[rho rho' rho'' rho''']| closed form", (1, 1, 1, 1), eq,
     lambda r: (r + 1) * (5 * r + 7) / 240))
_MEAN_LEMMAS = (
    ("E[((r^2-1)/4 rho + rho^3)^2 rho^2] closed form", "E[c^2 rho^2]", eq,
     lambda r: (r ** 2 - 1) * (47 * r ** 6 - 322 * r ** 4 + 875 * r ** 2 - 936) / 20160),
    ("E[((r^2-1)-12rho^2)^2 rho^4] closed form", "E[w^2 rho^4]", eq,
     lambda r: (r ** 2 - 1) * (r ** 2 - 4) * (9 * r ** 4 - 118 * r ** 2 + 445) / 420),
    ("E[((r^2-1)-12rho^2)^4] closed form", "E[w^4]", eq,
     lambda r: Fraction(48, 35) * (r ** 2 - 1) * (r ** 2 - 4) * (r ** 4 - 17 * r ** 2 + 100)),
    ("E[(rho-rho')^2] = r(r+1)/6", "E[d^2]", eq, lambda r: r * (r + 1) / 6),
    ("E[(rho-rho')^4] = r(r+1)(2r^2-3)/30", "E[d^4]", eq,
     lambda r: r * (r + 1) * (2 * r ** 2 - 3) / 30),
    ("E[(6(rho-rho')^2/(r(r+1)) - 1)^2] closed form", "E[s^2], k != l", eq,
     lambda r: (r - 2) * (7 * r + 9) / (5 * r * (r + 1))),
    ("sum_l rho(l)^2 = r(r^2-1)/12", "sum_l rho^2", eq, lambda r: r * (r ** 2 - 1) / 12),
    ("sum_{k,l} (rho(k)-rho(l))^8 closed form", "sum_{k,l} d^8", eq,
     lambda r: r ** 2 * (r ** 2 - 1) * (2 * r ** 2 - 3) * (r ** 4 - 5 * r ** 2 + 7) / 90))
# the lemma suite's rows at each (r, n): the score covariance and the S-moment
# closed forms, then E[F], E[F^2] and Var(F), read from the S moments alone
_COLUMN_LAWS = (
    ("Var(S_j) = (r-1)/r", "E[S^2]", eq, lambda r, n: Fraction(r - 1, r)),
    ("Cov(S_j,S_k) = -1/r", "E[S_j S_k]", eq, lambda r, n: Fraction(-1, r)),
    ("E[S^4] closed form", "E[S^4]", eq, closed_s4),
    ("E[S^4] <= 3 - 6/(5n)", "E[S^4]", le, lambda r, n: 3 - Fraction(6, 5 * n)),
    ("E[S^6] closed form", "E[S^6]", eq, closed_s6),
    ("E[S^6] <= 15", "E[S^6]", le, lambda r, n: 15),
    ("E[S_j^2 S_k^2] closed form", "E[S_j^2 S_k^2]", eq, closed_s2s2))
_F_LAWS = (
    ("E[F] = r-1", "E[F]", eq, lambda r, n: r - 1),
    ("E[F^2] = r^2-1-2(r-1)/n", "E[F^2]", eq, lambda r, n: r * r - 1 - Fraction(2 * r - 2, n)),
    ("Var(F) = 2(r-1)(1-1/n)", "Var(F)", eq, lambda r, n: 2 * (r - 1) * (1 - Fraction(1, n))))


def _lemma_walk(r_max: int, n_max: int) -> tuple[int, int]:
    """Check the lemma suite's r_max and n_max and charge its walk: the
    four-coordinate tuples of every r, then the moment products of every
    (r, n) cell.  Returns the checked flags."""
    r_max, n_max = check_count(r_max, 2, "r_max"), check_count(n_max, 1, "n_max")
    _check_walk(f"the four-coordinate tuples at r=2..{r_max}", r_max, 4)
    _check_terms(f"the moment products at r=2..{r_max}, n=1..{n_max}",
                 _CELL_PRODUCTS * (r_max - 1) * n_max)
    return r_max, n_max


def verify_lemma_formulas(r_max: int, n_max: int) -> list[dict]:
    """Check every exact moment equality behind the error bounds.

    Single-trial identities run for r in 2..r_max; the four-coordinate
    tuples of every r walked, the largest enumeration, are charged to the
    budget before any other (r_max <= 16 fits), and then the moment products
    of every (r, n) cell.  Column-law identities (variance, S-moment closed
    forms) and the F_r and T_m identities run for every n in 1..n_max, each
    new n at the cost of one moment product per trial law (_CELL_PRODUCTS
    terms in all).  The F_r identities read the S moments alone.  The T_m
    identities need the r 2^(r-1) terms of the overlap law: from r = 15 on,
    each cell's are one skipped entry naming that count.  Infeasible identities
    (three distinct coordinates at r = 2) are reported as skipped, not
    failed.  Every check but the sign record, the per-rho sums and the T_m
    cells is one row of a table read by _row_entries.
    """
    r_max, n_max = _lemma_walk(r_max, n_max)
    out: list[dict] = []
    for r in range(2, r_max + 1):
        rr, read = Fraction(r), partial(_trial_quantity, r)
        out += _row_entries(_MOMENT_LEMMAS, read, r)
        if r >= 4:  # its row compares the absolute value only
            val = read((1, 1, 1, 1))
            out.append(_entry("sign of E[rho rho' rho'' rho''']", r, None, "pass",
                              "+" if val > 0 else ("0" if val == 0 else "-"),
                              "recorded", "the source states only the absolute value"))
        out += _row_entries(_MEAN_LEMMAS, read, r)
        vals = [Fraction(v, 2) for v in centered_doubled(r)]
        spread = {m: _spread_expansion(r, m) for m in (4, 6)}
        for rho in vals:  # the per-rho sums over treatments
            out.append(_check("sum_l (rho(l)-rho(k))^3 = -r(r^2-1)/4 rho - r rho^3", r, None,
                              sum((v - rho) ** 3 for v in vals), eq, -rr * _cubic(rr, rho)))
            for m, coeffs in spread.items():
                expansion = sum(c * rho ** (2 * i) for i, c in enumerate(coeffs))
                out.append(_check(f"sum_l (rho(k)-rho(l))^{m} expansion", r, None,
                                  sum((rho - v) ** m for v in vals), eq, expansion))
        for n in range(1, n_max + 1):
            out += _row_entries(_COLUMN_LAWS, _s_moments(r, n).get, r, n)
        for n in range(1, n_max + 1):  # T_m from the overlap law, within the budget
            out += _row_entries(_F_LAWS, _f_moments(r, n).get, r, n)
            out += _within_budget("T_m identities", r, n, lambda: _t_entries(r, n))
    return out


def _t_entries(r: int, n: int) -> list[dict]:
    """The T_m identities at (r, n), from the overlap law."""
    t_mean_sq, t2, t4 = _t_statistic_moments(n, r)
    rr, nn = Fraction(r), Fraction(n)
    out = [_check("E[T]^2 = r(r+1)(r-1)^2/(12n)", r, n, t_mean_sq, eq,
                  rr * (rr + 1) * (rr - 1) ** 2 / (12 * nn)),
           _check("E[T^2] = r(r^2-1)(1+(r-2)/n)/12", r, n, t2, eq,
                  rr * (rr ** 2 - 1) / 12 * (1 + (rr - 2) / nn))]
    if n >= 2:
        c_t = Fraction(7, 48) + rr ** 2 / (36 * nn ** 2) + Fraction(1, 5 * n)
        out += [_check("E[T^2] <= r^3(1+r/n)/12", r, n, t2, le, rr ** 3 / 12 * (1 + rr / nn)),
                _check("E[T^4] <= C_T r^6", r, n, t4, le, c_t * rr ** 6)]
    return out


def _cap(c: str, m: int):
    """The reference c r^m, with c an exact decimal or ratio."""
    return lambda r: Fraction(c) * r ** m


# the inequality suite's rows at each r: the moment caps, then (after the proof
# chains) the quartic-weight caps, the normalized spread and the sums.  The
# stated cap r^3/80 on |E[rho^3 rho']| fails from r = 4 on (exact value
# (r+1)(3r^2-7)/240); the derivation's own identity gives the valid cap r^2(r+1)/80
_MOMENT_CAPS = (
    ("E[rho^4] <= r^4/80", (4,), le, _cap("1/80", 4)),
    ("|E[rho^3 rho']| <= r^2(r+1)/80 (corrected cap)", (3, 1), le,
     lambda r: r ** 2 * (r + 1) / 80, "stated cap r^3/80 holds only for r <= 3"),
    ("E[rho^2 rho'^2] <= r^4/144", (2, 2), le, _cap("1/144", 4)),
    ("|E[rho^2 rho' rho'']| <= r^3/144", (2, 1, 1), le, _cap("1/144", 3)),
    ("E[rho^6] <= r^6/448", (6,), le, _cap("1/448", 6)),
    ("E[rho^8] <= r^8/2304", (8,), le, _cap("1/2304", 8)),
    ("E[rho^12] <= r^12/53248", (12,), le, _cap("1/53248", 12)),
    ("E[rho^16] <= r^16/1114112", (16,), le, _cap("1/1114112", 16)),
    ("E[((r^2-1)/4 rho + rho^3)^2 rho^2] <= 0.00234 r^8", "E[c^2 rho^2]", le,
     _cap("0.00234", 8)),
    ("E[((r^2-1)/4 rho + rho^3)^2 rho'^2] <= 0.00240 r^8", "E[c^2 rho'^2]", le,
     _cap("0.00240", 8)),
    ("E[((r^2-1)/4 rho + rho^3)^4] <= 1763 r^12/3843840", "E[c^4]", le, _cap("1763/3843840", 12)))
_WEIGHT_CAPS = (
    ("E[((r^2-1)-12rho^2)^2 rho^4] <= 3r^8/140", "E[w^2 rho^4]", le, _cap("3/140", 8)),
    ("E[((r^2-1)-12rho^2)^2 rho'^4] <= 0.02440 r^8", "E[w^2 rho'^4]", le, _cap("0.02440", 8)),
    ("E[((r^2-1)-12rho^2)^2 rho^2 rho'^2] <= 0.02292 r^8", "E[w^2 rho^2 rho'^2]", le,
     _cap("0.02292", 8)),
    ("E[((r^2-1)-12rho^2)^2 rho'^4 rho''^4] <= 0.00111 r^12", "E[w^2 rho'^4 rho''^4]", le,
     _cap("0.00111", 12), "", "E[((r^2-1)-12rho^2)^2 rho'^4 rho''^4] cap"),
    ("normalized spread second moment closed form (k != l)", "E[s^2], k != l", eq,
     lambda r: (r - 2) * (7 * r + 9) / (5 * r * (r + 1))),
    ("normalized spread second moment <= 7/5 (k != l)", "E[s^2], k != l", le, _cap("7/5", 0)),
    ("normalized spread second moment <= 7/5 (k = l)", "E[s^2], k = l", le, _cap("7/5", 0)),
    ("sum_{k,l}(rho(k)-rho(l))^4 <= r^6/15", "sum_{k,l} d^4", le, _cap("1/15", 6)),
    ("sum_{k,l}(rho(k)-rho(l))^6 <= r^8/28", "sum_{k,l} d^6", le, _cap("1/28", 8)),
    ("sum_{k,l}(rho(k)-rho(l))^8 <= r^10/45", "sum_{k,l} d^8", le, _cap("1/45", 10)))


def _inequality_walk(r_max: int) -> int:
    """Check the inequality suite's r_max and charge the three-coordinate
    tuples of every r it walks.  Returns the checked r_max."""
    r_max = check_count(r_max, 2, "r_max")
    _check_walk(f"the three-coordinate tuples at r=2..{r_max}", r_max, 3)
    return r_max


def verify_inequalities(r_max: int) -> list[dict]:
    """Check every single-trial moment inequality used by the remainder estimates.

    Runs r in 2..r_max; the largest enumeration, the three-coordinate tuples
    of every r walked, is charged to the budget before any other (r_max <= 30
    fits).  Equalities are exact rational comparisons; chains mixing square or cube
    roots (the treatment-sum chains, with the S-moment caps E[S^2] <= 1,
    E[S^4] <= 3, E[S^6] <= 15 substituted as in the proofs) are evaluated in
    floating point from exact rho moments.  Every check but the chains, the
    two pointwise max caps and the E[beta^4] cell is one row of a table.
    """
    r_max, out = _inequality_walk(r_max), []
    for r in range(2, r_max + 1):
        rr, read = Fraction(r), partial(_trial_quantity, r)
        out += _row_entries(_MOMENT_CAPS, read, r)
        # proof chains: the verified spread expansions + Cauchy-Schwarz/Hoelder
        # with the S-moment caps; rho moments are the exact enumerated values.
        (c0, c2, c4), (d0, d2, d4, d6) = (map(float, _spread_expansion(r, p)) for p in (4, 6))
        chain1 = c0 + c2 * math.sqrt(3 * read((4,))) + c4 * math.sqrt(3 * read((8,)))
        out.append(_check("chain: sum_l E[S^2 (rho(l)-rho(k))^4] <= 0.1455 r^5",
                          r, None, chain1, le, 0.1455 * r ** 5))
        chain2 = 3 * c0 + c2 * (225 * read((6,))) ** (1 / 3) + c4 * (225 * read((12,))) ** (1 / 3)
        out.append(_check("chain: sum_l E[S^4 (rho(l)-rho(k))^4] <= 0.6717 r^5",
                          r, None, chain2, le, 0.6717 * r ** 5))
        chain3 = (d0 + d2 * math.sqrt(3 * read((4,))) + d4 * math.sqrt(3 * read((8,)))
                  + d6 * math.sqrt(3 * read((12,))))
        out.append(_check("chain: sum_l E[S^2 (rho(l)-rho(k))^6] <= 0.09116 r^7",
                          r, None, chain3, le, 0.09116 * r ** 7))
        out += _row_entries(_WEIGHT_CAPS, read, r)
        vals = [Fraction(v, 2) for v in centered_doubled(r)]  # the pointwise caps
        out.append(_check("|(r^2-1)-12rho^2| <= 2(r+1)(r+2)", r, None,
                          max(abs(_weight(rr, v)) for v in vals), le, 2 * (rr + 1) * (rr + 2)))
        out.append(_check("|((r^2-1)/4 rho + rho^3) rho'| <= r(r+1)^3/8", r, None,
                          max(abs(_cubic(rr, a) * b) for a in vals for b in vals if a != b),
                          le, rr * (rr + 1) ** 3 / 8))
        # downstream consumer of the rho-moment caps: the fourth moment of
        # beta = sum_l rho(l) rho'(l) over two independent permutations
        out += _within_budget("E[beta^4] <= 79 r^10/345600", r, None, lambda: [_check(
            "E[beta^4] <= 79 r^10/345600", r, None, beta_fourth_moment_direct(r), le,
            Fraction(79, 345600) * rr ** 10)])
    return out


# ---------------------------------------------------------------------------
# four-index sum decomposition
# ---------------------------------------------------------------------------

def _index_classes(r: int, arity: int) -> tuple:
    """The distinct-index regrouping of the ordered arity-tuples over range(r)
    (arity 2, 3 or 4) as (weight, index tuples) classes: for a symmetric f the
    full ordered sum equals the sum over the classes of weight times the
    class's sum of f."""
    idxs = range(r)
    pairs = list(iter_permutations(idxs, 2))
    if arity == 2:
        return (1, [(l, l) for l in idxs]), (1, pairs)
    if arity == 3:
        return ((1, [(j, j, j) for j in idxs]), (3, [(l, j, j) for l, j in pairs]),
                (1, list(iter_permutations(idxs, 3))))
    return ((1, [(j, j, j, j) for j in idxs]), (4, [(l, j, j, j) for l, j in pairs]),
            (3, [(l, l, s, s) for l, s in pairs]),
            (6, [(l, j, s, s) for l, j, s in iter_permutations(idxs, 3)]),
            (1, list(iter_permutations(idxs, 4))))


@lru_cache(maxsize=None)
def _multiset_weights(r: int, arity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per multiset of arity indices, in combinations_with_replacement order:
    the count of ordered tuples that hold it, and the weight that the
    regrouping of _index_classes gives it.

    For f[t] = g[multiset of t] the full and the regrouped sum of f are the
    dot products of g with these two vectors.
    """
    full = Counter(tuple(sorted(t)) for t in iter_product(range(r), repeat=arity))
    regrouped: Counter = Counter()
    for w, tuples in _index_classes(r, arity):
        for t in tuples:
            regrouped[tuple(sorted(t))] += w
    multisets = list(combinations_with_replacement(range(r), arity))
    return tuple(full[m] for m in multisets), tuple(regrouped[m] for m in multisets)


def beta_fourth_moment_direct(r: int) -> Fraction:
    """E[(sum_l rho(l) rho'(l))^4] over two independent permutations, direct.

    beta(pi, pi') = beta(id, pi' pi^-1) and pi' pi^-1 is uniform whatever pi
    is, so beta = Y/4 with Y read from the overlap law.
    """
    total = sum(c * y ** 4 for (y,), c in _overlap_law(r))
    return Fraction(total, math.factorial(r) * 4 ** 4)  # doubled twice: (2*2)^4


_BLOCK_WORDS = 1 << 20  # draws held at once: a block of trials is about this many words


def verify_index_decomposition(r: int, trials: int, seed: int) -> list[dict]:
    """Check the 2-, 3- and 4-index distinct-sum decompositions exactly.

    Runs `trials` seeded random symmetric integer functions per arity (one
    draw in [-50, 50] per multiset of indices, f[t] = g[sorted(t)]), the
    all-ones counting case, and the fourth-moment instance
    f(l,j,s,t) = (E[rho(l)rho(j)rho(s)rho(t)])^2, whose decomposed total is
    cross-checked against a direct two-permutation enumeration.  That
    enumeration reads the overlap law, whose r 2^(r-1) terms are charged to
    the budget before any draw or numpy import (BudgetError from r = 15 on).

    The draws come from exact_law.RngContract(seed).generator(), keyed by
    (seed, 0), so seed lies in [0, 2**64); each arity draws its trials in
    blocks of at most _BLOCK_WORDS // multisets (at least one), one draw per
    multiset, and a block continues the generator where the last one
    stopped, so the draws do not depend on the block size.  Both sums of a trial are integer dot
    products of g with the per-multiset weights of _multiset_weights, and the
    two fixed cases sum exact integers (over a common denominator for the
    fourth-moment f).
    """
    r, trials = check_count(r, 3, "r"), check_count(trials, 1, "trials")
    contract = RngContract(seed)
    direct = beta_fourth_moment_direct(r)  # the overlap law, charged before any draw
    import numpy as np

    rng = contract.generator()
    out: list[dict] = []
    for arity in (2, 3, 4):
        full, regrouped = (np.array(w, dtype=np.int64) for w in _multiset_weights(r, arity))
        failures = 0
        block = max(1, _BLOCK_WORDS // full.size)
        for start in range(0, trials, block):
            g = rng.integers(-50, 51, size=(min(block, trials - start), full.size))
            failures += int(np.count_nonzero(g @ full != g @ regrouped))
        out.append(_count_entry(f"{arity}-index decomposition, {trials} random symmetric f",
                                r, None, failures, trials))

    full, regrouped = _multiset_weights(r, 4)
    out.append(_check("4-index decomposition, f = 1 (counting case)", r, None,
                      sum(full), eq, sum(regrouped)))
    out.append(_check("f = 1 total = r^4", r, None, sum(full), eq, r ** 4))

    beta = [mono_moment(r, m) ** 2 for m in combinations_with_replacement(range(r), 4)]
    denominator = math.lcm(*(b.denominator for b in beta))
    numerators = [b.numerator * (denominator // b.denominator) for b in beta]
    lhs = Fraction(sum(map(math.prod, zip(full, numerators))), denominator)
    rhs = Fraction(sum(map(math.prod, zip(regrouped, numerators))), denominator)
    out.append(_check("4-index decomposition, f = (E[rho^(4 indices)])^2", r, None, lhs, eq, rhs))
    out.append(_check("E[beta^4] tuple sum = direct enumeration", r, None, lhs, eq, direct))
    return out


def _identity_walk(r_max: int, trials: int, seed: int) -> tuple[int, int, int]:
    """Check the identities suite's r_max and trials, charge its walk one
    term per trial at each r whose overlap law fits the budget (the r that
    draw, as exact_law._overlap_moves prices it) and one term for the skip
    entry of each other r, and then check the seed.  Returns the checked
    flags."""
    r_max, trials = check_count(r_max, 3, "r_max"), check_count(trials, 1, "trials")
    drawn = sum(1 for _ in takewhile(lambda r: _fits(_overlap_moves(r)), range(3, r_max + 1)))
    _check_terms(f"the decomposition trials at r=3..{r_max}", (trials - 1) * drawn + r_max - 2)
    return r_max, trials, RngContract(seed).seed


def verify_identities(r_max: int, trials: int, seed: int) -> list[dict]:
    """verify_index_decomposition at every r in 3..r_max, after
    _identity_walk; an r past the budget is one skipped entry naming its cost."""
    r_max, trials, seed = _identity_walk(r_max, trials, seed)
    return [e for r in range(3, r_max + 1)
            for e in _within_budget("index decompositions", r, None,
                                    lambda: verify_index_decomposition(r, trials, seed))]
