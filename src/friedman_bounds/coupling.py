"""Exchangeable-pair coupling for the score vector and its exact checks.

The pair: pick a trial M uniformly and treatments K, L uniformly and
independently (K = L allowed, in which case S' = S), then swap the ranks of
treatments K and L inside trial M.  The scores move by

    S'_K - S_K = c (rho_M(L) - rho_M(K)),   S'_L - S_L = -(S'_K - S_K),

with c = sqrt(12/(r(r+1)n)), all other coordinates unchanged.  Averaging the
displacement over (M, K, L) for a fixed ranking matrix gives the linear
regression  E[S' - S | ranking] = -(2/(rn)) S,  and the unconditional
increment covariance is  E[(S'_j - S_j)(S'_u - S_u)] = 4 sigma_ju / (rn).

Every one of these identities is a sum of per-trial terms, so one pass
enumerates the r! rows of one trial and the r^2 draws of (K, L), never the
configurations.  The pass is one exact int64 numpy computation over the
increment array dQ[row, K, L, :], the swapped row minus the row on the
doubled-rank scale, of shape (r!, r, r, r): the regression sums reduce it
over (K, L), the product matrix is dQ^T dQ over all row draws, and the
support, quartic and cubic rules are counted as masks on every draw, so
an increment off the support rule also fails each product pattern it
breaks.  It tallies everything the three verifiers report; they only
format entries for (r, n).  The rows are exact_law._trial_rows, the one
table of one trial's rows doubled and centered, which prices their r! r^2
row draws on every call, before any row or array is built; the pass is
cached on r, so each r is enumerated once per process whatever n, and no
row is hashed (BudgetError beyond it, at once past r = 30;
verify_suite, which runs the three over a grid of cells after its walk is
checked and priced by _suite_walk, reports such a cell through
exact_law._within_budget as one skipped entry).

The regression identity reads sum_draws dQ_j = -2 r Q_j for a
configuration; summed over its trials, it holds for every configuration at
every n exactly when sum_{K,L} dQ(row) = -2 r row holds for every row.  The
increment depends only on the resampled row, which is uniform whatever M
is, so the increment moments are row averages scaled by c^2, and the
product patterns are checked row draw by row draw.

Products of increments over three or four coordinates vanish unless every
coordinate lies in {K, L}; on those tuples the product is

    (c d)^m * (-1)^(# coordinates equal to L),   d = rho_M(L) - rho_M(K).

The all-equal and two-two quartic patterns carry sign +1, the three-one
quartic split carries sign -1 (it does not vanish), and cubic products
follow the same sign rule; the verifier checks the full signed rule on
every row draw.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import check_count
from .exact_law import _check_terms, _count_entry, _entry, _trial_rows, _within_budget

__all__ = [
    "verify_regression",
    "verify_increment_moments",
    "verify_triple_structure",
    "verify_suite",
]


class _SwapTally(NamedTuple):
    rows: int
    draws: int
    regression_bad: int     # rows whose summed increments miss -2r row
    products: tuple         # products[j][u] = sum over draws of dQ_j dQ_u
    support_bad: int
    quartic_bad: int
    cubic_bad: int


def _swap_pass(rows) -> _SwapTally:
    """The one array pass over the rows of a trial and the r^2 (K, L) swap draws of each."""
    row = np.array(rows, dtype=np.int64)
    r = row.shape[1]
    k, l, j = np.ogrid[:r, :r, :r]
    swap = np.where(j == k, l, np.where(j == l, k, j))  # swap[K, L, j] = swap(K, L)(j)
    dq = row[:, swap] - row[:, None, None, :]
    products = dq.reshape(-1, r).T @ dq.reshape(-1, r)
    regression_bad = np.count_nonzero((dq.sum(axis=(1, 2)) != -2 * r * row).any(axis=1))
    # support rule: dQ = d e with e_K = 1, e_L = -1, zero elsewhere
    d = row[:, None, :] - row[:, :, None]  # d[row, K, L] = row[L] - row[K]
    e = (j == k).astype(np.int64) - (j == l)
    ok = (dq == d[..., None] * e).all(axis=3)
    k, l = k[..., 0], l[..., 0]
    # quartic classes, products taken from the actual dq values
    a, b = dq[:, k, l, k], dq[:, k, l, l]
    d2 = d * d
    d3, d4 = d2 * d, d2 * d2
    quartic = ((a ** 4 != d4) | (b ** 4 != d4) | (a * a * b * b != d4)
               | (a ** 3 * b != -d4) | (a * b ** 3 != -d4))
    if r > 2:  # z[K, L] is the first index outside {K, L}
        z = np.array([[min({0, 1, 2} - {kk, ll}) for ll in range(r)] for kk in range(r)])
        dz = dq[:, k, l, z]
        quartic |= (a ** 3 * dz != 0) | (a * b * dz != 0)
    cubic = ((a ** 3 != d3) | (b ** 3 != -d3)
             | (a * a * b != -d3) | (a * b * b != d3))
    return _SwapTally(len(rows), len(rows) * r * r, int(regression_bad),
                      tuple(map(tuple, products.tolist())), int(ok.size - np.count_nonzero(ok)),
                      int(np.count_nonzero(quartic)), int(np.count_nonzero(cubic)))


_tallies: dict[int, _SwapTally] = {}  # the swap pass of each r, run once


def _tally(r: int) -> _SwapTally:
    """The swap pass at r, run once per r; its r! r^2 row draws are priced on every call."""
    rows = _trial_rows(f"the coupling row draws at r={r}", r, r * r)
    return _tallies[r] if r in _tallies else _tallies.setdefault(r, _swap_pass(rows))


def verify_regression(r: int, n: int) -> list[dict]:
    """Per-row check: sum over (K, L) of dQ(row) equals -2r row exactly.

    Summing the rows of a configuration gives sum_draws dQ_j = -2r Q_j for
    every configuration at every n, and a configuration of n equal rows shows
    the converse.  Conditioning on the full ranking matrix is stronger than
    conditioning on S, so this implies the regression identity
    E[S'-S | S] = -(2/(rn)) S with Lambda = (2/(rn)) I.
    """
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    t = _tally(r)
    return [_count_entry("regression sum_draws dQ = -2r Q per configuration", r, n,
                         t.regression_bad, t.rows, " rows")]


def verify_increment_moments(r: int, n: int) -> list[dict]:
    """Unconditional E[(S'_j-S_j)(S'_u-S_u)] = 4 sigma_ju/(rn), exact.

    The increment depends only on the resampled row, so each moment is the
    average over the r! rows and r^2 (K, L) draws of dQ_j dQ_u, times the
    exact scale (c/2)^2 = 3/(r(r+1)n).
    """
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    t = _tally(r)
    scale = Fraction(3, r * (r + 1) * n)  # (c/2)^2 on the doubled scale
    moment = [[scale * Fraction(p, t.draws) for p in line] for line in t.products]
    target_diag = Fraction(4 * (r - 1), r * r * n)
    target_off = Fraction(-4, r * r * n)
    ok_diag = all(moment[j][j] == target_diag for j in range(r))
    ok_off = all(moment[j][u] == target_off for j in range(r) for u in range(r) if u != j)
    return [
        _entry("E[(S'_j-S_j)^2] = 4(r-1)/(r^2 n)", r, n, "pass" if ok_diag else "fail",
               moment[0][0], target_diag),
        _entry("E[(S'_j-S_j)(S'_u-S_u)] = -4/(r^2 n), j != u", r, n,
               "pass" if ok_off else "fail", moment[0][1], target_off),
    ]


def verify_triple_structure(r: int, n: int) -> list[dict]:
    """Vanishing patterns of increment products on every row draw.

    The increment depends only on the resampled row, so each of the r! rows
    and r^2 (K, L) draws stands for every configuration and trial M holding
    that row.  The pass checks that the swapped row minus the row is
    dQ = d * e with e_K = 1, e_L = -1, zero elsewhere, and evaluates the
    product of increments on each multiplicity class of index tuples:

      quartic: all-equal in {K,L} -> +d^4;  two-two -> +d^4;
               three-one -> -d^4 (nonzero);  any index outside {K,L} -> 0;
      cubic:   all-K -> +d^3;  all-L -> -d^3;  two-one -> -d^3 / +d^3;
               outside index -> 0;
      K = L  -> every product 0.
    """
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    t = _tally(r)
    return [
        _count_entry("increment support and swapped-path consistency", r, n,
                     t.support_bad, t.draws, " draws"),
        _count_entry("quartic product pattern (+d^4 on all-equal and 2-2, -d^4 on 3-1, 0 outside)",
                     r, n, t.quartic_bad, t.draws, " draws",
                     "three-one splits are nonzero with sign -1"),
        _count_entry("cubic product pattern (signed, 0 outside)", r, n,
                     t.cubic_bad, t.draws, " draws", "the all-L cube carries sign -1"),
    ]


def _suite_walk(r_max: int, n_max: int) -> tuple[int, int]:
    """Check the coupling suite's r_max and n_max and charge its walk one term
    per entry of a cell: one regression, two moment and three pattern
    entries.  Returns the checked flags."""
    r_max, n_max = check_count(r_max, 2, "r_max"), check_count(n_max, 1, "n_max")
    _check_terms(f"the coupling cells at r=2..{r_max}, n=1..{n_max}", 6 * (r_max - 1) * n_max)
    return r_max, n_max


def verify_suite(r_max: int, n_max: int) -> list[dict]:
    """The three verifiers at every cell r in 2..r_max, n in 1..n_max, after
    _suite_walk; a cell past the budget is one skipped entry naming its cost."""
    r_max, n_max = _suite_walk(r_max, n_max)
    return [e for r in range(2, r_max + 1) for n in range(1, n_max + 1)
            for e in _within_budget("coupling identities", r, n, lambda: (
                verify_regression(r, n) + verify_increment_moments(r, n)
                + verify_triple_structure(r, n)))]
