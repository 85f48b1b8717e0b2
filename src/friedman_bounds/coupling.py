"""Exchangeable-pair coupling for the score vector and its exact checks.

The pair: pick a trial M uniformly and treatments K, L uniformly and
independently (K = L allowed, in which case S' = S), then swap the ranks of
treatments K and L inside trial M.  The scores move by

    S'_K - S_K = c (rho_M(L) - rho_M(K)),   S'_L - S_L = -(S'_K - S_K),

with c = sqrt(12/(r(r+1)n)), all other coordinates unchanged.  Averaging the
displacement over (M, K, L) for a fixed ranking matrix gives the linear
regression  E[S' - S | ranking] = -(2/(rn)) S,  and the unconditional
increment covariance is  E[(S'_j - S_j)(S'_u - S_u)] = 4 sigma_ju / (rn).

Every one of these identities is a sum of per-trial terms, so the verifiers
below enumerate the r! rows of one trial and the r^2 draws of (K, L), never
the configurations, and their cost does not depend on n.  On the
doubled-rank scale the regression identity reads sum_draws dQ_j = -2 r Q_j
for a configuration; summed over its trials, it holds for every
configuration at every n exactly when sum_{K,L} dQ(row) = -2 r row holds
for every row.  The increment depends only on the resampled row, which is
uniform whatever M is, so the increment moments are row averages scaled by
c^2, and the product patterns are checked row draw by row draw.  The r! r^2
row draws are charged to the exact engine's budget (BudgetError beyond it).

Products of increments over three or four coordinates vanish unless every
coordinate lies in {K, L}; on those tuples the product is

    (c d)^m * (-1)^(# coordinates equal to L),   d = rho_M(L) - rho_M(K).

The all-equal and two-two quartic patterns carry sign +1, the three-one
quartic split carries sign -1 (it does not vanish), and cubic products
follow the same sign rule; the verifier checks the full signed rule on
every row draw.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations as iter_permutations

from .exact import _check_terms, _entry, centered_doubled

__all__ = [
    "verify_regression",
    "verify_increment_moments",
    "verify_triple_structure",
]


def _rows(r: int) -> list[tuple[int, ...]]:
    """The r! rows of one trial, charged as the r! r^2 row draws each verifier makes."""
    _check_terms(f"the coupling row draws at r={r}", math.factorial(r) * r * r)
    return list(iter_permutations(centered_doubled(r)))


def verify_regression(r: int, n: int) -> list[dict]:
    """Per-row check: sum over (K, L) of dQ(row) equals -2r row exactly.

    Summing the rows of a configuration gives sum_draws dQ_j = -2r Q_j for
    every configuration at every n, and a configuration of n equal rows shows
    the converse.  Conditioning on the full ranking matrix is stronger than
    conditioning on S, so this implies the regression identity
    E[S'-S | S] = -(2/(rn)) S with Lambda = (2/(rn)) I.
    """
    rows = _rows(r)
    bad = 0
    for row in rows:
        acc = [0] * r
        for k in range(r):
            for l in range(r):
                d = row[l] - row[k]
                acc[k] += d
                acc[l] -= d
        if any(acc[j] != -2 * r * row[j] for j in range(r)):
            bad += 1
    return [_entry("regression sum_draws dQ = -2r Q per configuration", r, n,
                   "pass" if bad == 0 else "fail",
                   f"{len(rows) - bad} rows exact", f"{len(rows)} required")]


def verify_increment_moments(r: int, n: int) -> list[dict]:
    """Unconditional E[(S'_j-S_j)(S'_u-S_u)] = 4 sigma_ju/(rn), exact.

    The increment depends only on the resampled row, so each moment is the
    average over the r! rows and r^2 (K, L) draws of dQ_j dQ_u, times the
    exact scale (c/2)^2 = 3/(r(r+1)n).
    """
    rows = _rows(r)
    diag = [0] * r          # sums of dQ_j^2
    off = [[0] * r for _ in range(r)]
    for row in rows:
        for k in range(r):
            for l in range(r):
                d = row[l] - row[k]
                d2 = d * d
                diag[k] += d2
                diag[l] += d2
                off[k][l] -= d2
                off[l][k] -= d2
    draws = len(rows) * r * r
    scale = Fraction(3, r * (r + 1) * n)  # (c/2)^2 on the doubled scale
    out = []
    target_diag = Fraction(4 * (r - 1), r * r * n)
    target_off = Fraction(-4, r * r * n)
    ok_diag = all(scale * Fraction(diag[j], draws) == target_diag for j in range(r))
    out.append(_entry("E[(S'_j-S_j)^2] = 4(r-1)/(r^2 n)", r, n,
                      "pass" if ok_diag else "fail",
                      str(scale * Fraction(diag[0], draws)), str(target_diag)))
    ok_off = all(scale * Fraction(off[j][u], draws) == target_off
                 for j in range(r) for u in range(r) if u != j)
    out.append(_entry("E[(S'_j-S_j)(S'_u-S_u)] = -4/(r^2 n), j != u", r, n,
                      "pass" if ok_off else "fail",
                      str(scale * Fraction(off[0][1], draws)), str(target_off)))
    return out


def verify_triple_structure(r: int, n: int) -> list[dict]:
    """Vanishing patterns of increment products on every row draw.

    The increment depends only on the resampled row, so each of the r! rows
    and r^2 (K, L) draws stands for every configuration and trial M holding
    that row.  For each draw the swapped row is rebuilt and differenced
    against the original (an independent path from the swap formula); the
    verifier then checks dQ = d * e with e_K = 1, e_L = -1, zero elsewhere,
    and evaluates the product of increments on each multiplicity class of
    index tuples:

      quartic: all-equal in {K,L} -> +d^4;  two-two -> +d^4;
               three-one -> -d^4 (nonzero);  any index outside {K,L} -> 0;
      cubic:   all-K -> +d^3;  all-L -> -d^3;  two-one -> -d^3 / +d^3;
               outside index -> 0;
      K = L  -> every product 0.
    """
    rows = _rows(r)
    range_r = range(r)
    support_bad = 0
    quartic_bad = 0
    cubic_bad = 0
    draws = 0
    for row in rows:
        for k in range_r:
            rk = row[k]
            for l in range_r:
                draws += 1
                d = row[l] - rk
                if k == l:
                    if d != 0:
                        support_bad += 1
                    continue
                swapped = list(row)
                swapped[k], swapped[l] = swapped[l], swapped[k]
                # swapped-row column entries, differenced against the originals
                dq = [swapped[j] - row[j] for j in range_r]
                if dq[k] != d or dq[l] != -d or any(
                        dq[j] != 0 for j in range_r if j != k and j != l):
                    support_bad += 1
                    continue
                a = dq[k]
                b = dq[l]
                d2 = d * d
                d3 = d2 * d
                d4 = d2 * d2
                # quartic classes, products taken from the actual dq values
                if (a ** 4 != d4 or b ** 4 != d4 or a * a * b * b != d4
                        or a ** 3 * b != -d4 or a * b ** 3 != -d4):
                    quartic_bad += 1
                # cubic classes
                if (a ** 3 != d3 or b ** 3 != -d3
                        or a * a * b != -d3 or a * b * b != d3):
                    cubic_bad += 1
                if r > 2:
                    z = next(j for j in range_r if j != k and j != l)
                    if a ** 3 * dq[z] != 0 or a * b * dq[z] != 0:
                        quartic_bad += 1
    out = [
        _entry("increment support and swapped-path consistency", r, n,
               "pass" if support_bad == 0 else "fail",
               f"{draws - support_bad} draws exact", f"{draws} required"),
        _entry("quartic product pattern (+d^4 on all-equal and 2-2, -d^4 on 3-1, 0 outside)",
               r, n, "pass" if quartic_bad == 0 else "fail",
               f"{draws - quartic_bad} draws exact", f"{draws} required",
               "three-one splits are nonzero with sign -1"),
        _entry("cubic product pattern (signed, 0 outside)", r, n,
               "pass" if cubic_bad == 0 else "fail",
               f"{draws - cubic_bad} draws exact", f"{draws} required",
               "the all-L cube carries sign -1"),
    ]
    return out

