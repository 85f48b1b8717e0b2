"""Exact rational verification of every moment formula by enumeration.

Centered ranks are handled as doubled integers (2*rho is an integer), so all
moments are exact fractions.  The claims are covered by:

* single-trial moments of rho-monomials in up to four distinct treatment
  coordinates: the marginal law of k coordinates of a uniform permutation is
  the uniform law on ordered k-tuples of distinct centered values, so those
  tuples are enumerated directly (each stands for (r-k)! full permutations);

* moments of sums of n i.i.d. trials (S_j, the pair (S_j, S_k), T_m, and
  from them E[F_r] and E[F_r^2]): the joint cumulants of such a sum are n
  times those of one trial, so the moments follow exactly at a cost that
  does not depend on n;

* the law of F_r: the record of ``exact_law`` (f_law), read here as exact
  rational atoms (exact_f_distribution) and P(F_r = 0); tests/test_exact.py
  (test_f_law_moments_equal_joint_moments) checks its E[F], E[F^2] and
  Var(F) against the moments above.

Cost is counted in enumerated terms and capped by the one budget BUDGET_CAP
of ``exact_law`` (_check_terms raises BudgetError naming the cell, the term
count and the cap).  The budget, not a fixed r, bounds every suite: the
lemma and inequality suites charge their largest tuple enumeration up
front (the lemmas run to r = 22), each decomposition check charges the r!
terms of the overlap law before any draw, and verify_identities reports an
r past the budget as one skipped entry (the decompositions run to r = 8).

Every verify_* function returns a list of JSON-ready entries
{identity, r, n, status, lhs, rhs} in the format of ``exact_law._entry``
and never raises on a failed identity.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import permutations as iter_permutations
from itertools import product as iter_product

from .errors import BudgetError, DomainError, check_count
from .exact_law import _check_terms, _entry, all_pass, centered_doubled, f_law

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


def _eq_entry(identity: str, r: int, n: int | None, lhs, rhs, note: str = "") -> dict:
    return _entry(identity, r, n, "pass" if lhs == rhs else "fail", lhs, rhs, note)


def _le_entry(identity: str, r: int, n: int | None, lhs, rhs, note: str = "") -> dict:
    return _entry(identity, r, n, "pass" if lhs <= rhs else "fail", lhs, rhs, note)


# ---------------------------------------------------------------------------
# single-trial rho moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: r = 3.0 must miss the entry of r = 3 and be refused
def rho_moment(r: int, powers: tuple[int, ...]) -> Fraction:
    """E[rho(1)^p1 * rho(2)^p2 * ...] over distinct coordinates of one trial."""
    r = check_count(r, 2, "r")
    if len(powers) > r:
        raise DomainError(f"{len(powers)} distinct coordinates need r >= {len(powers)}")
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


# ---------------------------------------------------------------------------
# sums of n i.i.d. trials: moments from cumulants
# ---------------------------------------------------------------------------

def _recursion_rest(a: tuple[int, ...], kappa, m) -> Fraction:
    """The terms with b != a-e of m_a = sum_{b <= a-e} C(a-e, b) k_{b+e} m_{a-e-b}.

    Moments m and cumulants k are linked by that recursion, for the first
    coordinate i with a_i > 0 and e its unit vector; its b = a-e term is k_a.
    """
    i = next(i for i, p in enumerate(a) if p)
    top = a[:i] + (a[i] - 1,) + a[i + 1:]
    return sum(math.prod(map(math.comb, top, b)) * kappa[b[:i] + (b[i] + 1,) + b[i + 1:]]
               * m[tuple(t - s for t, s in zip(top, b))]
               for b in iter_product(*(range(t + 1) for t in top)) if b != top)


@lru_cache(maxsize=None)
def _trial_cumulants(law: tuple, degrees: tuple[int, ...]) -> tuple:
    """One trial's joint cumulants as (a, k_a) pairs for 0 < a <= degrees, b <= a first.

    `law` is the trial's (value tuple, count) pairs, as a tuple so that the
    cumulants, which do not depend on n, are computed once per law.
    """
    total = sum(c for _, c in law)
    index = list(iter_product(*(range(d + 1) for d in degrees)))  # b <= a precedes a
    trial = {a: Fraction(sum(c * math.prod(map(pow, x, a)) for x, c in law), total)
             for a in index}
    kappa: dict[tuple[int, ...], Fraction] = {}
    for a in index[1:]:
        kappa[a] = trial[a] - _recursion_rest(a, kappa, trial)
    return tuple(kappa.items())


def _iid_sum_moments(law: tuple, n: int, degrees: tuple[int, ...]) -> dict[tuple, Fraction]:
    """E[prod_i X_i^a_i] for every a <= degrees, X the sum of n i.i.d. trials.

    The joint cumulants of the sum are n times those of one trial
    (_trial_cumulants), so the cost does not depend on n.
    """
    n_kappa: dict[tuple[int, ...], Fraction] = {}
    moments = {(0,) * len(degrees): Fraction(1)}
    for a, kappa in _trial_cumulants(law, degrees):
        n_kappa[a] = n * kappa
        moments[a] = n_kappa[a] + _recursion_rest(a, n_kappa, moments)
    return moments


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


@lru_cache(maxsize=None)
def _overlap_counts(r: int) -> tuple[tuple[tuple[int], int], ...]:
    base = centered_doubled(r)
    counts = Counter(sum(x * y for x, y in zip(base, row)) for row in iter_permutations(base))
    return tuple(((y,), c) for y, c in sorted(counts.items()))


def _overlap_law(r: int) -> tuple[tuple[tuple[int], int], ...]:
    """Counts of Y = sum_l v_l v_pi(l) over the r! permutations pi, with v
    the doubled ranks; the budget is charged on every call, cached or not."""
    _check_terms(f"the law of sum_l v_l v_pi(l) at r={r}", math.factorial(r))
    return _overlap_counts(r)


def _t_statistic_moments(n: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """((E[T_m])^2, E[T_m^2], E[T_m^4]) exact, via T = (c/4) x.

    For trial m's doubled row d, x = sum_l Q_l d_l is |d|^2 plus n-1 i.i.d.
    copies of Y = sum_l v_l v_pi(l), whose law does not depend on d.
    """
    shift = sum(v * v for v in centered_doubled(r))
    y = _iid_sum_moments(_overlap_law(r), n - 1, (4,))
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
    """Exact joint moments of F_r, S_j and T_m at any n (the T_m law costs r! terms)."""
    r, n = check_count(r, 2, "r"), check_count(n, 1, "n")
    e = {**_f_moments(r, n), **_s_moments(r, n)}
    e["E[T]^2"], e["E[T^2]"], e["E[T^4]"] = _t_statistic_moments(n, r)
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


def verify_lemma_formulas(r_max: int, n_max: int) -> list[dict]:
    """Check every exact moment equality behind the error bounds.

    Single-trial identities run for r in 2..r_max; the largest enumeration,
    the r_max!/(r_max-4)! four-coordinate tuples, is charged to the budget
    before any other (r_max <= 22 fits).  Column-law identities (variance,
    S-moment closed forms) and the F_r and T_m identities run for every n in
    1..n_max, at a cost that does not depend on n.  The F_r identities read
    the S moments alone.  The T_m identities need the r! terms of the
    overlap law: from r = 9 on, each cell's are one skipped entry naming
    that count.  Infeasible identities (three distinct coordinates at r = 2)
    are reported as skipped, not failed.
    """
    r_max, n_max = check_count(r_max, 2, "r_max"), check_count(n_max, 1, "n_max")
    _check_terms(f"the enumeration of four-coordinate tuples at r={r_max}", math.perm(r_max, 4))
    out: list[dict] = []
    for r in range(2, r_max + 1):
        rr = Fraction(r)
        # (identity, powers of rho, rho', ... at distinct coordinates, closed form);
        # an identity in |...| compares the absolute value
        for name, powers, closed in (
                ("E[rho] = 0", (1,), 0),
                ("E[rho^3] = 0", (3,), 0),
                ("E[rho^2 rho'] = 0", (2, 1), 0),
                ("E[rho rho' rho''] = 0", (1, 1, 1), 0),
                ("E[rho^2] closed form", (2,), (rr ** 2 - 1) / 12),
                ("E[rho rho'] closed form", (1, 1), -(rr + 1) / 12),
                ("E[rho^4] closed form", (4,), (rr ** 2 - 1) * (3 * rr ** 2 - 7) / 240),
                ("E[rho^3 rho'] closed form", (3, 1), -(rr + 1) * (3 * rr ** 2 - 7) / 240),
                ("E[rho^2 rho'^2] closed form", (2, 2),
                 (rr + 1) * (5 * rr ** 3 - 9 * rr ** 2 - 5 * rr + 21) / 720),
                ("E[rho^6] closed form", (6,),
                 (rr ** 2 - 1) * (3 * rr ** 4 - 18 * rr ** 2 + 31) / 1344),
                ("E[rho^2 rho' rho''] closed form", (2, 1, 1),
                 -(rr - 3) * (rr + 1) * (5 * rr + 7) / 720),
                ("|E[rho rho' rho'' rho''']| closed form", (1, 1, 1, 1),
                 (rr + 1) * (5 * rr + 7) / 240)):
            if len(powers) > r:  # only E[rho rho' rho''] = 0 at r = 2 is reported, as a skip
                if closed == 0:
                    out.append(_entry(name, r, None, "skip", "-", "-",
                                      "needs three distinct treatments"))
                continue
            val = rho_moment(r, powers)
            out.append(_eq_entry(name, r, None, abs(val) if name[0] == "|" else val, closed))
        if r >= 4:  # val is the four-coordinate moment
            out.append(_entry("sign of E[rho rho' rho'' rho''']", r, None, "pass",
                              "+" if val > 0 else ("0" if val == 0 else "-"),
                              "recorded", "the source states only the absolute value"))

        # polynomial moment identities (single trial)
        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) / 4 * v + v ** 3) ** 2 * v ** 2)
        rhs = (rr ** 2 - 1) * (47 * rr ** 6 - 322 * rr ** 4 + 875 * rr ** 2 - 936) / 20160
        out.append(_eq_entry("E[((r^2-1)/4 rho + rho^3)^2 rho^2] closed form", r, None, lhs, rhs))

        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) - 12 * v ** 2) ** 2 * v ** 4)
        rhs = (rr ** 2 - 1) * (rr ** 2 - 4) * (9 * rr ** 4 - 118 * rr ** 2 + 445) / 420
        out.append(_eq_entry("E[((r^2-1)-12rho^2)^2 rho^4] closed form", r, None, lhs, rhs))

        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) - 12 * v ** 2) ** 4)
        rhs = Fraction(48, 35) * (rr ** 2 - 1) * (rr ** 2 - 4) * (rr ** 4 - 17 * rr ** 2 + 100)
        out.append(_eq_entry("E[((r^2-1)-12rho^2)^4] closed form", r, None, lhs, rhs))

        lhs = _tuple_mean(r, 2, lambda a, b: (a - b) ** 2)
        out.append(_eq_entry("E[(rho-rho')^2] = r(r+1)/6", r, None, lhs, rr * (rr + 1) / 6))
        lhs = _tuple_mean(r, 2, lambda a, b: (a - b) ** 4)
        out.append(_eq_entry("E[(rho-rho')^4] = r(r+1)(2r^2-3)/30", r, None,
                             lhs, rr * (rr + 1) * (2 * rr ** 2 - 3) / 30))
        lhs = _tuple_mean(
            r, 2, lambda a, b: (Fraction(6, r * (r + 1)) * (a - b) ** 2 - 1) ** 2)
        out.append(_eq_entry("E[(6(rho-rho')^2/(r(r+1)) - 1)^2] closed form", r, None,
                             lhs, (rr - 2) * (7 * rr + 9) / (5 * rr * (rr + 1))))

        # deterministic per-row sums
        vals = [Fraction(v, 2) for v in centered_doubled(r)]
        out.append(_eq_entry("sum_l rho(l)^2 = r(r^2-1)/12", r, None,
                             sum(v ** 2 for v in vals), rr * (rr ** 2 - 1) / 12))
        sum8 = sum((a - b) ** 8 for a in vals for b in vals)
        out.append(_eq_entry("sum_{k,l} (rho(k)-rho(l))^8 closed form", r, None, sum8,
                             rr ** 2 * (rr ** 2 - 1) * (2 * rr ** 2 - 3) * (rr ** 4 - 5 * rr ** 2 + 7) / 90))
        for rho in vals:
            cubic = sum((v - rho) ** 3 for v in vals)
            out.append(_eq_entry("sum_l (rho(l)-rho(k))^3 = -r(r^2-1)/4 rho - r rho^3",
                                 r, None, cubic, -rr * (rr ** 2 - 1) / 4 * rho - rr * rho ** 3))
            quartic = sum((rho - v) ** 4 for v in vals)
            out.append(_eq_entry(
                "sum_l (rho(k)-rho(l))^4 expansion", r, None, quartic,
                rr * (3 * rr ** 4 - 10 * rr ** 2 + 7) / 240
                + rr * (rr ** 2 - 1) / 2 * rho ** 2 + rr * rho ** 4))
            sextic = sum((rho - v) ** 6 for v in vals)
            out.append(_eq_entry(
                "sum_l (rho(k)-rho(l))^6 expansion", r, None, sextic,
                rr * (3 * rr ** 6 - 21 * rr ** 4 + 49 * rr ** 2 - 31) / 1344
                + rr * (3 * rr ** 4 - 10 * rr ** 2 + 7) / 16 * rho ** 2
                + 5 * rr * (rr ** 2 - 1) / 4 * rho ** 4 + rr * rho ** 6))

        # column laws: score covariance and the S-moment closed forms
        for n in range(1, n_max + 1):
            s = _s_moments(r, n)
            out.append(_eq_entry("Var(S_j) = (r-1)/r", r, n, s["E[S^2]"], Fraction(r - 1, r)))
            out.append(_eq_entry("Cov(S_j,S_k) = -1/r", r, n, s["E[S_j S_k]"], Fraction(-1, r)))
            out.append(_eq_entry("E[S^4] closed form", r, n, s["E[S^4]"], closed_s4(r, n)))
            out.append(_le_entry("E[S^4] <= 3 - 6/(5n)", r, n, s["E[S^4]"],
                                 3 - Fraction(6, 5 * n)))
            out.append(_eq_entry("E[S^6] closed form", r, n, s["E[S^6]"], closed_s6(r, n)))
            out.append(_le_entry("E[S^6] <= 15", r, n, s["E[S^6]"], Fraction(15)))
            out.append(_eq_entry("E[S_j^2 S_k^2] closed form", r, n, s["E[S_j^2 S_k^2]"],
                                 closed_s2s2(r, n)))

        # F_r from the S moments at every r; T_m from the overlap law, within the budget
        for n in range(1, n_max + 1):
            f, nn = _f_moments(r, n), Fraction(n)
            out.append(_eq_entry("E[F] = r-1", r, n, f["E[F]"], rr - 1))
            out.append(_eq_entry("E[F^2] = r^2-1-2(r-1)/n", r, n, f["E[F^2]"],
                                 rr ** 2 - 1 - 2 * (rr - 1) / nn))
            out.append(_eq_entry("Var(F) = 2(r-1)(1-1/n)", r, n, f["Var(F)"],
                                 2 * (rr - 1) * (1 - 1 / nn)))
            try:
                t_mean_sq, t2, t4 = _t_statistic_moments(n, r)
            except BudgetError as exc:
                out.append(_entry("T_m identities", r, n, "skip", "-", "-", str(exc)))
                continue
            out.append(_eq_entry("E[T]^2 = r(r+1)(r-1)^2/(12n)", r, n, t_mean_sq,
                                 rr * (rr + 1) * (rr - 1) ** 2 / (12 * nn)))
            out.append(_eq_entry("E[T^2] = r(r^2-1)(1+(r-2)/n)/12", r, n, t2,
                                 rr * (rr ** 2 - 1) / 12 * (1 + (rr - 2) / nn)))
            if n >= 2:
                out.append(_le_entry("E[T^2] <= r^3(1+r/n)/12", r, n, t2,
                                     rr ** 3 / 12 * (1 + rr / nn)))
                c_t = Fraction(7, 48) + rr ** 2 / (36 * nn ** 2) + Fraction(1, 5 * n)
                out.append(_le_entry("E[T^4] <= C_T r^6", r, n, t4, c_t * rr ** 6))
    return out


def verify_inequalities(r_max: int) -> list[dict]:
    """Check every single-trial moment inequality used by the remainder estimates.

    Runs r in 2..r_max; the largest enumeration, the r_max!/(r_max-3)!
    three-coordinate tuples, is charged to the budget before any other.
    Equalities are exact rational comparisons; chains mixing square or cube
    roots (the treatment-sum chains, with the S-moment caps E[S^2] <= 1,
    E[S^4] <= 3, E[S^6] <= 15 substituted as in the proofs) are evaluated in
    floating point from exact rho moments.
    """
    r_max = check_count(r_max, 2, "r_max")
    _check_terms(f"the enumeration of three-coordinate tuples at r={r_max}", math.perm(r_max, 3))
    out: list[dict] = []
    for r in range(2, r_max + 1):
        rr = Fraction(r)
        m = {
            4: rho_moment(r, (4,)),
            6: rho_moment(r, (6,)),
            8: rho_moment(r, (8,)),
            12: rho_moment(r, (12,)),
            16: rho_moment(r, (16,)),
        }
        out.append(_le_entry("E[rho^4] <= r^4/80", r, None, m[4], rr ** 4 / 80))
        # the stated cap r^3/80 fails from r = 4 on (exact value (r+1)(3r^2-7)/240);
        # the derivation's own identity gives the valid cap r^2(r+1)/80
        out.append(_le_entry("|E[rho^3 rho']| <= r^2(r+1)/80 (corrected cap)", r, None,
                             abs(rho_moment(r, (3, 1))), rr ** 2 * (rr + 1) / 80,
                             note="stated cap r^3/80 holds only for r <= 3"))
        out.append(_le_entry("E[rho^2 rho'^2] <= r^4/144", r, None,
                             rho_moment(r, (2, 2)), rr ** 4 / 144))
        if r >= 3:
            out.append(_le_entry("|E[rho^2 rho' rho'']| <= r^3/144", r, None,
                                 abs(rho_moment(r, (2, 1, 1))), rr ** 3 / 144))
        out.append(_le_entry("E[rho^6] <= r^6/448", r, None, m[6], rr ** 6 / 448))
        out.append(_le_entry("E[rho^8] <= r^8/2304", r, None, m[8], rr ** 8 / 2304))
        out.append(_le_entry("E[rho^12] <= r^12/53248", r, None, m[12], rr ** 12 / 53248))
        out.append(_le_entry("E[rho^16] <= r^16/1114112", r, None, m[16], rr ** 16 / 1114112))

        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) / 4 * v + v ** 3) ** 2 * v ** 2)
        out.append(_le_entry("E[((r^2-1)/4 rho + rho^3)^2 rho^2] <= 0.00234 r^8",
                             r, None, lhs, Fraction("0.00234") * rr ** 8))
        lhs = _tuple_mean(r, 2, lambda a, b: ((rr ** 2 - 1) / 4 * a + a ** 3) ** 2 * b ** 2)
        out.append(_le_entry("E[((r^2-1)/4 rho + rho^3)^2 rho'^2] <= 0.00240 r^8",
                             r, None, lhs, Fraction("0.00240") * rr ** 8))
        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) / 4 * v + v ** 3) ** 4)
        out.append(_le_entry("E[((r^2-1)/4 rho + rho^3)^4] <= 1763 r^12/3843840",
                             r, None, lhs, Fraction(1763, 3843840) * rr ** 12))

        # proof chains: deterministic sum expansion + Cauchy-Schwarz/Hoelder
        # with the S-moment caps; rho moments are the exact enumerated values.
        a4 = r * (3 * r ** 4 - 10 * r ** 2 + 7) / 240
        a6 = r * (3 * r ** 6 - 21 * r ** 4 + 49 * r ** 2 - 31) / 1344
        b2 = r * (r ** 2 - 1) / 2
        chain1 = a4 + b2 * math.sqrt(3 * m[4]) + r * math.sqrt(3 * m[8])
        out.append(_le_entry("chain: sum_l E[S^2 (rho(l)-rho(k))^4] <= 0.1455 r^5",
                             r, None, chain1, 0.1455 * r ** 5))
        chain2 = 3 * a4 + b2 * (225 * m[6]) ** (1 / 3) + r * (225 * m[12]) ** (1 / 3)
        out.append(_le_entry("chain: sum_l E[S^4 (rho(l)-rho(k))^4] <= 0.6717 r^5",
                             r, None, chain2, 0.6717 * r ** 5))
        chain3 = (a6 + r * (3 * r ** 4 - 10 * r ** 2 + 7) / 16 * math.sqrt(3 * m[4])
                  + 5 * r * (r ** 2 - 1) / 4 * math.sqrt(3 * m[8]) + r * math.sqrt(3 * m[12]))
        out.append(_le_entry("chain: sum_l E[S^2 (rho(l)-rho(k))^6] <= 0.09116 r^7",
                             r, None, chain3, 0.09116 * r ** 7))

        # quartic-weight inequalities
        lhs = _tuple_mean(r, 1, lambda v: ((rr ** 2 - 1) - 12 * v ** 2) ** 2 * v ** 4)
        out.append(_le_entry("E[((r^2-1)-12rho^2)^2 rho^4] <= 3r^8/140",
                             r, None, lhs, 3 * rr ** 8 / 140))
        lhs = _tuple_mean(r, 2, lambda a, b: ((rr ** 2 - 1) - 12 * a ** 2) ** 2 * b ** 4)
        out.append(_le_entry("E[((r^2-1)-12rho^2)^2 rho'^4] <= 0.02440 r^8",
                             r, None, lhs, Fraction("0.02440") * rr ** 8))
        lhs = _tuple_mean(r, 2, lambda a, b: ((rr ** 2 - 1) - 12 * a ** 2) ** 2 * a ** 2 * b ** 2)
        out.append(_le_entry("E[((r^2-1)-12rho^2)^2 rho^2 rho'^2] <= 0.02292 r^8",
                             r, None, lhs, Fraction("0.02292") * rr ** 8))
        if r >= 3:
            lhs = _tuple_mean(
                r, 3, lambda a, b, c: ((rr ** 2 - 1) - 12 * a ** 2) ** 2 * b ** 4 * c ** 4)
            out.append(_le_entry("E[((r^2-1)-12rho^2)^2 rho'^4 rho''^4] <= 0.00111 r^12",
                                 r, None, lhs, Fraction("0.00111") * rr ** 12))
        else:
            out.append(_entry("E[((r^2-1)-12rho^2)^2 rho'^4 rho''^4] cap", r, None, "skip", "-", "-",
                              "needs three distinct treatments"))

        # squared normalized spread
        lhs = _tuple_mean(
            r, 2, lambda a, b: (Fraction(6, r * (r + 1)) * (a - b) ** 2 - 1) ** 2)
        out.append(_eq_entry("normalized spread second moment closed form (k != l)", r, None,
                             lhs, (rr - 2) * (7 * rr + 9) / (5 * rr * (rr + 1))))
        out.append(_le_entry("normalized spread second moment <= 7/5 (k != l)", r, None, lhs, Fraction(7, 5)))
        out.append(_le_entry("normalized spread second moment <= 7/5 (k = l)", r, None, Fraction(1), Fraction(7, 5)))

        # deterministic sums and pointwise caps used in the remainder bounds
        vals = [Fraction(v, 2) for v in centered_doubled(r)]
        s4 = sum((a - b) ** 4 for a in vals for b in vals)
        out.append(_le_entry("sum_{k,l}(rho(k)-rho(l))^4 <= r^6/15", r, None, s4, rr ** 6 / 15))
        s6 = sum((a - b) ** 6 for a in vals for b in vals)
        out.append(_le_entry("sum_{k,l}(rho(k)-rho(l))^6 <= r^8/28", r, None, s6, rr ** 8 / 28))
        s8 = sum((a - b) ** 8 for a in vals for b in vals)
        out.append(_le_entry("sum_{k,l}(rho(k)-rho(l))^8 <= r^10/45", r, None, s8, rr ** 10 / 45))
        cap = max(abs((rr ** 2 - 1) - 12 * v ** 2) for v in vals)
        out.append(_le_entry("|(r^2-1)-12rho^2| <= 2(r+1)(r+2)", r, None,
                             cap, 2 * (rr + 1) * (rr + 2)))
        cap = max(abs(((rr ** 2 - 1) / 4 * a + a ** 3) * b)
                  for a in vals for b in vals if a != b)
        out.append(_le_entry("|((r^2-1)/4 rho + rho^3) rho'| <= r(r+1)^3/8", r, None,
                             cap, rr * (rr + 1) ** 3 / 8))

        # downstream consumer of the rho-moment caps: the fourth moment of
        # beta = sum_l rho(l) rho'(l) over two independent permutations
        try:
            out.append(_le_entry("E[beta^4] <= 79 r^10/345600", r, None,
                                 beta_fourth_moment_direct(r), Fraction(79, 345600) * rr ** 10))
        except BudgetError as exc:
            out.append(_entry("E[beta^4] <= 79 r^10/345600", r, None, "skip", "-", "-", str(exc)))
    return out


# ---------------------------------------------------------------------------
# four-index sum decomposition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _decomposition(r: int, arity: int) -> tuple[tuple[int, ...], tuple]:
    """The ordered arity-tuples over range(r), in product order, as positions.

    Returns the index of each tuple's multiset in combinations_with_replacement
    order, and the distinct-index regrouping as (weight, positions) classes:
    for a symmetric f the full ordered sum equals the sum over the classes of
    weight times the class's sum of f.
    """
    idxs = range(r)

    def at(*t):
        return sum(i * r ** k for k, i in enumerate(reversed(t)))

    multisets = {m: i for i, m in enumerate(combinations_with_replacement(idxs, arity))}
    index = tuple(multisets[tuple(sorted(t))] for t in iter_product(idxs, repeat=arity))
    pairs = [(l, j) for l in idxs for j in idxs if j != l]
    if arity == 2:
        classes = [(1, [at(l, l) for l in idxs]), (1, [at(l, j) for l, j in pairs])]
    elif arity == 3:
        classes = [(1, [at(j, j, j) for j in idxs]), (3, [at(l, j, j) for l, j in pairs]),
                   (1, [at(*t) for t in iter_permutations(idxs, 3)])]
    elif arity == 4:
        classes = [(1, [at(j, j, j, j) for j in idxs]),
                   (4, [at(l, j, j, j) for l, j in pairs]),
                   (3, [at(l, l, s, s) for l, s in pairs]),
                   (6, [at(l, j, s, s) for l, j, s in iter_permutations(idxs, 3)]),
                   (1, [at(*t) for t in iter_permutations(idxs, 4)])]
    else:
        raise DomainError(f"unsupported arity {arity}")
    return index, tuple((w, tuple(pos)) for w, pos in classes)


def _decompose_check(r: int, f: list, arity: int) -> tuple[Fraction, Fraction]:
    """(full ordered sum, distinct-index regrouping) for a symmetric f given
    as its values on the ordered tuples in product order."""
    _, classes = _decomposition(r, arity)
    return sum(f), sum(w * sum([f[i] for i in pos]) for w, pos in classes)


@lru_cache(maxsize=None)
def _multiset_weights(r: int, arity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per multiset m: the ordered tuples that hold m, and the weight that the
    distinct-index regrouping gives m.

    For f[t] = g[multiset of t] the two sums of _decompose_check are the dot
    products of g with these two vectors.
    """
    index, classes = _decomposition(r, arity)
    full = [0] * (max(index) + 1)
    regrouped = [0] * len(full)
    for m in index:
        full[m] += 1
    for w, pos in classes:
        for i in pos:
            regrouped[index[i]] += w
    return tuple(full), tuple(regrouped)


def beta_fourth_moment_direct(r: int) -> Fraction:
    """E[(sum_l rho(l) rho'(l))^4] over two independent permutations, direct.

    beta(pi, pi') = beta(id, pi' pi^-1) and pi' pi^-1 is uniform whatever pi
    is, so beta = Y/4 with Y read from the r! terms of the overlap law.
    """
    total = sum(c * y ** 4 for (y,), c in _overlap_law(r))
    return Fraction(total, math.factorial(r) * 4 ** 4)  # doubled twice: (2*2)^4


_TRIAL_BLOCK = 1 << 16  # random symmetric f drawn at once, which bounds the draws' memory


def _trial_sums(r: int, arity: int, g):
    """Each trial's (full ordered sum, regrouped sum) for f[t] = g[trial, multiset of t]."""
    import numpy as np

    full, regrouped = _multiset_weights(r, arity)
    return g @ np.array(full, dtype=np.int64), g @ np.array(regrouped, dtype=np.int64)


def verify_index_decomposition(r: int, trials: int, seed: int) -> list[dict]:
    """Check the 2-, 3- and 4-index distinct-sum decompositions exactly.

    Runs `trials` seeded random symmetric integer functions per arity (one
    draw in [-50, 50] per multiset of indices, f[t] = g[sorted(t)]), the
    all-ones counting case, and the fourth-moment instance
    f(l,j,s,t) = (E[rho(l)rho(j)rho(s)rho(t)])^2, whose decomposed total is
    cross-checked against a direct two-permutation enumeration.  That
    enumeration reads the r! terms of the overlap law, which are charged to
    the budget before any draw (BudgetError from r = 9 on).

    The draws come from one Philox generator keyed by (seed, 0), so seed
    lies in [0, 2**64); each arity draws its trials in blocks of at most
    _TRIAL_BLOCK.  Both sums of a trial are integer dot products of g with
    the per-multiset weights of _multiset_weights, and the two fixed cases
    sum exact integers (over a common denominator for the fourth-moment f).
    """
    import numpy as np

    r, trials = check_count(r, 3, "r"), check_count(trials, 1, "trials")
    seed = check_count(seed, 0, "seed")
    if seed >= 2 ** 64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    direct = beta_fourth_moment_direct(r)  # the r! overlap terms, charged before any draw
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    out: list[dict] = []
    for arity in (2, 3, 4):
        multisets = len(_multiset_weights(r, arity)[0])
        failures = 0
        for start in range(0, trials, _TRIAL_BLOCK):
            g = rng.integers(-50, 51, size=(min(_TRIAL_BLOCK, trials - start), multisets))
            lhs, rhs = _trial_sums(r, arity, g)
            failures += int(np.count_nonzero(lhs != rhs))
        out.append(_entry(f"{arity}-index decomposition, {trials} random symmetric f",
                          r, None, "pass" if failures == 0 else "fail",
                          f"{trials - failures} exact", f"{trials} required"))

    full, regrouped = _multiset_weights(r, 4)
    out.append(_eq_entry("4-index decomposition, f = 1 (counting case)", r, None,
                         sum(full), sum(regrouped)))
    out.append(_eq_entry("f = 1 total = r^4", r, None, sum(full), r ** 4))

    beta = [mono_moment(r, m) ** 2 for m in combinations_with_replacement(range(r), 4)]
    denominator = math.lcm(*(b.denominator for b in beta))
    numerators = [b.numerator * (denominator // b.denominator) for b in beta]
    lhs = Fraction(sum(map(math.prod, zip(full, numerators))), denominator)
    rhs = Fraction(sum(map(math.prod, zip(regrouped, numerators))), denominator)
    out.append(_eq_entry("4-index decomposition, f = (E[rho^(4 indices)])^2", r, None, lhs, rhs))
    out.append(_eq_entry("E[beta^4] tuple sum = direct enumeration", r, None, lhs, direct))
    return out


def verify_identities(r_max: int, trials: int, seed: int) -> list[dict]:
    """verify_index_decomposition at every r in 3..r_max; an r past the
    budget is one skipped entry naming its cost."""
    out = []
    for r in range(3, check_count(r_max, 3, "r_max") + 1):
        try:
            out += verify_index_decomposition(r, trials, seed)
        except BudgetError as exc:
            out.append(_entry("index decompositions", r, None, "skip", "-", "-", str(exc)))
    return out
