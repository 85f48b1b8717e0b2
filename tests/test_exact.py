"""Exact enumeration oracle: moments, lemma suites, decompositions."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedman_bounds import (BudgetError, DomainError, RankMatrix, exact, exact_law,
                            friedman_statistic, montecarlo)
from friedman_bounds.exact import (all_pass, beta_fourth_moment_direct, centered_doubled,
                                   closed_s2s2, closed_s4, closed_s6,
                                   exact_f_distribution, joint_moments, mono_moment,
                                   point_mass_at_zero, rho_moment, verify_index_decomposition, verify_inequalities,
                                   verify_lemma_formulas)


def test_single_trial_examples():
    assert rho_moment(3, (2,)) == Fraction(2, 3)
    assert rho_moment(2, (4,)) == Fraction(1, 16)
    assert rho_moment(4, (1, 1)) == Fraction(-5, 12)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_marginal_enumeration_equals_full_permutation_sum(r):
    # the library enumerates ordered distinct value tuples; cross-check the
    # same moments against a sum over all r! permutations
    vals = centered_doubled(r)
    cases = [(2,), (4,), (1, 1), (3, 1), (2, 2)]
    if r >= 3:
        cases += [(2, 1, 1)]
    if r >= 4:
        cases += [(1, 1, 1, 1)]
    for powers in cases:
        total = Fraction(0)
        for perm in permutations(vals):
            term = 1
            for v, p in zip(perm, powers):
                term *= v ** p
            total += term
        brute = Fraction(total, math.factorial(r) * 2 ** sum(powers))
        assert rho_moment(r, powers) == brute


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_tuple_walk_is_priced_at_the_sum_over_every_trial_size(k, monkeypatch):
    # sum_{s=2..r} s!/(s-k)! in closed form, at every r_max up to 40
    for r in range(2, 41):
        terms = sum(math.perm(s, k) for s in range(2, r + 1))
        monkeypatch.setattr(exact_law, "BUDGET_CAP", terms)
        exact_law._check_walk("walk", r, k)  # exactly at the cap
        if terms:
            monkeypatch.setattr(exact_law, "BUDGET_CAP", terms - 1)
            with pytest.raises(BudgetError, match=f"walk needs {terms} enumerated"):
                exact_law._check_walk("walk", r, k)


def test_the_n_walk_is_charged_before_any_moment(monkeypatch):
    # 79 moment-product terms per (r, n) cell: at r_max = 3, n_max = 1265 fits
    monkeypatch.setattr(exact, "_s_moments", None)
    with pytest.raises(BudgetError, match=r"r=2\.\.3, n=1\.\.1266 needs 200028 enumerated"):
        verify_lemma_formulas(3, 1266)


def test_single_trial_domain(monkeypatch):
    # the single-trial suites charge their largest tuple enumeration to the
    # budget before they enumerate anything
    monkeypatch.setattr(exact, "rho_moment", None)
    with pytest.raises(BudgetError, match=r"r=2\.\.17 needs 205632 enumerated terms"):
        verify_lemma_formulas(r_max=17, n_max=1)
    with pytest.raises(BudgetError, match=r"r=2\.\.31 needs 215760 enumerated terms"):
        verify_inequalities(31)
    with pytest.raises(DomainError):
        rho_moment(2, (1, 1, 1))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: verify_lemma_formulas(1, 3), "need r_max >= 2, got 1",
                 id="<lambda>-r_max=1_0"),
    pytest.param(lambda: verify_lemma_formulas(4, 0), "need n_max >= 1, got 0",
                 id="<lambda>-n_max=0"),
    pytest.param(lambda: verify_inequalities(1), "need r_max >= 2, got 1",
                 id="<lambda>-r_max=1_1"),
    pytest.param(lambda: exact.verify_identities(2, 10, 0), "need r_max >= 3, got 2",
                 id="verify_identities-r_max=2"),
])
def test_vacuous_ranges_are_refused(call, match):
    # an empty range would return no entry (or no column-law cell), which
    # all_pass reads as green
    with pytest.raises(DomainError, match=match):
        call()


def test_joint_examples():
    jm = joint_moments(3, 2)
    assert jm["E[F]"] == 2
    assert jm["E[F^2]"] == 6
    assert jm["E[T^2]"] == 3
    assert joint_moments(4, 4)["E[S^4]"] == Fraction(1197, 800)


def test_joint_budget():
    # the joint moments cost the r! terms of the overlap law behind T_m, at
    # any n: r = 7 fits where the F_r law at n = 3 used to be refused, and
    # r = 9 does not
    assert joint_moments(7, 3)["E[F]"] == 6
    with pytest.raises(BudgetError, match="r=9 needs 362880 enumerated terms"):
        joint_moments(9, 2)
    with pytest.raises(BudgetError, match=r"r=5, n=100 needs \d+ enumerated terms, "
                                          r"which exceeds the cap 200000"):
        exact_f_distribution(100, 5)
    assert sum(p for _, p in exact_f_distribution(5, 5)) == 1  # 93,600 terms fit
    # the budget lives in exact_law alone: a copy in exact would not change it
    assert not hasattr(exact, "BUDGET_CAP")


@pytest.mark.parametrize("r", range(2, 9))
def test_exact_rows_are_the_one_table(r):
    # one table of one trial's rows: the exact side reads it doubled and
    # centered, row for row in permutations order, the sampler as it is, and
    # the overlap law streams the same permutations
    import numpy as np

    rows, table = exact_law._trial_rows("rows", r, 1), exact_law._permutation_table(r)
    assert np.array_equal(rows, 2 * table - (r + 1))
    assert rows.tolist() == [list(row) for row in permutations(centered_doubled(r))]
    assert montecarlo._permutation_table is exact_law._permutation_table
    assert exact._overlap_law(r) == tuple(((y,), c) for y, c in
                                          sorted(Counter((rows @ rows[0]).tolist()).items()))
    assert not hasattr(exact_law, "_rows")


def test_convolution_over_budget_builds_no_moves(monkeypatch):
    # r = 12 has 479001600 moves, far too many to hold: the budget must
    # refuse the first trial before any move is drawn
    def no_moves(*args):
        raise AssertionError("a move was built before the budget check")

    monkeypatch.setattr(exact_law, "_permutation_table", no_moves)
    with pytest.raises(BudgetError, match="r=12, n=1 needs 479001600 enumerated terms"):
        exact_f_distribution(1, 12)


def _reference_sum_counts(r, n):
    """The Counter loop the array engine replaced, as its reference: yields the
    sorted (state, count) law after each of n trials, charging the budget as
    exact_law._sum_counts does."""
    base = centered_doubled(r)
    law = (((0,) * r, 1),)
    charged = 0
    for _ in range(n):
        charged += len(law) * math.factorial(r)
        exact_law._check_terms(f"the convolution of {r} column sums at r={r}, n={n}", charged)
        nxt = Counter()
        for state, c in law:
            for move in permutations(base):
                nxt[tuple(sorted([s + v for s, v in zip(state, move)]))] += c
        law = tuple(sorted(nxt.items()))
        yield law


@lru_cache(maxsize=None)
def _admitted_laws(r):
    """The reference law at every n the budget admits for r, in order of n."""
    laws = []
    with pytest.raises(BudgetError):
        laws.extend(_reference_sum_counts(r, 10 ** 6))
    return tuple(laws)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_array_engine_matches_the_reference_at_every_cell(r):
    # states, their order and Python-int counts; every admitted n for r >= 3,
    # and at r = 2, whose 631 cells each rerun the engine from its first
    # trial, n <= 64 and the last admitted n
    laws = _admitted_laws(r)
    cells = range(1, len(laws) + 1) if r > 2 else [*range(1, 65), len(laws)]
    for n in cells:
        got = exact_law._sum_counts(r, n)
        assert got == laws[n - 1], (r, n)
        assert {type(x) for state, c in got for x in (*state, c)} == {int}


def test_array_engine_counts_stay_exact_past_int64():
    got = exact_law._sum_counts(3, 32)
    assert got == _admitted_laws(3)[31]
    assert max(c for _, c in got) > 2 ** 63 and sum(c for _, c in got) == 6 ** 32


def _engine_law(n, r):
    """The FLaw the sorted-state engine's counts give, the reference for r = 2."""
    law = exact_law._sum_counts(r, n)
    sq_counts = Counter()
    for state, c in law:
        sq_counts[sum(q * q for q in state)] += c
    keys, counts = zip(*sorted(sq_counts.items()))
    return exact_law.FLaw(keys, counts, math.factorial(r) ** n, len(law))


def test_r2_law_is_the_engine_record_read_off_one_binomial_row():
    # keys 2q^2, counts C(n, b) (twice off q = 0), total 2^n, n//2 + 1 states:
    # field for field the engine's record, at n <= 64 and the engine's last n
    for n in [*range(1, 65), 631]:
        law = exact_law.f_law(n, 2)
        assert law == _engine_law(n, 2), n
        assert {type(x) for x in (*law.keys, *law.counts, law.total, law.states)} == {int}


def test_r2_law_runs_to_the_budget_by_the_recurrence(monkeypatch):
    # (n + 1) ceil(n / 64) terms: n = 3570 is 199,976 and n = 3571 is 200,032;
    # the row never runs the engine nor forms a binomial coefficient per entry
    def no_call(*args):
        raise AssertionError("called at r = 2")

    monkeypatch.setattr(exact_law, "_sum_counts", no_call)
    monkeypatch.setattr(math, "comb", no_call)
    law = exact_law.f_law(3570, 2)
    assert (law.states, law.total, sum(law.counts)) == (1786, 2 ** 3570, 2 ** 3570)
    with pytest.raises(BudgetError, match=r"^the binomial row at r=2, n=3571 needs 200032 "
                                          r"enumerated terms"):
        exact_law.f_law(3571, 2)
    monkeypatch.setattr(exact_law, "accumulate", no_call)
    with pytest.raises(BudgetError, match=f"r=2, n={2 ** 63} needs"):
        exact_law.f_law(2 ** 63, 2)


def test_r2_point_mass_at_zero_is_the_central_binomial_term():
    assert point_mass_at_zero(3570, 2) == Fraction(math.comb(3570, 1785), 2 ** 3570)
    assert point_mass_at_zero(3569, 2) == 0


@pytest.mark.parametrize("n", [1000, 2001, 3570])
def test_r2_exact_kolmogorov_distance_within_the_bound(n):
    # sqrt(n) d_K is about 0.798 against the bound's 0.9496
    from friedman_bounds.bounds import bound_kolmogorov
    from friedman_bounds.montecarlo import distance

    est = distance("kolmogorov", n, 2, "exact")
    assert est.method == "exact-enumeration" and est.samples == n // 2 + 1
    assert 0 < est.value <= bound_kolmogorov(n, 2)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_array_engine_refuses_where_the_reference_does(r):
    # the first over-budget n: same message, so the same term count
    n = len(_admitted_laws(r)) + 1
    with pytest.raises(BudgetError) as want:
        list(_reference_sum_counts(r, n))
    with pytest.raises(BudgetError) as got:
        exact_law._sum_counts(r, n)
    assert str(got.value) == str(want.value)


def test_state_keys_fit_int64_at_every_admitted_cell(monkeypatch):
    # a cell's largest key is below radix^r, radix = 2n(r-1)+1; from r = 9 on
    # the first trial's r! moves alone are over budget
    for r in range(2, 9):
        n = len(_admitted_laws(r))
        assert n >= 1 and (2 * n * (r - 1) + 1) ** r <= 2 ** 63 - 1, r
    assert _admitted_laws(9) == ()
    # past int64 the engine refuses before it builds a move
    monkeypatch.setattr(exact_law, "BUDGET_CAP", 10 ** 12)
    monkeypatch.setattr(exact_law, "_permutation_table", None)
    with pytest.raises(BudgetError, match=r"r=14, n=1 need 27\^14, past int64"):
        exact_law._sum_counts(14, 1)


def test_beta_fourth_moment_budget():
    # one permutation is fixed, so the cost is r! terms: r = 8 fits, r = 9 does not
    assert beta_fourth_moment_direct(8) <= Fraction(79, 345600) * 8 ** 10
    with pytest.raises(BudgetError, match="r=9 needs 362880 enumerated terms"):
        beta_fourth_moment_direct(9)
    [entry] = [e for e in verify_inequalities(9) if "beta" in e["identity"] and e["r"] == 9]
    assert entry["status"] == "skip" and "362880" in entry["note"]


def test_joint_cell_over_budget_is_a_skip(monkeypatch):
    # under a cap of 600 the four-coordinate tuples of r = 2..6 (504) fit but
    # the r = 6 overlap law (720 terms) does not, so each r = 6 cell's T_m
    # identities are one skip entry naming the count, while the column-law
    # and F identities, which are charged only as the n walk (priced at one
    # term per cell here, so that it stays below the cap), still pass; the
    # law, cached here under the default cap, does not bypass it
    joint_moments(6, 1)
    monkeypatch.setattr(exact_law, "BUDGET_CAP", 600)
    monkeypatch.setattr(exact, "_CELL_PRODUCTS", 1)
    report = verify_lemma_formulas(r_max=6, n_max=3)
    assert all_pass(report)
    cells = [e for e in report if e["r"] == 6 and e["n"] is not None]
    skips = [e for e in cells if e["status"] == "skip"]
    assert [(e["identity"], e["n"]) for e in skips] == [("T_m identities", n) for n in (1, 2, 3)]
    assert all("r=6 needs 720 enumerated terms" in e["note"] for e in skips)
    assert not any(e["status"] == "skip" for e in report if e["r"] == 5)
    assert len(cells) == 3 * (7 + 3 + 1) and all(e["status"] == "pass" for e in cells
                                                  if e not in skips)
    assert [e["identity"] for e in cells if e["n"] == 2][-4:] == [
        "E[F] = r-1", "E[F^2] = r^2-1-2(r-1)/n", "Var(F) = 2(r-1)(1-1/n)", "T_m identities"]


def test_f_identities_run_past_the_overlap_budget():
    # at r = 9 the overlap law behind T_m needs 9! terms, past the cap, but
    # E[F], E[F^2] and Var(F) read the S moments alone and are checked
    report = [e for e in verify_lemma_formulas(r_max=9, n_max=2) if e["r"] == 9]
    assert all_pass(report)
    f = [(e["n"], e["lhs"]) for e in report if e["identity"].startswith(("E[F", "Var(F"))]
    assert f == [(1, "8"), (1, "64"), (1, "0"), (2, "8"), (2, "72"), (2, "8")]
    skips = [e for e in report if e["status"] == "skip"]
    assert [(e["identity"], e["n"]) for e in skips] == [("T_m identities", n) for n in (1, 2)]
    assert all("r=9 needs 362880 enumerated terms" in e["note"] for e in skips)


@pytest.mark.parametrize("r,n", [(3, 4), (4, 3), (5, 2)])
def test_f_law_vs_configuration_tally(r, n):
    # the sorted-state law of F_r against a tally over every configuration
    tally = {}
    for config in product(permutations(centered_doubled(r)), repeat=n):
        w = sum(sum(col) ** 2 for col in zip(*config))
        tally[w] = tally.get(w, 0) + 1
    total = math.factorial(r) ** n
    scale = Fraction(3, r * (r + 1) * n)
    assert exact_f_distribution(n, r) == [(scale * w, Fraction(c, total))
                                          for w, c in sorted(tally.items())]


@pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (3, 2)])
def test_cross_path_consistency(r, n):
    # rational enumeration vs the floating ranks-core path over the same space
    jm = joint_moments(r, n)
    total = 0.0
    count = 0
    for config in product(permutations(range(1, r + 1)), repeat=n):
        total += friedman_statistic(RankMatrix(list(config))).f_r
        count += 1
    assert count == math.factorial(r) ** n
    mean = total / count
    assert mean == pytest.approx(float(jm["E[F]"]), rel=1e-10)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_t_statistic_moments_vs_direct(r, n):
    # direct tally of T_1 = sum_l S_l rho_1(l) over the full configuration
    # space, on the doubled-integer scale: T = (c/4) sum_l Q_l D_1(l)
    jm = joint_moments(r, n)
    m1 = Fraction(0)
    m2 = Fraction(0)
    m4 = Fraction(0)
    count = 0
    for config in product(permutations(centered_doubled(r)), repeat=n):
        q = [sum(row[j] for row in config) for j in range(r)]
        x = sum(qj * d for qj, d in zip(q, config[0]))
        m1 += x
        m2 += x * x
        m4 += x ** 4
        count += 1
    scale = Fraction(3, 4 * r * (r + 1) * n)
    assert scale * (m1 / count) ** 2 == jm["E[T]^2"]
    assert scale * (m2 / count) == jm["E[T^2]"]
    assert scale * scale * (m4 / count) == jm["E[T^4]"]


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_pair_moments_vs_vector_distribution(r, n):
    # the pair moments against a tally over full configurations
    jm = joint_moments(r, n)
    t11 = Fraction(0)
    t22 = Fraction(0)
    count = 0
    for config in product(permutations(centered_doubled(r)), repeat=n):
        q0 = sum(row[0] for row in config)
        q1 = sum(row[1] for row in config)
        t11 += q0 * q1
        t22 += q0 * q0 * q1 * q1
        count += 1
    c2 = Fraction(12, r * (r + 1) * n)
    assert c2 / 4 * (t11 / count) == jm["E[S_j S_k]"]
    assert c2 * c2 / 16 * (t22 / count) == jm["E[S_j^2 S_k^2]"]


@pytest.mark.parametrize("r,n", [(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 9)]
                         + [(r, n) for r in (4, 5) for n in range(1, 6)]
                         + [(6, n) for n in range(1, 4)])
def test_f_law_moments_equal_joint_moments(r, n):
    # the law of F_r, wherever it fits the budget, stays the reference for
    # E[F], E[F^2] and Var(F) from the S-moments
    atoms = exact_f_distribution(n, r)
    mean = sum(a * p for a, p in atoms)
    second = sum(a * a * p for a, p in atoms)
    jm = joint_moments(r, n)
    assert (mean, second, second - mean ** 2) == (jm["E[F]"], jm["E[F^2]"], jm["Var(F)"])


def test_joint_moments_exact_at_a_million_trials():
    # a million trials cost about 2 log2(n) moment products: every closed form holds exactly
    n = 10 ** 6
    for r in range(2, 9):
        jm = joint_moments(r, n)
        assert jm["E[S^4]"] == closed_s4(r, n)
        assert jm["E[S^6]"] == closed_s6(r, n)
        assert jm["E[S_j^2 S_k^2]"] == closed_s2s2(r, n)
        assert jm["E[F]"] == r - 1
        assert jm["E[F^2]"] == r * r - 1 - Fraction(2 * (r - 1), n)
        assert jm["E[T]^2"] == Fraction(r * (r + 1) * (r - 1) ** 2, 12 * n)
        assert jm["E[T^2]"] == Fraction(r * (r * r - 1), 12) * (1 + Fraction(r - 2, n))
    # the lemmas suite at r <= 8 skips only the two r = 2 three-treatment entries
    report = verify_lemma_formulas(8, 40) + verify_inequalities(8)
    skips = [e for e in report if e["status"] == "skip"]
    assert all_pass(report)
    assert [(e["r"], e["note"]) for e in skips] == [(2, "needs three distinct treatments")] * 2


def test_point_mass_at_zero_closed_form():
    assert point_mass_at_zero(4, 2) == Fraction(6, 16)
    for k in (1, 2, 3):
        n = 2 * k
        assert point_mass_at_zero(n, 2) == Fraction(math.comb(n, k), 2 ** n)
    # no zero atom: Q_1 = -Q_2 is odd at r = 2 with odd n, and nonzero at (1, 3)
    for n, r in ((1, 2), (3, 2), (5, 2), (11, 2), (1, 3)):
        assert exact_f_distribution(n, r)[0][0] > 0
        assert point_mass_at_zero(n, r) == Fraction(0)


@pytest.mark.parametrize("n, r, message", [(0, 3, "need n >= 1, got 0"),
                                             (3, 0, "need r >= 2, got 0"),
                                             (3, 1, "need r >= 2, got 1")])
def test_exact_law_refuses_degenerate_cells(n, r, message):
    # once a ZeroDivisionError at n = 0 or r = 0, and P(F = 0) = 1 at r = 1
    with pytest.raises(DomainError, match=message):
        exact_f_distribution(n, r)
    with pytest.raises(DomainError, match=message):
        point_mass_at_zero(n, r)


def test_f_distribution_is_a_law():
    atoms = exact_f_distribution(3, 3)
    assert sum(p for _, p in atoms) == 1
    assert all(a >= 0 for a, _ in atoms)
    mean = sum(a * p for a, p in atoms)
    assert mean == 2  # E[F_3] = r - 1


def test_lemma_suite_green():
    report = verify_lemma_formulas(r_max=6, n_max=4)
    assert all_pass(report)
    assert any(e["status"] == "skip" for e in report)  # r=2 three-index entries


def test_inequality_suite_green():
    report = verify_inequalities(8)
    assert all_pass(report)
    # the corrected third-moment cap is tracked with a note
    noted = [e for e in report if "corrected cap" in e["identity"]]
    assert noted and all(e["status"] == "pass" for e in noted)


_CHAINS = ("chain: sum_l E[S^2 (rho(l)-rho(k))^4] <= 0.1455 r^5",
           "chain: sum_l E[S^4 (rho(l)-rho(k))^4] <= 0.6717 r^5",
           "chain: sum_l E[S^2 (rho(l)-rho(k))^6] <= 0.09116 r^7")


def _chain_lhs(report):
    return {(e["r"], e["identity"]): e["lhs"] for e in report if e["identity"] in _CHAINS}


def test_proof_chains_past_the_goldens():
    # each chain evaluated here from the paper's coefficients of
    # sum_l (rho(k)-rho(l))^m, in the suite's float order of operations
    lhs = _chain_lhs(verify_inequalities(12))
    for r in range(2, 13):
        m = {p: rho_moment(r, (p,)) for p in (4, 6, 8, 12)}
        a4 = r * (3 * r ** 4 - 10 * r ** 2 + 7) / 240
        a6 = r * (3 * r ** 6 - 21 * r ** 4 + 49 * r ** 2 - 31) / 1344
        b2 = r * (r ** 2 - 1) / 2
        chains = (a4 + b2 * math.sqrt(3 * m[4]) + r * math.sqrt(3 * m[8]),
                  3 * a4 + b2 * (225 * m[6]) ** (1 / 3) + r * (225 * m[12]) ** (1 / 3),
                  a6 + r * (3 * r ** 4 - 10 * r ** 2 + 7) / 16 * math.sqrt(3 * m[4])
                  + 5 * r * (r ** 2 - 1) / 4 * math.sqrt(3 * m[8]) + r * math.sqrt(3 * m[12]))
        assert [lhs[r, name] for name in _CHAINS] == [str(c) for c in chains]


def test_spread_expansion_has_one_owner(monkeypatch):
    # one coefficient off: the lemma suite's expansion entries fail, and the
    # first proof chain reads the same wrong coefficient
    name = "sum_l (rho(k)-rho(l))^4 expansion"
    before = _chain_lhs(verify_inequalities(4))
    expansion = exact._spread_expansion

    def off_by_one(r, m):
        coeffs = expansion(r, m)
        return (coeffs[0] + 1,) + coeffs[1:] if m == 4 else coeffs

    monkeypatch.setattr(exact, "_spread_expansion", off_by_one)
    report = verify_lemma_formulas(r_max=4, n_max=1)
    quartic = [e for e in report if e["identity"] == name]
    assert len(quartic) == 2 + 3 + 4 and all(e["status"] == "fail" for e in quartic)
    assert all(e["status"] == "pass" for e in report if "^6 expansion" in e["identity"])
    after = _chain_lhs(verify_inequalities(4))
    for r in (2, 3, 4):
        assert float(after[r, _CHAINS[0]]) == pytest.approx(float(before[r, _CHAINS[0]]) + 1)
        assert after[r, _CHAINS[2]] == before[r, _CHAINS[2]]


@pytest.mark.parametrize("key, lemma, caps", [
    ("E[c^2 rho^2]", "E[((r^2-1)/4 rho + rho^3)^2 rho^2] closed form",
     ("E[((r^2-1)/4 rho + rho^3)^2 rho^2] <= 0.00234 r^8",)),
    ("E[w^2 rho^4]", "E[((r^2-1)-12rho^2)^2 rho^4] closed form",
     ("E[((r^2-1)-12rho^2)^2 rho^4] <= 3r^8/140",)),
    ("E[s^2], k != l", "E[(6(rho-rho')^2/(r(r+1)) - 1)^2] closed form",
     ("normalized spread second moment closed form (k != l)",
      "normalized spread second moment <= 7/5 (k != l)")),
    ("sum_{k,l} d^8", "sum_{k,l} (rho(k)-rho(l))^8 closed form",
     ("sum_{k,l}(rho(k)-rho(l))^8 <= r^10/45",)),
])
def test_each_shared_quantity_has_one_definition(monkeypatch, key, lemma, caps):
    # the lemma and inequality suites read one record: a definition off by
    # one fails the lemma's closed form and is the lhs of every cap row too
    k, fn = exact._FORMULAS[key]
    monkeypatch.setitem(exact._FORMULAS, key, (k, lambda r, *x: fn(r, *x) + 1))
    exact._trial_quantity.cache_clear()
    try:
        report = verify_lemma_formulas(3, 1) + verify_inequalities(3)
    finally:
        exact._trial_quantity.cache_clear()
    rows = [e for e in report if e["identity"] in (lemma, *caps)]
    assert len(rows) == 2 * (1 + len(caps))  # at r = 2 and 3
    assert all(e["status"] == "fail" for e in rows if e["identity"] == lemma)
    assert all(len({e["lhs"] for e in rows if e["r"] == r}) == 1 for r in (2, 3))


def test_count_and_skip_entries():
    assert exact_law._count_entry("c", 3, 2, 0, 10, " rows") == {
        "identity": "c", "r": 3, "n": 2, "status": "pass", "lhs": "10 rows exact",
        "rhs": "10 required"}
    assert exact_law._count_entry("c", 3, None, 4, 10, note="x") == {
        "identity": "c", "r": 3, "n": None, "status": "fail", "lhs": "6 exact",
        "rhs": "10 required", "note": "x"}
    assert exact_law._skip_entry("s", 2, None, "why") == {
        "identity": "s", "r": 2, "n": None, "status": "skip", "lhs": "-", "rhs": "-",
        "note": "why"}


def test_every_budget_skip_comes_from_the_one_runner(monkeypatch):
    # exact_law._within_budget owns the budget skip: tagging its entry builder
    # tags every skip that names enumerated terms, in each of the four suites
    # that run cells past the budget
    from friedman_bounds import coupling

    skip_entry = exact_law._skip_entry
    monkeypatch.setattr(exact_law, "_skip_entry",
                        lambda identity, r, n, note: skip_entry(identity, r, n, note + " #owner"))
    for suite, r in ((lambda: exact.verify_identities(9, 1, 0), 9),
                     (lambda: coupling.verify_suite(7, 1), 7),
                     (lambda: [e for e in verify_lemma_formulas(9, 1) if e["n"] == 1], 9),
                     (lambda: verify_inequalities(9), 9)):
        skips = [e for e in suite() if "enumerated terms" in e.get("note", "")]
        assert skips and {e["r"] for e in skips} == {r}
        assert all(e["status"] == "skip" and e["note"].endswith(" #owner") for e in skips)


def test_quartic_weight_identity_r5():
    rr = Fraction(5)
    vals = [Fraction(v, 2) for v in centered_doubled(5)]
    lhs = Fraction(sum(((rr ** 2 - 1) - 12 * v ** 2) ** 2 * v ** 4 for v in vals), 5)
    assert lhs == 3744
    assert lhs <= Fraction(3, 140) * 5 ** 8  # 8370.5 cap


def test_normalized_spread_r2_is_zero():
    vals = [Fraction(v, 2) for v in centered_doubled(2)]
    diffs = [(a, b) for a in vals for b in vals if a != b]
    got = sum((Fraction(6, 2 * 3) * (a - b) ** 2 - 1) ** 2 for a, b in diffs) / len(diffs)
    assert got == 0  # (r-2) factor vanishes


def test_decomposition_suite():
    for r in (3, 4, 5):
        report = verify_index_decomposition(r, trials=30, seed=7)
        assert all_pass(report)
    counting = [e for e in verify_index_decomposition(4, trials=1, seed=0)
                if "counting" in e["identity"]]
    assert counting[0]["lhs"] == "256"


def _regrouped_sum(r, arity, f):
    """Sum over the index-tuple classes of weight times the class's sum of f."""
    return sum(w * sum(f[t] for t in tuples) for w, tuples in exact._index_classes(r, arity))


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_decomposition_trial_sums_match_the_gathered_f(r):
    # on the f that a trial's multiset draws g give every ordered tuple, the
    # full and the regrouped sums are the dot products of g with the weights
    import numpy as np
    g = np.random.Generator(np.random.Philox(key=r)).integers(-50, 51, size=(5, 126))
    for arity in (2, 3, 4):
        full, regrouped = exact._multiset_weights(r, arity)
        multisets = {m: i for i, m in enumerate(combinations_with_replacement(range(r), arity))}
        for row in g[:, :len(multisets)].tolist():
            f = {t: row[multisets[tuple(sorted(t))]] for t in product(range(r), repeat=arity)}
            assert sum(f.values()) == sum(map(math.prod, zip(row, full)))
            assert _regrouped_sum(r, arity, f) == sum(map(math.prod, zip(row, regrouped)))


def test_decomposition_does_not_depend_on_the_trial_block(monkeypatch):
    def reports():
        return [verify_index_decomposition(r, trials=30, seed=5) for r in (3, 4, 5, 6)]

    whole = reports()
    # 100 words: blocks of 16 down to 1 trial (6 to 126 multisets), most of
    # them leaving a partial block at 30 trials
    monkeypatch.setattr(exact, "_BLOCK_WORDS", 100)
    assert reports() == whole
    # with one regrouped weight off by one, a trial fails iff its draw for that
    # multiset is nonzero, so the failure counts read the draws themselves
    weights = exact._multiset_weights

    def off_by_one(r, arity):
        full, regrouped = weights(r, arity)
        return full, (regrouped[0] + 1,) + regrouped[1:]

    monkeypatch.setattr(exact, "_multiset_weights", off_by_one)
    blocked = reports()
    monkeypatch.setattr(exact, "_BLOCK_WORDS", 1 << 20)
    assert reports() == blocked
    counts = [e["lhs"] for rep in blocked for e in rep if "random symmetric f" in e["identity"]]
    assert all(e["status"] == "fail" for rep in blocked for e in rep
               if "random symmetric f" in e["identity"])
    assert counts != ["0 exact"] * len(counts)


def test_identities_walk_charges_trials_only_at_the_r_that_draw(monkeypatch):
    # at r_max = 8 every r draws: 6 x 33,334 trials is 200,004 terms; under a
    # cap of 7! = 5040, read from exact_law, only r = 3..7 draw, and r = 8 is
    # one term for its skip entry
    monkeypatch.setattr(exact, "verify_index_decomposition", None)  # no r runs
    with pytest.raises(BudgetError, match=r"r=3\.\.8 needs 200004 enumerated"):
        exact.verify_identities(8, 33334, 0)
    monkeypatch.setattr(exact_law, "BUDGET_CAP", 5040)
    with pytest.raises(BudgetError, match=r"r=3\.\.8 needs 5041 enumerated"):
        exact.verify_identities(8, 1008, 0)
    # one trial: one term per r walked, whether it draws or skips
    with pytest.raises(BudgetError, match=r"r=3\.\.5043 needs 5041 enumerated"):
        exact.verify_identities(5043, 1, 0)


def test_decomposition_is_charged_the_overlap_law_before_any_draw(monkeypatch):
    # r = 7 and 8 fit the budget; at r = 9 the 9! overlap terms do not
    assert all_pass(verify_index_decomposition(8, trials=3, seed=1))
    monkeypatch.setattr(exact, "_multiset_weights", None)
    for r, terms in ((9, 362880), (30, 265252859812191058636308480000000)):
        with pytest.raises(BudgetError, match=f"r={r} needs {terms} enumerated terms"):
            verify_index_decomposition(r, trials=1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_decomposition_seed_outside_the_philox_key_is_refused(seed):
    match = "need seed >= 0, got -1" if seed < 0 else "seed must lie in"
    with pytest.raises(DomainError, match=match):
        verify_index_decomposition(3, trials=1, seed=seed)


@pytest.mark.parametrize("r", [3, 4, 6])
def test_decomposition_tables_match_the_tuple_loops(r):
    # the index-tuple classes pick the same tuples as loops over index tuples do:
    # f is not symmetric here, so a wrong class tuple changes the regrouped sum
    import random
    rng = random.Random(r)
    idxs = range(r)
    for arity in (2, 3, 4):
        f = {t: rng.randint(-50, 50) for t in product(idxs, repeat=arity)}
        pairs = [(l, j) for l in idxs for j in idxs if j != l]
        if arity == 2:
            rhs = sum(f[(l, l)] for l in idxs) + sum(f[t] for t in pairs)
        elif arity == 3:
            rhs = (sum(f[(j, j, j)] for j in idxs) + 3 * sum(f[(l, j, j)] for l, j in pairs)
                   + sum(f[t] for t in permutations(idxs, 3)))
        else:
            rhs = (sum(f[(j, j, j, j)] for j in idxs) + 4 * sum(f[(l, j, j, j)] for l, j in pairs)
                   + 3 * sum(f[(l, l, s, s)] for l, s in pairs)
                   + 6 * sum(f[(l, j, s, s)] for l, j, s in permutations(idxs, 3))
                   + sum(f[t] for t in permutations(idxs, 4)))
        assert _regrouped_sum(r, arity, f) == rhs


def test_beta_fourth_moment():
    # r=4 value also appears inside the decomposition suite cross-check
    direct = beta_fourth_moment_direct(4)
    tuple_sum = sum(mono_moment(4, t) ** 2 for t in product(range(4), repeat=4))
    assert direct == tuple_sum == Fraction(385, 3)
    assert direct <= Fraction(79, 345600) * 4 ** 10


@given(r=st.integers(3, 5), seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_four_index_decomposition_property(r, seed):
    import random
    rng = random.Random(seed)
    raw = {t: rng.randint(-9, 9) for t in product(range(r), repeat=4)}
    f = {}
    for t in raw:
        f[t] = Fraction(sum(raw[tuple(t[i] for i in p)] for p in permutations(range(4))), 24)
    idxs = range(r)
    lhs = sum(f[t] for t in product(idxs, repeat=4))
    rhs = (sum(f[(j, j, j, j)] for j in idxs)
           + 4 * sum(f[(l, j, j, j)] for l in idxs for j in idxs if j != l)
           + 3 * sum(f[(l, l, s, s)] for l in idxs for s in idxs if s != l)
           + 6 * sum(f[(l, j, s, s)] for l, j, s in permutations(idxs, 3))
           + sum(f[t] for t in permutations(idxs, 4)))
    assert lhs == rhs
