"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from friedman_bounds import SmoothNorms, bound_kolmogorov, bound_sharp, bound_compact, chisq_mean_moments
from friedman_bounds.exact import (all_pass, joint_moments, point_mass_at_zero,
                                   verify_index_decomposition, verify_inequalities,
                                   verify_lemma_formulas)
from friedman_bounds.coupling import (verify_increment_moments, verify_regression,
                                      verify_triple_structure)
from friedman_bounds.montecarlo import RngContract, distance, estimate_kolmogorov
from friedman_bounds.stein import (SteinSolution, derivative_bound_check, standard_grid,
                                   stein_residual, verify_operator_link)
from friedman_bounds.testfunctions import cosine, identity, sine
from friedman_bounds.bounds import sharp_coefficients


RESULTS: list[tuple[int, str, str, float]] = []  # read by conftest's summary hook


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append((num, name, "FAIL", time.perf_counter() - start))
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    RESULTS.append((num, name, "PASS", time.perf_counter() - start))
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_01_single_trial_moment_suite():
    with criterion(1, "exact lemma suite, r=2..8, zero rational error"):
        start = time.perf_counter()
        report = verify_lemma_formulas(r_max=8, n_max=4)
        report += verify_inequalities(8)
        elapsed = time.perf_counter() - start
        failures = [e for e in report if e["status"] == "fail"]
        assert not failures, failures[:5]
        assert elapsed < 60.0, f"lemma suite took {elapsed:.1f}s"


def test_criterion_02_joint_moment_suite():
    with criterion(2, "joint moments: F and T formulas exact on the (r,n) grid"):
        start = time.perf_counter()
        grid = ([(2, n) for n in range(2, 13)] + [(3, n) for n in range(2, 9)]
                + [(4, n) for n in range(2, 6)])
        for r, n in grid:
            jm = joint_moments(r, n)
            assert jm["E[F]"] == r - 1, (r, n)
            assert jm["E[F^2]"] == Fraction(r * r - 1) - Fraction(2 * (r - 1), n), (r, n)
            assert jm["Var(F)"] == Fraction(2 * (r - 1)) * (1 - Fraction(1, n)), (r, n)
            expected_t2 = Fraction(r * (r * r - 1), 12) * (1 + Fraction(r - 2, n))
            assert jm["E[T^2]"] == expected_t2, (r, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"joint suite took {elapsed:.1f}s"


def test_criterion_03_coupling_suite():
    with criterion(3, "coupling: regression, increment covariance, vanishing patterns"):
        start = time.perf_counter()
        report = []
        for r in (2, 3, 4):
            for n in (1, 2, 3):
                report += verify_regression(r, n)
                report += verify_increment_moments(r, n)
                report += verify_triple_structure(r, n)
        assert all_pass(report)
        assert all(e["status"] == "pass" for e in report)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"coupling suite took {elapsed:.1f}s"


def test_criterion_04_second_moment_rate_exact():
    with criterion(4, "x^2 gap equals 2(r-1)/n exactly, n*gap = 4 at r=3"):
        r = 3
        _, second = chisq_mean_moments(r - 1)
        for n in (2, 4, 8):
            gap = abs(joint_moments(r, n)["E[F^2]"] - second)
            assert gap == Fraction(2 * (r - 1), n), n
            assert n * gap == 4


def test_criterion_05_compact_bound_domination():
    with criterion(5, "cos gaps dominated by the compact bound; small-t expansion"):
        r = 3
        for n in range(2, 9):
            for t in (0.25, 0.5, 1.0):
                gap = distance("smooth", n, r, "exact", h=cosine(t)).value
                cap = bound_compact(n, r, SmoothNorms(t, t * t, t ** 3))
                assert gap <= cap, (n, t, gap, cap)
            t = 0.01
            gap = distance("smooth", n, r, "exact", h=cosine(t)).value
            leading = t * t * (r - 1) / n
            assert abs(gap - leading) <= 0.25 * leading, (n, gap, leading)


def test_criterion_06_point_mass_reproduction():
    with criterion(6, "P(F_2 = 0) = C(2k,k) 2^(-2k) and the Stirling comparison"):
        for k in range(1, 7):
            n = 2 * k
            p = point_mass_at_zero(n, 2)
            assert p == Fraction(math.comb(2 * k, k), 4 ** k), k
            assert abs(float(p) - math.sqrt(2.0 / (math.pi * n))) <= 0.3 / n, k


def test_criterion_07_kolmogorov_suite():
    with criterion(7, "MC Kolmogorov estimates below bounds; r=2 n^(-1/2) scaling"):
        start = time.perf_counter()
        estimates = {}
        for r, n, seed in ((2, 100, 101), (3, 50, 102), (5, 200, 103), (2, 400, 104)):
            est = estimate_kolmogorov(n, r, 1_000_000, RngContract(seed=seed))
            estimates[(r, n)] = est
            if (r, n) != (2, 400):
                cap = min(1.0, bound_kolmogorov(n, r))
                assert est.value <= cap + est.half_width, (r, n, est.value, cap)
        ratio = estimates[(2, 400)].value / estimates[(2, 100)].value
        assert 0.35 <= ratio <= 0.75, ratio
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"kolmogorov suite took {elapsed:.1f}s"


def test_criterion_08_stein_suite():
    with criterion(8, "Stein residuals, f' = -2 equality case, derivative caps, operator link"):
        for p in range(1, 11):
            grid = standard_grid(p, points=200)
            for h in (cosine(1.0), sine(1.0), identity()):
                worst = float(stein_residual(p, h, grid).max())
                assert worst <= 1e-5, (p, h.label, worst)
        for p in (1, 4, 10):
            sol = SteinSolution(p, identity())
            dev = float(abs(sol.fprime(standard_grid(p, points=60)) + 2.0).max())
            assert dev <= 1e-8, (p, dev)
        for p, h, k in ((3, identity(), 1), (4, cosine(1.0), 2), (1, sine(1.0), 2),
                        (4, cosine(1.0), 3), (20, cosine(1.0), 3)):
            rep = derivative_bound_check(p, h, k)
            assert all(rep["holds"].values()), (p, h.label, k, rep)
        lem = verify_operator_link(3, 2, cosine(1.0))
        assert lem["operator_agreement"] <= 1e-5
        assert lem["stein_identity_residual"] <= 1e-5
        assert lem["status"] == "pass"


def test_criterion_09_index_decomposition():
    with criterion(9, "four-index decomposition exact for 100 seeded f, r=3..5"):
        for r in (3, 4, 5):
            report = verify_index_decomposition(r, trials=100, seed=2024 + r)
            assert all(e["status"] == "pass" for e in report), r
        counting = [e for e in verify_index_decomposition(4, trials=1, seed=0)
                    if "counting" in e["identity"]]
        assert counting[0]["lhs"] == "256" and counting[0]["rhs"] == "256"


def test_criterion_10_beta_spot_checks():
    with criterion(10, "beta1(146) = 292.45 +- 0.01; sharp < compact at n = 147"):
        assert abs(sharp_coefficients(146, 3).beta1 - 292.45) <= 0.01
        unit = SmoothNorms(1.0, 1.0, 1.0)
        for r in range(2, 11):
            assert bound_sharp(147, r, unit) < bound_compact(147, r, unit), r
