"""Exchangeable-pair coupling: regression, increments, patterns, exchangeability."""

import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from friedman_bounds import DomainError, coupling, exact_law
from friedman_bounds.coupling import (verify_increment_moments, verify_regression,
                                      verify_triple_structure)
from friedman_bounds.exact import all_pass, centered_doubled


def _reference_swap_pass(rows):
    """The swap pass as one Python loop per row draw, the array pass's reference."""
    r = len(rows[0])
    range_r = range(r)
    products = [[0] * r for _ in range_r]
    regression_bad = support_bad = quartic_bad = cubic_bad = 0
    for row in rows:
        summed = [0] * r
        for k in range_r:
            for l in range_r:
                swapped = list(row)
                swapped[k], swapped[l] = row[l], row[k]
                dq = [s - x for s, x in zip(swapped, row)]
                support = [j for j in range_r if dq[j]]
                for j in support:
                    summed[j] += dq[j]
                    for u in support:
                        products[j][u] += dq[j] * dq[u]
                d = row[l] - row[k]
                if dq[k] != d or dq[l] != -d or any(
                        dq[j] for j in range_r if j != k and j != l):
                    support_bad += 1
                a = dq[k]
                b = dq[l]
                d2 = d * d
                d3 = d2 * d
                d4 = d2 * d2
                # dz: the first coordinate outside {K, L}, 0 when there is none
                dz = next((dq[j] for j in range_r if j != k and j != l), 0)
                if (a ** 4 != d4 or b ** 4 != d4 or a * a * b * b != d4
                        or a ** 3 * b != -d4 or a * b ** 3 != -d4
                        or a ** 3 * dz != 0 or a * b * dz != 0):
                    quartic_bad += 1
                if (a ** 3 != d3 or b ** 3 != -d3
                        or a * a * b != -d3 or a * b * b != d3):
                    cubic_bad += 1
        if any(summed[j] != -2 * r * row[j] for j in range_r):
            regression_bad += 1
    return coupling._SwapTally(len(rows), len(rows) * r * r, regression_bad,
                               tuple(map(tuple, products)), support_bad, quartic_bad, cubic_bad)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("values", ["centered", "uncentered", "random"])
def test_swap_pass_matches_the_reference_loop(r, values):
    # "uncentered" rows, like the shifted table of the monkeypatched tests
    # below, fail the regression; "random" rows are arbitrary integers, not permutations
    if values == "centered":
        rows = tuple(permutations(centered_doubled(r)))
    elif values == "uncentered":
        rows = tuple(permutations(range(1, r + 1)))
    else:
        rng = random.Random(r)
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(40))
    got, want = coupling._swap_pass(rows), _reference_swap_pass(rows)
    assert got._fields == want._fields
    for field, a, b in zip(want._fields, got, want):
        assert a == b and type(a) is type(b), field


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_regression_exact(r, n):
    assert all_pass(verify_regression(r, n))


@pytest.mark.parametrize("r,n", [(2, 1), (3, 2), (4, 2), (4, 4), (5, 3), (5, 4)])
def test_increment_moments_exact(r, n):
    report = verify_increment_moments(r, n)
    assert all_pass(report)
    diag = next(e for e in report if "S'_j-S_j)^2" in e["identity"])
    assert Fraction(diag["lhs"]) == Fraction(4 * (r - 1), r * r * n)
    off = next(e for e in report if "j != u" in e["identity"])
    assert Fraction(off["lhs"]) == Fraction(-4, r * r * n)


def test_increment_example_values():
    # r=2, n=1 diagonal target 1; r=3, n=2 off-diagonal target -2/9
    rep = verify_increment_moments(2, 1)
    assert Fraction(next(e for e in rep if "^2]" in e["identity"])["lhs"]) == 1
    rep = verify_increment_moments(3, 2)
    assert Fraction(next(e for e in rep if "j != u" in e["identity"])["lhs"]) == Fraction(-2, 9)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_triple_structure_exact(r, n):
    assert all_pass(verify_triple_structure(r, n))


def _uncentered_table(monkeypatch):
    """Shift the one table to ranks 2..r+1, so that its doubled rows are not centered."""
    table = exact_law._permutation_table
    monkeypatch.setattr(exact_law, "_permutation_table", lambda r: table(r) + 1)


def test_regression_rejects_uncentered_rows(monkeypatch):
    # the shifted rows do not sum to 0, so sum_{K,L} dQ(row) = 2 sum(row) - 2r row != -2r row
    _uncentered_table(monkeypatch)
    monkeypatch.setattr(coupling, "_tallies", {})
    for r, n in [(2, 1), (3, 2), (4, 3)]:
        [entry] = verify_regression(r, n)
        assert entry["status"] == "fail"
        assert entry["lhs"] == "0 rows exact"


def test_regression_rejects_uncentered_rows_after_warm_cache(monkeypatch):
    # the swap pass is cached on r, not on the rows: a warm r = 3 entry keeps
    # its tally when the table changes, and an emptied cache reads the new rows
    assert all_pass(verify_regression(3, 1))
    _uncentered_table(monkeypatch)
    assert all_pass(verify_regression(3, 1))
    monkeypatch.setattr(coupling, "_tallies", {})
    [entry] = verify_regression(3, 1)
    assert entry["status"] == "fail"
    assert entry["lhs"] == "0 rows exact"


def test_verifier_cost_does_not_grow_with_n():
    start = time.perf_counter()
    report = verify_triple_structure(5, 4)
    assert time.perf_counter() - start < 1.0
    assert all_pass(report)
    assert report[0]["rhs"] == f"{120 * 25} required"


def test_exchangeability_histogram():
    # the joint law of (F, F') over all configurations and draws is symmetric
    for r, n in [(2, 2), (3, 1), (3, 2)]:
        rows = list(permutations(centered_doubled(r)))
        hist = {}
        for config in product(rows, repeat=n):
            q = [sum(row[j] for row in config) for j in range(r)]
            w = sum(x * x for x in q)
            for m in range(n):
                row = config[m]
                for k in range(r):
                    for l in range(r):
                        d = row[l] - row[k]
                        w2 = w + (q[k] + d) ** 2 - q[k] ** 2 + (q[l] - d) ** 2 - q[l] ** 2
                        hist[(w, w2)] = hist.get((w, w2), 0) + 1
        assert all(hist[key] == hist.get((key[1], key[0]), 0) for key in hist)


@pytest.mark.parametrize("r_max, n_max, match", [
    pytest.param(3, 0, "need n_max >= 1, got 0", id="3-0-n_max=0"),
    pytest.param(1, 3, "need r_max >= 2, got 1", id="1-3-r_max=1"),
])
def test_suite_refuses_vacuous_ranges(r_max, n_max, match):
    # an empty range would return no entry, which all_pass reads as green
    with pytest.raises(DomainError, match=match):
        coupling.verify_suite(r_max, n_max)
