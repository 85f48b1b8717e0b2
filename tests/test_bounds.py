"""Every explicit bound, its examples, and the grid properties."""

import math
from decimal import Decimal, getcontext

import pytest

from friedman_bounds import (DomainError, InfiniteNormError, SmoothNorms, bound_kolmogorov,
                             bound_r2_special, bound_report, bound_sharp, bound_compact,
                             bound_trivial, sharp_coefficients)

UNIT = SmoothNorms(1.0, 1.0, 1.0)


def test_compact_bound_examples():
    assert bound_compact(100, 3, UNIT) == pytest.approx(183.8193, abs=1e-10)
    assert bound_compact(5, 4, SmoothNorms(0.0, 0.0, 0.0)) == 0.0
    assert bound_compact(1, 2, UNIT) == pytest.approx(16498.0, abs=1e-9)


def test_compact_bound_errors():
    with pytest.raises(InfiniteNormError):
        bound_compact(10, 3, SmoothNorms(1.0, math.inf, 1.0))
    with pytest.raises(DomainError):
        bound_compact(0, 3, UNIT)
    with pytest.raises(DomainError):
        bound_compact(10, 1, UNIT)


@pytest.mark.parametrize("n, r, name", [(10 ** 309, 3, "n"), (5, 10 ** 155, "r")],
                         ids=["n=1e309", "r=1e155"])
def test_counts_past_the_float_range_are_refused(n, r, name):
    # the sharp coefficients form n^2 and r^2 as floats, the other bounds n or r
    with pytest.raises(DomainError, match=f"need {name} < 2\\*\\*511"):
        bound_report(n, r)


def test_each_bound_refuses_a_count_it_cannot_hold_as_a_float():
    for bound in (lambda: bound_kolmogorov(10 ** 309, 3), lambda: bound_kolmogorov(5, 10 ** 309),
                  lambda: bound_trivial(10 ** 309, 1.0), lambda: bound_compact(5, 10 ** 309, UNIT),
                  lambda: bound_r2_special(10 ** 309, "wasserstein")):
        with pytest.raises(DomainError, match="< 2\\*\\*1023 to evaluate the bounds"):
            bound()


@pytest.mark.parametrize("name, bound", [
    ("compact", lambda: bound_compact(1, 10 ** 154, UNIT)),
    ("sharp", lambda: bound_sharp(2, 2 ** 510, UNIT)),
    ("trivial", lambda: bound_trivial(3, 1e308)),
    ("r = 2 smooth", lambda: bound_r2_special(1, "smooth", SmoothNorms(1e308, 1e308, 1.0))),
    ("compact", lambda: bound_report(1, 10 ** 154)),
], ids=["compact", "sharp", "trivial", "r2-smooth", "report"])
def test_a_bound_past_the_float_range_is_refused(name, bound):
    # each count and norm is a float, but the bound they form is not
    with pytest.raises(DomainError, match=f"the {name} bound at these n, r and norms is past"):
        bound()


def test_sharp_coefficients_examples():
    assert sharp_coefficients(146, 3).beta1 == pytest.approx(292.45, abs=0.01)
    assert sharp_coefficients(2, 2).a_n == pytest.approx(2.85, abs=1e-12)
    assert sharp_coefficients(2, 2).c_t == pytest.approx(7 / 48 + 4 / 144 + 0.1, abs=1e-12)
    with pytest.raises(DomainError):
        sharp_coefficients(1, 3)


def test_sharp_duplicate_path():
    # independent re-evaluation of the beta formulas at n=1000, r=3
    n, r = 1000, 3
    a = 3 + 9 / (5 * n) - 21 / (5 * n ** 2)
    b = (36 * math.sqrt(a) + 11.98 + 134.28 * (7 / 48 + 1 / (5 * n)) ** 0.5
         + 18 * 5 ** 0.5 * n ** -0.5 + 200 / n)
    tail = b + 31 * r / n
    expected = (r / n) * ((42.33 + 144.112 * math.sqrt(a))
                          + (78.89 + 216.204 * math.sqrt(a) + 8 * math.sqrt(a) * tail)
                          + (783.15 + 4158.75 / n + 3572.39 / n ** 2 + 12 * math.sqrt(a) * tail))
    assert bound_sharp(n, r, UNIT) == pytest.approx(expected, rel=1e-10)


def test_trivial_examples():
    assert bound_trivial(2, 1.0) == 2.0
    assert bound_trivial(5, 0.5) == 4.0
    assert bound_trivial(3, 0.0) == 0.0


def test_r2_special_examples():
    assert bound_r2_special(100, "wasserstein") == pytest.approx(9.18, abs=1e-12)
    assert bound_r2_special(100, "smooth", UNIT) == pytest.approx(1.3886, abs=1e-12)
    n = 10 ** 9
    assert n * bound_r2_special(n, "smooth", UNIT) == pytest.approx(138.0, rel=1e-6)
    with pytest.raises(InfiniteNormError):
        bound_r2_special(10, "smooth", SmoothNorms(math.inf, 1.0, 1.0))


def test_r2_special_refuses_a_smooth_call_without_norms_and_an_unknown_variant():
    with pytest.raises(DomainError, match="^smooth variant needs norms$"):
        bound_r2_special(10, "smooth")
    with pytest.raises(DomainError, match="^unknown variant 'kolmogorov'$"):
        bound_r2_special(10, "kolmogorov", UNIT)


def test_kolmogorov_examples():
    assert bound_kolmogorov(10000, 2) == pytest.approx(0.009496, abs=1e-15)
    assert bound_kolmogorov(1, 3) == pytest.approx(204.0, abs=1e-12)
    assert min(1.0, bound_kolmogorov(1, 3)) == 1.0
    # independent high-precision arithmetic for the r >= 4 branch
    getcontext().prec = 40
    n, r = Decimal(10) ** 8, Decimal(4)
    q = Decimal(10) ** 2  # n^(1/4)
    raw = (12 * Decimal(4) ** Decimal("0.125") * (1 + 1 / r) / q
           + 41 / (Decimal(4) ** Decimal("0.25") * q ** 2)
           + 28 * Decimal(4) ** Decimal("0.375") / q ** 3
           + 3 * Decimal(4) ** Decimal("0.125") / q ** 5
           + 8 * Decimal(4) ** Decimal("0.75") / q ** 6)
    assert bound_kolmogorov(10 ** 8, 4) == pytest.approx(float(raw), rel=1e-12)
    assert round(bound_kolmogorov(10 ** 8, 4), 4) == 0.1813


@pytest.mark.parametrize("r", range(2, 21, 3))
def test_monotone_in_n(r):
    for fn in (lambda n: bound_compact(n, r, UNIT),
               lambda n: bound_kolmogorov(n, r),
               lambda n: bound_sharp(max(n, 2), r, UNIT)):
        prev = None
        for n in [2, 3, 5, 10, 30, 100, 400, 1000]:
            val = fn(n)
            if prev is not None:
                assert val <= prev + 1e-12
            prev = val


def test_rate_in_n():
    # n * bound is constant up to the explicit 1/n corrections: the dyadic
    # difference 2n*bound(2n) - n*bound(n) shrinks like 538 r^2 / n
    def dyadic_diff(n, r):
        return abs(2 * n * bound_compact(2 * n, r, UNIT) - n * bound_compact(n, r, UNIT))

    for r in (2, 5, 11):
        assert dyadic_diff(10 ** 6, r) <= 1e-2 * r * r
        assert dyadic_diff(10 ** 6, r) < dyadic_diff(10 ** 3, r)


def test_crossover():
    for r in range(2, 11):
        assert bound_sharp(147, r, UNIT) < bound_compact(147, r, UNIT)
        crossover = min(n for n in range(2, 148)
                        if bound_sharp(n, r, UNIT) < bound_compact(n, r, UNIT))
        assert crossover <= 147
    assert sharp_coefficients(146, 2).beta1 >= 292.0


def test_kolmogorov_vanishes_along_growing_r():
    def at(n):
        return bound_kolmogorov(n, max(2, math.floor(n ** (2 / 3))))
    assert at(10 ** 6) < at(10 ** 3)


def test_a_n_limit_and_eventual_monotonicity():
    # A_n peaks near n = 4.7 and then decreases to 3: not monotone from n = 2
    values = [sharp_coefficients(n, 3).a_n for n in range(2, 1001)]
    assert values[0] == pytest.approx(2.85)
    tail = values[3:]
    assert all(x >= y - 1e-15 for x, y in zip(tail, tail[1:]))
    assert values[-1] == pytest.approx(3.0, abs=2e-3)


def test_report_structure():
    rep = bound_report(100, 3, UNIT)
    vals = [rep.compact, rep.sharp, rep.trivial, rep.kolmogorov_raw, rep.kolmogorov]
    assert all(v is not None and v >= 0 for v in vals)
    assert rep.selected == min(rep.compact, rep.sharp, rep.trivial)
    assert rep.kolmogorov <= 1.0

    rep = bound_report(1, 5, UNIT)
    assert rep.sharp is None and rep.coefficients is None
    assert rep.compact is not None and rep.trivial is not None

    rep = bound_report(100, 2, UNIT)
    assert rep.wasserstein_r2 is not None and rep.smooth_r2 is not None
    for other in (rep.compact, rep.sharp, rep.trivial, rep.smooth_r2):
        assert rep.selected <= other

    # only h1 finite: the trivial bound is still reported
    rep = bound_report(10, 3, SmoothNorms(1.0, math.inf, math.inf))
    assert rep.compact is None and rep.sharp is None
    assert rep.selected == rep.trivial == 4.0
    assert "C(r)" in rep.jensen


# compact and sharp need all three norms, trivial h1, the r = 2 smooth bound h1 and h2
_OMITTED = {("h1", 2): {"compact", "sharp", "trivial", "smooth_r2"},
            ("h2", 2): {"compact", "sharp", "smooth_r2"},
            ("h3", 2): {"compact", "sharp"},
            ("h1", 3): {"compact", "sharp", "trivial", "smooth_r2"},
            ("h2", 3): {"compact", "sharp", "smooth_r2"},
            ("h3", 3): {"compact", "sharp", "smooth_r2"}}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("infinite", ["h1", "h2", "h3"])
def test_report_omits_each_bound_that_needs_an_infinite_norm(infinite, r, n):
    norms = SmoothNorms(**{"h1": 0.5, "h2": 0.5, "h3": 0.5, infinite: math.inf})
    rep = bound_report(n, r, norms)
    smooth = ("compact", "sharp", "trivial", "smooth_r2")
    assert {name for name in smooth if getattr(rep, name) is None} == _OMITTED[infinite, r]
    reported = [getattr(rep, name) for name in smooth if getattr(rep, name) is not None]
    assert rep.selected == (min(reported) if reported else None)
    assert (rep.coefficients is None) == (n == 1)
    if rep.trivial is not None:
        assert rep.trivial == bound_trivial(r, 0.5)
    if rep.smooth_r2 is not None:
        assert rep.smooth_r2 == bound_r2_special(n, "smooth", norms)
