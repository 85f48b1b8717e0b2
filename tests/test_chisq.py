"""Chi-square CDF and expectation numerics against independent oracles."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc

from friedman_bounds import (ChiSquareLaw, DomainError, chisq, chisq_cdf, chisq_expectation,
                             chisq_mean_moments)
from friedman_bounds.chisq import _tail_mass_bound, chisq_cdf_array, chisq_tail
from friedman_bounds.errors import ConvergenceError
from friedman_bounds.testfunctions import constant, cosine, identity, power, smoothing_indicator


def mp_cdf(p, z):
    """50-digit regularized incomplete gamma oracle."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(p / 2, 0, z / 2, regularized=True))


def test_cdf_examples():
    assert chisq_cdf(ChiSquareLaw(2), 2 * math.log(2)) == pytest.approx(0.5, abs=1e-14)
    assert chisq_cdf(ChiSquareLaw(1), 0.0) == 0.0
    assert chisq_cdf(ChiSquareLaw(4), 1.0) == pytest.approx(mp_cdf(4, 1.0), abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 10, 15, 30])
def test_cdf_against_high_precision(p):
    for z in [1e-8, 0.01, 0.5, 1.0, 2.5, p, p + 5.0, p + 25.0, 3 * p + 60.0]:
        assert chisq_cdf(ChiSquareLaw(p), z) == pytest.approx(mp_cdf(p, z), abs=1e-12)


def test_cdf_domain():
    with pytest.raises(DomainError):
        chisq_cdf(ChiSquareLaw(2), -0.5)
    with pytest.raises(DomainError):
        chisq_cdf(ChiSquareLaw(2), float("nan"))
    with pytest.raises(DomainError):
        chisq_cdf_array(ChiSquareLaw(2), np.array([1.0, float("nan")]))
    with pytest.raises(DomainError):
        ChiSquareLaw(0)


DF_TAKERS = {"tail": lambda p: chisq_tail(p, 3.0), "cdf": lambda p: chisq_cdf(p, 3.0),
             "cdf_array": lambda p: chisq_cdf_array(p, np.array([0.5, 3.0])),
             "mean_moments": chisq_mean_moments}


@pytest.mark.parametrize("df", [2.5, 2.0, 2.9, "3", None, 0, -1, np.float64(3.0), True,
                                np.True_])
@pytest.mark.parametrize("call", DF_TAKERS.values(), ids=DF_TAKERS.keys())
def test_degrees_of_freedom_are_never_coerced(call, df):
    # int() would run 2.5 and 2.9 at 2 degrees of freedom and accept "3"; a bool
    # has __index__ but is no count, where True would run at 1 degree of freedom
    message = (f"need p >= 1, got {df}" if type(df) is int
               else f"p must be an integer, got {df!r}")
    with pytest.raises(DomainError, match=re.escape(message)):
        call(df)


@pytest.mark.parametrize("call", DF_TAKERS.values(), ids=DF_TAKERS.keys())
def test_degrees_of_freedom_take_any_integer_type(call):
    expected = np.asarray(call(3))
    for df in (np.int64(3), np.int32(3), ChiSquareLaw(3), ChiSquareLaw(np.int64(3))):
        assert np.array_equal(np.asarray(call(df)), expected)
    assert ChiSquareLaw(np.int64(3)) == ChiSquareLaw(3)
    assert type(ChiSquareLaw(np.int64(3)).p) is int


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_cdf_monotone_and_limits(p):
    law = ChiSquareLaw(p)
    zs = np.linspace(0.0, p + 40.0 * math.sqrt(2.0 * p), 400)
    vals = chisq_cdf_array(law, zs)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0
    assert vals[-1] > 1.0 - 1e-10


TAIL_ZS = np.concatenate(([1e-8, 1e-5, 1e-3, 0.05], np.geomspace(0.2, 1400.0, 36),
                          [1402.0, 1600.0, 3000.0]))


@pytest.mark.parametrize("p", [*range(1, 31), 49, 99, 199])
def test_tail_against_high_precision(p):
    # relative accuracy deep in the tail: the closed form against the 50-digit
    # Q(p/2, z/2), out to z = 1400 and past z = 1400, where the terms are taken
    # in log space (Q > 1e-300 there at the larger p only)
    got = chisq_tail(ChiSquareLaw(p), TAIL_ZS)
    with mpmath.workdps(50):
        for z, q in zip(TAIL_ZS, got):
            ref = mpmath.gammainc(mpmath.mpf(p) / 2, mpmath.mpf(z) / 2, mpmath.inf,
                                  regularized=True)
            if ref > mpmath.mpf("1e-300"):
                assert abs(q - ref) <= 1e-12 * ref, (p, z, q, float(ref))


@pytest.mark.parametrize("p", [1, 2, 3, 8, 29, 30])
def test_tail_endpoints_exact_and_quiet(p):
    law = ChiSquareLaw(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = chisq_tail(law, np.array([0.0, 1e300, math.inf]))
        assert tail.tolist() == [1.0, 0.0, 0.0]
        assert chisq_tail(law, math.inf) == 0.0 and chisq_tail(law, 0.0) == 1.0
        assert chisq_cdf(law, math.inf) == 1.0 and chisq_cdf(law, 1e300) == 1.0
        assert chisq_cdf_array(law, np.array([math.inf]))[0] == 1.0
    with pytest.raises(DomainError):
        chisq_tail(law, np.array([2.0, -1e-300]))


def test_cdf_array_matches_scalar():
    zs = np.array([0.0, 0.3, 1.7, 9.4, 40.0])
    vals = chisq_cdf_array(ChiSquareLaw(3), zs)
    for z, v in zip(zs, vals):
        assert v == pytest.approx(chisq_cdf(ChiSquareLaw(3), float(z)), abs=1e-14)


def test_mean_moments():
    assert chisq_mean_moments(ChiSquareLaw(1)) == (1, 3)
    assert chisq_mean_moments(ChiSquareLaw(3)) == (3, 15)  # = 4^2 - 1 at r = 4
    assert chisq_mean_moments(ChiSquareLaw(9)) == (9, 99)


def test_expectation_examples():
    assert chisq_expectation(ChiSquareLaw(5), identity()) == pytest.approx(5.0, abs=1e-9)
    assert chisq_expectation(ChiSquareLaw(4), cosine(1.0)) == pytest.approx(-0.12, abs=1e-9)
    assert chisq_expectation(ChiSquareLaw(3), constant(1.0)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [1, 2, 4, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expectation_monomials(p, k):
    expected = 1.0
    for j in range(k):
        expected *= p + 2 * j
    got = chisq_expectation(ChiSquareLaw(p), power(k))
    assert got == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("p", [1, 3, 6])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_expectation_characteristic_function(p, t):
    got = chisq_expectation(ChiSquareLaw(p), cosine(t))
    expected = ((1.0 - 2.0j * t) ** (-p / 2.0)).real
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def mp_smoothing_expectation(p, alpha, z):
    """E[h(Y_p)] for the smoothed indicator, exactly per piece: on each piece h
    is a cubic in y, and E[Y^k 1{a < Y <= b}] = 2^k Gamma(p/2+k)/Gamma(p/2)
    (P(p/2+k, b/2) - P(p/2+k, a/2))."""
    with mpmath.workdps(30):
        a0, alpha, z = mpmath.mpf(p) / 2, mpmath.mpf(alpha), mpmath.mpf(z)

        def moment(k, lo, hi):
            lo, hi = max(lo, 0), max(hi, 0)
            return (2 ** k * mpmath.gamma(a0 + k) / mpmath.gamma(a0)
                    * mpmath.gammainc(a0 + k, lo / 2, hi / 2, regularized=True))

        # core(c) on [-1, -1/2], [-1/2, 1/2], [1/2, 1] as coefficients of 1, c, c^2, c^3
        pieces = [(-1, -0.5, [mpmath.mpf(1) / 3, -2, -2, -mpmath.mpf(2) / 3]),
                  (-0.5, 0.5, [mpmath.mpf(1) / 2, -1, 0, mpmath.mpf(2) / 3]),
                  (0.5, 1, [mpmath.mpf(2) / 3, -2, 2, -mpmath.mpf(2) / 3])]
        # c = b0 + b1 y
        b1 = 2 / alpha
        b0 = 1 - b1 * z
        total = moment(0, -1, z - alpha)  # h = 1 below the ramp
        for c_lo, c_hi, coeffs in pieces:
            lo, hi = z + alpha * (c_lo - 1) / 2, z + alpha * (c_hi - 1) / 2
            for j, cj in enumerate(coeffs):
                for k in range(j + 1):
                    total += (cj * mpmath.binomial(j, k) * b0 ** (j - k) * b1 ** k
                              * moment(k, lo, hi))
        return float(total)


@pytest.mark.parametrize("p", [1, 3, 6])
@pytest.mark.parametrize("alpha,z", [(0.5, 2.0), (1.0, 4.0), (2.0, 1.0), (0.1, 7.3),
                                     (0.05, 0.5), (3.0, 2.0)])
def test_expectation_smoothing_indicator_exact(p, alpha, z):
    # the knots are panel breakpoints, so each piece is a polynomial times the
    # density on its own panels and the rule is accurate far below its tolerance
    got = chisq_expectation(ChiSquareLaw(p), smoothing_indicator(alpha, z))
    assert got == pytest.approx(mp_smoothing_expectation(p, alpha, z), abs=1e-12)


def test_expectation_square_as_power():
    assert chisq_expectation(ChiSquareLaw(3), power(2)) == pytest.approx(15.0, rel=1e-10)


@pytest.mark.parametrize("h", [np.square, lambda x: x ** 8, math.cos, 1.0, None])
def test_expectation_refuses_anything_but_a_test_function(h):
    # a plain callable declares no growth, so no truncation point is safe for it:
    # x^8 truncated as if it were bounded is off by 77 at p = 1
    with pytest.raises(DomainError, match="needs a TestFunction"):
        chisq_expectation(ChiSquareLaw(1), h)


def test_expectation_constant_declares_its_growth():
    # |c| is the growth coefficient, so the discarded tail of a large constant stays
    # below the tolerance: within it and rounding of c, where a coefficient of 1 is
    # 4e-8 off at c = 3e6
    for c in (-5.0, 0.0, 3e6):
        slack = 1e-10 + 8.0 * np.finfo(float).eps * abs(c)
        assert chisq_expectation(ChiSquareLaw(2), constant(c)) == pytest.approx(c, abs=slack)


def test_panel_rule_refines_until_two_counts_agree(monkeypatch):
    # E[cos(t Y_p)] agrees at the first doubling even at t = 1000, because the
    # starting count follows |h'|; a slope of 0 for cos(200 u) starts at one
    # panel, so the rule doubles until each row matches sin(200 hi)/200
    counts = []
    rule = chisq._panel_rule

    def counted(g, hi, knots, panels, cols):
        counts.append(panels)
        return rule(g, hi, knots, panels, cols)

    monkeypatch.setattr(chisq, "_panel_rule", counted)
    hi = np.array([1.0, 2.0])
    got = chisq._converged_rule(lambda u: np.cos(200.0 * u), hi, np.empty((2, 0)), 1.0, 0.0,
                                1e-12, str)
    assert counts[:4] == [1, 2, 4, 8] and len(counts) > 4
    assert got == pytest.approx(np.sin(200.0 * hi) / 200.0, rel=0, abs=1e-13)


def test_expectation_frequency_past_the_panel_cap_raises():
    with pytest.raises(ConvergenceError, match="E\\[h\\(Y_3\\)\\].*panels give"):
        chisq_expectation(ChiSquareLaw(3), cosine(1e4))


@pytest.mark.parametrize("p", range(1, 31))
def test_tail_mass_bound_is_an_upper_bound(p):
    # the truncation tails use the closed-form chisq_tail, not gammaincc;
    # the exact tail is E[(1 + Y^d) 1{Y > T}] = Q(a, T/2) + 2^d Gamma(a+d)/Gamma(a) Q(a+d, T/2),
    # which at d = 0 is the contract's Q + Q, not Q alone
    a = p / 2.0
    big_t = 2.0 * np.geomspace(1e-3, 2000.0, 400)
    for d in range(5):
        exact = gammaincc(a, big_t / 2.0) + (
            math.exp(d * math.log(2.0) + math.lgamma(a + d) - math.lgamma(a))
            * gammaincc(a + d, big_t / 2.0))
        bound = _tail_mass_bound(p, big_t, d, 1.0)
        assert np.all(bound >= exact * (1.0 - 1e-12)), (p, d)
        assert _tail_mass_bound(p, float(big_t[200]), d, 1.0) == bound[200]
