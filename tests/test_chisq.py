"""Chi-square CDF and expectation numerics against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from friedman_bounds import ChiSquareLaw, DomainError, chisq_cdf, chisq_expectation, chisq_mean_moments
from friedman_bounds.chisq import chisq_cdf_array
from friedman_bounds.testfunctions import constant, cosine, identity, power


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


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_cdf_monotone_and_limits(p):
    law = ChiSquareLaw(p)
    zs = np.linspace(0.0, p + 40.0 * math.sqrt(2.0 * p), 400)
    vals = chisq_cdf_array(law, zs)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0
    assert vals[-1] > 1.0 - 1e-10


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
    assert chisq_expectation(ChiSquareLaw(5), identity(), 1e-10) == pytest.approx(5.0, abs=1e-9)
    assert chisq_expectation(ChiSquareLaw(4), cosine(1.0), 1e-10) == pytest.approx(-0.12, abs=1e-9)
    assert chisq_expectation(ChiSquareLaw(3), constant(1.0), 1e-10) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [1, 2, 4, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expectation_monomials(p, k):
    expected = 1.0
    for j in range(k):
        expected *= p + 2 * j
    got = chisq_expectation(ChiSquareLaw(p), power(k), 1e-9)
    assert got == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("p", [1, 3, 6])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_expectation_characteristic_function(p, t):
    got = chisq_expectation(ChiSquareLaw(p), cosine(t), 1e-10)
    expected = ((1.0 - 2.0j * t) ** (-p / 2.0)).real
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)
