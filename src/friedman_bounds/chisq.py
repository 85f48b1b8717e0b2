"""Chi-square distribution numerics.

CDF values are the regularized lower incomplete gamma function P(a, x)
from scipy.special.gammainc, and tail masses its complement gammaincc,
which stays accurate where 1 - P would cancel.  Expectations of test
functions are adaptive quadratures against the density on a finite window
whose truncated tail contributes less than half the requested tolerance;
the p = 1 density singularity at the origin is removed analytically by the
substitution t = u**2.  The quadrature loads scipy.integrate on first use,
not at import: it pulls in scipy.optimize and scipy.linalg, several tenths of
a second that a CDF or p-value caller never needs.  No chi-square sampling
and no quantile function live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import ConvergenceError, DomainError

__all__ = [
    "ChiSquareLaw",
    "chisq_cdf",
    "chisq_cdf_array",
    "chisq_mean_moments",
    "chisq_expectation",
]


@dataclass(frozen=True)
class ChiSquareLaw:
    """The chi-square law with p >= 1 degrees of freedom."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise DomainError(f"degrees of freedom must be a positive integer, got {self.p}")


def _as_df(law) -> int:
    return law.p if isinstance(law, ChiSquareLaw) else ChiSquareLaw(int(law)).p


def chisq_cdf(law, z: float) -> float:
    """P(Y_p <= z) via the regularized lower incomplete gamma P(p/2, z/2)."""
    p = _as_df(law)
    if not z >= 0.0:  # also refuses NaN
        raise DomainError(f"chi-square CDF argument must be >= 0, got {z}")
    return float(gammainc(p / 2.0, z / 2.0))


def chisq_cdf_array(law, z: np.ndarray) -> np.ndarray:
    """Vectorized CDF, elementwise P(p/2, z/2)."""
    p = _as_df(law)
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):  # also refuses NaN
        raise DomainError("chi-square CDF argument must be >= 0")
    return gammainc(p / 2.0, z / 2.0)


def chisq_mean_moments(law) -> tuple[int, int]:
    """(E[Y_p], E[Y_p^2]) = (p, p^2 + 2p); for p = r-1 the latter is r^2 - 1."""
    p = _as_df(law)
    return p, p * p + 2 * p


def _density(p: int, t):
    a = p / 2.0
    return np.exp((a - 1.0) * np.log(t) - t / 2.0 - a * math.log(2.0) - math.lgamma(a))


def _tail_mass_bound(p: int, big_t: float, growth_degree: int, growth_coeff: float) -> float:
    """Upper bound on E[|h(Y)| 1{Y > T}] for |h(x)| <= coeff*(1 + x^degree)."""
    a = p / 2.0
    mass = gammaincc(a, big_t / 2.0)
    if growth_degree == 0:
        return growth_coeff * mass
    # E[Y^d 1{Y>T}] = 2^d Gamma(a+d)/Gamma(a) * Q(a+d, T/2)
    d = growth_degree
    moment_tail = (math.exp(d * math.log(2.0) + math.lgamma(a + d) - math.lgamma(a))
                   * gammaincc(a + d, big_t / 2.0))
    return growth_coeff * (mass + moment_tail)


def _quad(fn, lo, hi, tol):
    from scipy import integrate  # here, not at import: it is most of the package's start-up

    val, err = integrate.quad(fn, lo, hi, epsabs=tol, epsrel=1e-13, limit=400)
    if err > max(tol, 1e-13 * abs(val)) * 10.0:
        raise ConvergenceError(f"quadrature error estimate {err:.3e} exceeds budget {tol:.3e}")
    return val


def chisq_expectation(law, h, tol: float = 1e-10) -> float:
    """E[h(Y_p)] by adaptive quadrature of h against the chi-square density.

    ``h`` is a plain callable or a TestFunction; a TestFunction's declared
    polynomial growth is used to pick the truncation point T so that the
    discarded tail contributes < tol/2.
    """
    p = _as_df(law)
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    fn = getattr(h, "fn", h)
    degree = int(getattr(h, "growth_degree", 0))
    coeff = float(getattr(h, "growth_coeff", 1.0))

    big_t = p + 10.0 * math.sqrt(2.0 * p) + 10.0
    while _tail_mass_bound(p, big_t, degree, coeff) >= tol / 2.0:
        big_t *= 2.0
        if big_t > 1e8:
            raise ConvergenceError("could not find a truncation point for the tail")

    if p == 1:
        # t = u^2 removes the t^{-1/2} endpoint singularity exactly
        pre = 1.0 / math.sqrt(2.0 * math.pi)

        def integrand(u):
            return 2.0 * pre * math.exp(-u * u / 2.0) * fn(u * u)

        return _quad(integrand, 0.0, math.sqrt(big_t), tol / 2.0)

    def integrand(t):
        return float(_density(p, t)) * fn(t)

    return _quad(integrand, 0.0, big_t, tol / 2.0)
