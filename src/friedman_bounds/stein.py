"""Numerical realization of the chi-square Stein equation.

The equation  x f''(x) + (p - x) f'(x) / 2 = h(x) - E[h(Y_p)]  is solved by

    f'(x) = e^{x/2} x^{-p/2} int_0^x t^{p/2-1} e^{-t/2} [h(t) - E h(Y_p)] dt.

Because the full integral over (0, inf) vanishes, the same f' also equals
minus the tail integral from x to infinity; past the distribution's bulk the
lower form suffers catastrophic cancellation, so evaluation switches to the
tail form there.  The p = 1 endpoint singularity t^{-1/2} is removed by the
substitution t = u^2.  Higher derivatives come from central finite
differences of f' with step eps^(1/(k+2)) max(1, x); a grid sup is a lower
bound of the true sup-norm, so the derivative-cap checks can confirm but
never refute the bounds

    |f^(k)| <= (2/k) |h^(k)|
    |f^(k)| <= ((2 sqrt(pi) + sqrt(2)/e)/sqrt(p+2k-2) + 4/(p+2k-2)) |h^(k-1)|
    |f^(k)| <= (4/(p+2k-2)) (3 |h^(k-1)| + 2 |h^(k-2)|),   k >= 2.

The quadrature loads scipy.integrate on the first f' evaluation, not at
import: it pulls in scipy.optimize and scipy.linalg, several tenths of a
second that a caller of the statistic, its bounds or the sampler never needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisq import ChiSquareLaw, chisq_expectation
from .errors import ConvergenceError, DomainError
from .exact import _sum_counts
from .ranks import theoretical_covariance
from .testfunctions import TestFunction

__all__ = [
    "SteinSolution",
    "stein_residual",
    "derivative_bound_check",
    "verify_operator_link",
    "standard_grid",
]

_EPS = np.finfo(float).eps
_FPRIME_TOL = 1e-11  # absolute accuracy of each f' value


@dataclass
class SteinSolution:
    """Cached solution data for one (p, h): the centered h and f' evaluator."""

    p: int
    h: TestFunction
    chisq_h: float = field(init=False)

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"need p >= 1, got {self.p}")
        self.chisq_h = chisq_expectation(ChiSquareLaw(self.p), self.h, tol=1e-10)
        self._cache: dict[float, float] = {}

    def _weighted(self, t: float) -> float:
        # t^{p/2-1} e^{-t/2} [h(t) - chisq_h]
        return t ** (self.p / 2.0 - 1.0) * math.exp(-t / 2.0) * (self.h.fn(t) - self.chisq_h)

    def fprime(self, x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"f' is evaluated on x > 0, got {x}")
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        from scipy import integrate  # here, not at import: it is most of the package's start-up

        p = self.p
        log_pre = x / 2.0 - (p / 2.0) * math.log(x)
        # quadrature target so the scaled result is accurate to _FPRIME_TOL
        eps_abs = max(_FPRIME_TOL * math.exp(-log_pre), 1e-280)
        if x <= p + 2.0:
            if p == 1:
                # t = u^2: integrand 2 e^{-u^2/2} [h(u^2) - chisq_h]
                val, err = integrate.quad(
                    lambda u: 2.0 * math.exp(-u * u / 2.0) * (self.h.fn(u * u) - self.chisq_h),
                    0.0, math.sqrt(x), epsabs=eps_abs, epsrel=1e-13, limit=300)
            else:
                val, err = integrate.quad(self._weighted, 0.0, x,
                                          epsabs=eps_abs, epsrel=1e-13, limit=300)
        else:
            # tail form: the full integral vanishes, so int_0^x = -int_x^inf
            val, err = integrate.quad(self._weighted, x, np.inf,
                                      epsabs=eps_abs, epsrel=1e-13, limit=300)
            val = -val
        if err > 100.0 * max(eps_abs, 1e-13 * abs(val)):
            raise ConvergenceError(
                f"Stein quadrature error {err:.2e} at x={x} exceeds budget {eps_abs:.2e}")
        out = math.exp(log_pre) * val
        self._cache[x] = out
        return out

    def derivative(self, k: int, x: float) -> float:
        """f^(k)(x): k = 1 is f' itself, k in 2..4 by central differences of f'.

        Steps follow eps^(1/(k+2)) max(1, x); the first and second differences
        use fourth-order central stencils so the truncation error stays below
        the quadrature noise across the standard grid.
        """
        if k == 1:
            return self.fprime(x)
        if k not in (2, 3, 4):
            raise DomainError(f"derivatives supported for k in 1..4, got {k}")
        step = _EPS ** (1.0 / (k + 2)) * max(1.0, x)
        step = min(step, x / 8.0)  # keep all stencil points positive
        f = self.fprime
        if k == 2:
            return (-f(x + 2 * step) + 8.0 * f(x + step)
                    - 8.0 * f(x - step) + f(x - 2 * step)) / (12.0 * step)
        if k == 3:
            return (-f(x + 2 * step) + 16.0 * f(x + step) - 30.0 * f(x)
                    + 16.0 * f(x - step) - f(x - 2 * step)) / (12.0 * step ** 2)
        return (f(x + 2 * step) - 2.0 * f(x + step)
                + 2.0 * f(x - step) - f(x - 2 * step)) / (2.0 * step ** 3)


def stein_residual(p: int, h: TestFunction, x: float,
                   solution: SteinSolution | None = None) -> float:
    """|x f''(x) + (p-x) f'(x)/2 - (h(x) - E h(Y_p))| with finite-difference f''."""
    sol = solution if solution is not None else SteinSolution(p, h)
    fp = sol.fprime(x)
    fpp = sol.derivative(2, x)
    return abs(x * fpp + 0.5 * (p - x) * fp - (h.fn(x) - sol.chisq_h))


def standard_grid(p: int, points: int = 200) -> np.ndarray:
    """Geometric + linear mix on (0, p + 20 sqrt(p)]; the default check grid."""
    hi = p + 20.0 * math.sqrt(p)
    geo = np.geomspace(0.05, hi, points // 2)
    lin = np.linspace(0.05, hi, points - points // 2)
    return np.unique(np.concatenate([geo, lin]))


def derivative_bound_check(p: int, h: TestFunction, k: int,
                           grid: np.ndarray | None = None) -> dict:
    """Grid sup of |f^(k)| against each applicable cap.

    Caps with an infinite h-norm are skipped (they hold vacuously).  The
    observed value is a grid maximum, hence a lower bound of the true sup:
    this check can confirm the caps, never refute them.
    """
    if k not in (1, 2, 3, 4):
        raise DomainError(f"k must be 1..4, got {k}")
    sol = SteinSolution(p, h)
    xs = standard_grid(p) if grid is None else np.asarray(grid, dtype=float)
    observed = max(abs(sol.derivative(k, float(x))) for x in xs)
    denom = p + 2 * k - 2
    caps = {}
    if math.isfinite(h.norm(k)):
        caps["luk"] = (2.0 / k) * h.norm(k)
    if math.isfinite(h.norm(k - 1)):
        caps["one_lower"] = ((2.0 * math.sqrt(math.pi) + math.sqrt(2.0) / math.e)
                             / math.sqrt(denom) + 4.0 / denom) * h.norm(k - 1)
    if k >= 2 and math.isfinite(h.norm(k - 1)) and math.isfinite(h.norm(k - 2)):
        caps["two_lower"] = (4.0 / denom) * (3.0 * h.norm(k - 1) + 2.0 * h.norm(k - 2))
    # absorb quadrature/FD noise so an exact equality case (e.g. f' = -2 with
    # h(t) = t against cap 2) is not reported as a violation
    slack = 1e-8 * max(1.0, *caps.values()) if caps else 0.0
    return {
        "p": p,
        "h": h.label,
        "k": k,
        "observed_sup": observed,
        "caps": caps,
        "holds": {name: bool(observed <= cap + slack) for name, cap in caps.items()},
        "tolerance": slack,
        "grid_points": len(xs),
    }


def verify_operator_link(r: int, n: int, h: TestFunction) -> dict:
    """Exact-enumeration check of the chi-square / multivariate-normal link.

    With g(s) = f(sum_j s_j^2)/4 built from the numerical f', the average of
    grad' Sigma grad g(S) - S' grad g(S)  (full r x r contraction with the
    theoretical covariance) must match the average of
    F f''(F) + (r-1-F) f'(F)/2, and both must match E[h(F)] - E[h(Y_{r-1})].
    The averages are exact sums over the sorted column-sum states of the
    exact engine, each weighted by its count of configurations; the engine
    raises BudgetError past its budget.  Both agreements must be within 1e-5.
    """
    p = r - 1
    sol = SteinSolution(p, h)
    c = math.sqrt(12.0 / (r * (r + 1) * n))
    sigma = theoretical_covariance(r)

    total_mvn = 0.0
    total_chisq = 0.0
    total_h = 0.0
    for state, count in _sum_counts(r, n):
        s = c * np.array(state, dtype=float) / 2.0
        w = float(np.dot(s, s))
        if w == 0.0:
            # grad g = 0 and F f'' + (r-1-F) f'/2 needs f'(0+): both sides
            # of the operator identity are (r-1) f'(0)/2; f' extends
            # continuously with f'(0) = limit, realized here by a small x.
            mvn = chisq = 0.5 * (r - 1) * sol.fprime(1e-9)
        else:
            fp, fpp = sol.fprime(w), sol.derivative(2, w)
            # hessian of g: f''(w) s_j s_k + f'(w) delta_jk / 2
            hess = fpp * np.outer(s, s) + 0.5 * fp * np.eye(r)
            mvn = float(np.sum(sigma * hess)) - w * 0.5 * fp
            chisq = w * fpp + 0.5 * (p - w) * fp
        total_mvn += count * mvn
        total_chisq += count * chisq
        total_h += count * h.fn(w)

    weight = math.factorial(r) ** n
    mean_mvn = total_mvn / weight
    mean_chisq = total_chisq / weight
    gap_direct = total_h / weight - sol.chisq_h
    agree_ops = abs(mean_mvn - mean_chisq)
    agree_gap = abs(mean_chisq - gap_direct)
    return {
        "r": r,
        "n": n,
        "h": h.label,
        "mvn_operator_mean": mean_mvn,
        "chisq_operator_mean": mean_chisq,
        "direct_gap": gap_direct,
        "operator_agreement": agree_ops,
        "stein_identity_residual": agree_gap,
        "status": "pass" if (agree_ops <= 1e-5 and agree_gap <= 1e-5) else "fail",
    }
