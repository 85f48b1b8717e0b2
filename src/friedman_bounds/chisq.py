"""Chi-square distribution numerics, in numpy and the math module only.

The degrees of freedom p are a positive integer, so the upper tail
Q_p(z) = P(Y_p > z), the regularized upper incomplete gamma Q(p/2, z/2), is
a finite sum (x = z/2):

  even p:  Q_p(z) = e^{-x} sum_{k < p/2} x^k / k!
  odd p:   Q_p(z) = erfc(sqrt(x)) + sum_{k < (p-1)/2} e^{-x} x^{k+1/2} / Gamma(k + 3/2)

chisq_tail evaluates it elementwise: each term is the last one times x / j,
and where e^{-x} would leave the normal floats each term is taken in log
space instead, so no power of x and no e^{-x} overflows or underflows on
its own.  It has no iteration and no tolerance.  The CDF is 1 - Q_p.
Truncation points come from an upper bound on the tail mass
E[|h(Y_p)| 1{Y_p > T}] through h's declared growth; at integer p each of
its terms is a tail Q_{p+2d}(T) itself.  No chi-square sampling and no
quantile function live here.  Every function takes the degrees of freedom
as a ChiSquareLaw or an integer (a numpy integer too); 2.5, 2.0, "3" or
True is a DomainError, never rounded.

Every chi-square integral in the package, E[h(Y_p)] here and the Stein
solution f' in ``stein``, is one composite Gauss rule: 20-node
Gauss-Legendre panels, evaluated as numpy arrays over all nodes and over a
whole array of integrals at once.  E[h(Y_p)] takes h as a TestFunction
only, whose declared growth bounds the tail: a plain callable could grow
past any truncation point, so it is a DomainError.  The integral is
truncated at a point T whose discarded tail is below half of the one
accuracy _TOL = 1e-10; the substitution t = u^2 turns the density
t^{p/2-1} e^{-t/2} dt into 2 u^{p-1} e^{-u^2/2} du, smooth at the origin for
every p >= 1.  The panel count starts from the window length and
h's |h'| norm and doubles until the rule and its refinement (twice the
panels) agree to the tolerance; past a fixed cap the integral raises
ConvergenceError.  A test function's knots, where it is only piecewise
smooth, are panel breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, check_count

__all__ = [
    "ChiSquareLaw",
    "chisq_cdf",
    "chisq_cdf_array",
    "chisq_tail",
    "chisq_mean_moments",
    "chisq_expectation",
]


@dataclass(frozen=True)
class ChiSquareLaw:
    """The chi-square law with p >= 1 degrees of freedom."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_count(self.p, 1, "p"))  # stored as an int


def _as_df(law) -> int:
    return (law if isinstance(law, ChiSquareLaw) else ChiSquareLaw(law)).p


_LOG_TERMS_FROM = 700.0  # e^{-x} is a normal float up to x = 708


def chisq_tail(law, z) -> np.ndarray:
    """Q_p(z) = P(Y_p > z) elementwise, exactly 1 at z = 0 and 0 at z = +inf.

    The terms e^{-x} x^j / Gamma(j + 1), j = k or k + 1/2, run from
    e^{-x} x^{j_0} / Gamma(j_0 + 1), each the last one times x / j; as x is
    exact, each is within a few ulps (the exp of a term's logarithm would
    lose about eps * x).  Past x = _LOG_TERMS_FROM, where e^{-x} nears the
    bottom of the float range, each term is the exp of its logarithm.  For odd p the
    erfc(sqrt(x)) term is math.erfc per element.
    """
    p = _as_df(law)
    z = np.asarray(z, dtype=float)
    bad = ~(z >= 0.0)  # also refuses NaN
    if bad.any():
        raise DomainError(f"chi-square CDF argument must be >= 0, got {z[bad].flat[0]}")
    x = 0.5 * z
    inside = (x > 0.0) & (x < math.inf)
    xs = np.where(inside, x, 1.0)  # any point where the terms below are finite
    if p % 2:
        half, roots = 0.5, np.sqrt(xs)
        q = np.fromiter(map(math.erfc, roots.ravel().tolist()), float, xs.size).reshape(xs.shape)
        term = np.exp(-xs) * roots / math.gamma(1.5)
    else:
        half, q, term = 0.0, np.zeros_like(xs), np.exp(-xs)
    far, log_x = xs > _LOG_TERMS_FROM, np.log(xs)
    for k in range(p // 2):
        j = k + half
        if k:
            term = term * (xs / j)
        q += np.where(far, np.exp(j * log_x - xs - math.lgamma(j + 1.0)), term)
    return np.where(inside, np.minimum(q, 1.0), np.where(x > 0.0, 0.0, 1.0))


def chisq_cdf(law, z: float) -> float:
    """P(Y_p <= z) = 1 - Q_p(z)."""
    return float(1.0 - chisq_tail(law, z))


def chisq_cdf_array(law, z: np.ndarray) -> np.ndarray:
    """Vectorized CDF, elementwise 1 - Q_p(z)."""
    return 1.0 - chisq_tail(law, z)


def chisq_mean_moments(law) -> tuple[int, int]:
    """(E[Y_p], E[Y_p^2]) = (p, p^2 + 2p); for p = r-1 the latter is r^2 - 1."""
    p = _as_df(law)
    return p, p * p + 2 * p


def _tail_mass_bound(p: int, big_t, growth_degree: int, growth_coeff: float):
    """Upper bound on E[|h(Y)| 1{Y > T}] for |h(x)| <= coeff*(1 + x^degree); T may be an array.

    E[Y^d 1{Y > T}] = 2^d Gamma(a+d)/Gamma(a) Q(a+d, T/2) with a = p/2, and
    Q(a+d, T/2) is the chi-square tail Q_{p+2d}(T); at d = 0 that term is
    Q_p(T) itself, since the contract allows |h| up to 2 coeff there.
    """
    d, a = growth_degree, p / 2.0
    moment = math.exp(d * math.log(2.0) + math.lgamma(a + d) - math.lgamma(a))  # E[Y^d]
    return growth_coeff * (chisq_tail(p, big_t) + moment * chisq_tail(p + 2 * d, big_t))


@lru_cache(maxsize=None)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 20-node Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(20)


_TOL = 1e-10  # absolute accuracy of E[h(Y_p)]: half for the tail, half for the rule
_MAX_PANELS = 4096   # refinement cap of the panel rule
_NODE_BLOCK = 1 << 14  # nodes per block, so each float temporary (128 KB) stays in the per-core L2


def _panel_rule(g, hi: np.ndarray, knots: np.ndarray, panels: int, cols: tuple) -> np.ndarray:
    """Composite Gauss-Legendre sums of g over [0, hi[i]], one per row i.

    Row i is cut into ``panels`` equal panels and again at each of its knots
    (``knots[i]``) inside (0, hi[i]); a knot outside adds an empty panel at
    hi[i].  g is called on node arrays of shape (rows, panels + knots, 20),
    with each array of ``cols`` cut to the same rows and shaped (rows, 1, 1).
    """
    nodes, weights = _gauss_rule()
    out = np.empty(hi.size)
    step = max(1, _NODE_BLOCK // ((panels + knots.shape[1]) * nodes.size))
    for start in range(0, hi.size, step):
        rows = slice(start, start + step)
        top = hi[rows, None]
        cuts = knots[rows]
        edges = np.sort(np.concatenate([np.linspace(0.0, 1.0, panels + 1) * top,
                                        np.where((cuts > 0.0) & (cuts < top), cuts, top)],
                                       axis=1), axis=1)
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        vals = g(mid[..., None] + half[..., None] * nodes, *(c[rows, None, None] for c in cols))
        # each row's terms summed one after another in node order, so a row's
        # sum does not depend on how many rows share its block
        terms = (half[..., None] * vals * weights).reshape(len(half), -1)
        out[rows] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return out


def _converged_rule(g, hi: np.ndarray, knots: np.ndarray, window: float, slope: float,
                    tol: float, where, cols: tuple = (), post=None) -> np.ndarray:
    """The panel rule, its panel count doubled until it and its refinement
    agree within tol (or 1e-13 relative) on every value; returns the refined values.

    The values are the row sums, or ``post`` of them when given, so that
    the rule is refined until what the caller returns has converged.  The
    count starts from the window's length in t and |h'| <= slope, so that a
    panel holds about one period of h.  Past _MAX_PANELS it raises
    ConvergenceError naming ``where(i)`` for the first value that still
    disagrees, with both estimates.
    """
    def rule(panels: int) -> np.ndarray:
        sums = _panel_rule(g, hi, knots, panels, cols)
        return sums if post is None else post(sums)

    panels = 1 + int(window / 12.0 + (slope * window / 8.0 if math.isfinite(slope) else 0.0))
    panels = min(panels, _MAX_PANELS // 2)
    coarse = rule(panels)
    while True:
        panels *= 2
        fine = rule(panels)
        miss = ~(np.abs(fine - coarse) <= np.maximum(tol, 1e-13 * np.abs(fine)))
        if not miss.any():
            return fine
        if panels >= _MAX_PANELS:
            i = int(np.argmax(miss))
            raise ConvergenceError(f"panel rule did not converge for {where(i)}: "
                                   f"{panels // 2} panels give {float(coarse[i])!r}, "
                                   f"{panels} give {float(fine[i])!r}")
        coarse = fine


def chisq_expectation(law, h) -> float:
    """E[h(Y_p)] by the panel rule in u = sqrt(t) against the chi-square density.

    ``h`` is a TestFunction: its declared polynomial growth picks the
    truncation point T so that the discarded tail contributes < _TOL/2, its
    |h'| norm the starting panel count, and its knots the panel breakpoints.
    """
    from .testfunctions import TestFunction  # here, so that the tail alone loads no test functions

    p = _as_df(law)
    if not isinstance(h, TestFunction):
        raise DomainError(f"E[h(Y_p)] needs a TestFunction, which declares its growth, got {h!r}")
    big_t = p + 10.0 * math.sqrt(2.0 * p) + 10.0
    while _tail_mass_bound(p, big_t, h.growth_degree, h.growth_coeff) >= _TOL / 2.0:
        big_t *= 2.0
        if big_t > 1e8:
            raise ConvergenceError("could not find a truncation point for the tail")

    # t = u^2: the density is 2 u^{p-1} e^{-u^2/2} / (2^{p/2} Gamma(p/2)) in u
    log_norm = (1.0 - p / 2.0) * math.log(2.0) - math.lgamma(p / 2.0)

    def integrand(u):
        return np.exp(log_norm + (p - 1) * np.log(u) - 0.5 * u * u) * h.fn(u * u)

    knots = np.sqrt(np.clip(np.asarray(h.knots, dtype=float), 0.0, big_t))
    return float(_converged_rule(integrand, np.array([math.sqrt(big_t)]), knots[None, :],
                                 big_t, h.norm(1), _TOL / 2.0, lambda i: f"E[h(Y_{p})]")[0])
