"""Numerical realization of the chi-square Stein equation.

The equation  x f''(x) + (p - x) f'(x) / 2 = h(x) - E[h(Y_p)]  is solved by

    f'(x) = e^{x/2} x^{-p/2} int_0^x t^{p/2-1} e^{-t/2} [h(t) - E h(Y_p)] dt.

Each f' value is the panel rule of ``chisq`` (20-node Gauss-Legendre
panels), evaluated over a whole array of x at once, in one of two forms:

* lower form, x <= p + 2: t = x v^2 (the substitution t = u^2 scaled to
  u = sqrt(x) v) gives  f'(x) = int_0^1 2 v^{p-1} e^{x(1-v^2)/2}
  [h(x v^2) - E h] dv, smooth for every p >= 1, with no prefactor to
  overflow;
* tail form, x > p + 2: the full integral over (0, inf) vanishes, so f' is
  minus J(x) = e^{x/2} x^{-p/2} int_x^inf t^{p/2-1} e^{-t/2} [h(t) - E h] dt,
  which avoids the lower form's cancellation past the bulk.  All x of a
  call share one backward sweep over the sorted x_1 <= ... <= x_m, with
  J(x_j) = I_j + e^{-(x_{j+1}-x_j)/2} (x_{j+1}/x_j)^{p/2} J(x_{j+1}): I_j is
  the integral over [x_j, x_{j+1}] in the shift t = x_j + s, which cancels
  e^{x_j/2} exactly, int (1+s/x_j)^{p/2-1} e^{-s/2} [h(x_j+s) - E h] ds / x_j,
  and the sweep starts from J = 0 at x_m + S.  The carry factor is below 1
  for x > p, so the recurrence damps rounding.  S is the first of
  16 * 1.25^j whose discarded tail, bounded in logarithms through h's
  declared growth, is below _FPRIME_TOL/100 at x_m; the scale
  e^{x/2} x^{-p/2} grows past p, so that truncation covers every x below.
  A gap wider than S ends a run of x, which is swept on its own from its
  largest x plus that x's own S.  Each gap and each [x_k, x_k + S_k] is
  cut into rows no longer than _PIECE, so the cost grows with the number
  of x plus the length swept, not with their product, and never with how
  far apart the x lie.

The panel count starts from the window (x, or _PIECE in the sweep) and h's
|h'| norm and doubles until the rule and its refinement agree within half of
_FPRIME_TOL on every returned f' value (the sweep's output, not its rows);
past a fixed cap f' raises ConvergenceError with x, p and both estimates.
A value depends on the other x of its call only at noise level: through
the shared panel count in both forms, and through S and the rows of the
sweep in the tail form.

Higher derivatives come from central finite differences of f' with step
eps^(1/(k+2)) max(1, x), the five stencil points of every x in one f' call;
a grid sup is a lower bound of the true sup-norm, so the derivative-cap
checks can refute the bounds but never confirm them

    |f^(k)| <= (2/k) |h^(k)|
    |f^(k)| <= ((2 sqrt(pi) + sqrt(2)/e)/sqrt(p+2k-2) + 4/(p+2k-2)) |h^(k-1)|
    |f^(k)| <= (4/(p+2k-2)) (3 |h^(k-1)| + 2 |h^(k-2)|),   k >= 2.

The operator link has two halves.  The multivariate-normal generator with
covariance Sigma equals the chi-square one at every state, for every f',
exactly when Sigma fixes each row of one trial and has trace r - 1, so that
half reads the r! rows of one trial; the Stein-identity half reads the
atoms of the exact law f_law(n, r).

verify_suite runs these checks and the operator link as verify entries, each
with its own pass rule: residuals and the operator link within 1e-5, the
h(t) = t equality case f' = -2 within 1e-8.  Its walk over p is charged to
the exact budget first (_suite_walk, which `verify` also calls before any
suite runs), at 900 f' evaluations per p, so p_max <= 222 fits.
That price is linear in p_max while the cost is not: each residual grid
costs more as p grows, and the walk's time grows about as p_max^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisq import ChiSquareLaw, _converged_rule, chisq_expectation
from .errors import ConvergenceError, DomainError, check_count
from .exact_law import _check_terms, _entry, _trial_rows, f_law, law_floats
from .ranks import theoretical_covariance
from .testfunctions import TestFunction, cosine, identity, sine

__all__ = [
    "SteinSolution",
    "stein_residual",
    "derivative_bound_check",
    "verify_operator_link",
    "standard_grid",
    "verify_suite",
]

_EPS = np.finfo(float).eps
_FPRIME_TOL = 1e-11  # absolute accuracy of each f' value
_PIECE = 4.0  # longest row of the tail sweep: at |h'| <= 1 a row starts at one panel
_OFFSETS = np.arange(-2.0, 3.0)  # stencil points x + j*step
# central-difference weights on f'(x + j*step), j = -2..2, for f^(k) * step^(k-1);
# fourth order for k = 2, 3, so the truncation error stays below the rule's noise
_STENCILS = {2: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
             3: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
             4: np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0}


def _tail_span(p: int, h: TestFunction, eh: float, x: float) -> float:
    """The first S = 16 * 1.25^j whose discarded tail at x is below _FPRIME_TOL/100.

    The discarded part is x^{-a} int_S^inf (x+s)^{a-1} e^{-s/2} |h(x+s) - E h| ds
    with a = p/2 and |h - E h| <= c (1 + t^d), c = growth_coeff + |E h|.  For
    q = a-1 and a-1+d, (x+s)^q <= (x+S)^q e^{q+ (s-S)/(x+S)}, so the term of q
    is at most c x^{-a} (x+S)^q e^{-S/2} / (1/2 - q+/(x+S)); the test is made on
    logarithms, so that no e^{x/2} or tail mass leaves the floats at any x.
    The cut at x + S also keeps the discarded tail of every x' in (p, x)
    within budget, since e^{x'/2} x'^{-a} grows on (p, inf).
    """
    a, d = p / 2.0, h.growth_degree
    c = h.growth_coeff + abs(eh)
    log_budget = math.log(_FPRIME_TOL / 100.0) - (math.log(c) if c > 0.0 else -math.inf)
    span = 16.0
    while span <= 1e8:
        top = x + span
        if top > 2.0 * (a - 1.0 + d):
            logs = [a * math.log1p(span / x) + (q - a) * math.log(top)
                    - math.log(0.5 - max(q, 0.0) / top) for q in (a - 1.0, a - 1.0 + d)]
            big = max(logs)
            if big + math.log(sum(math.exp(v - big) for v in logs)) - 0.5 * span < log_budget:
                return span
        span *= 1.25
    raise ConvergenceError(f"no truncation point for f' at p={p}, h={h.label}, x up to {x!r}")


def _like(x, values: np.ndarray):
    """A float for a scalar x, else ``values`` in the shape of x."""
    return float(values) if np.ndim(x) == 0 else values


@dataclass
class SteinSolution:
    """Solution data for one (p, h): E h(Y_p) and the f' evaluator."""

    p: int
    h: TestFunction
    chisq_h: float = field(init=False)

    def __post_init__(self):
        self.p = check_count(self.p, 1, "p")
        self.chisq_h = chisq_expectation(ChiSquareLaw(self.p), self.h)

    def fprime(self, x):
        """f'(x) for a float or an array of x > 0: a float, or an array of x's shape."""
        xs = np.asarray(x, dtype=float)
        bad = ~((xs > 0.0) & (xs < math.inf))  # also refuses NaN
        if bad.any():
            raise DomainError(f"f' is evaluated on finite x > 0, got {xs[bad].flat[0]}")
        flat = xs.ravel()
        out = np.empty(flat.size)
        lower = flat <= self.p + 2.0
        if lower.any():
            out[lower] = self._lower(flat[lower])
        if not lower.all():
            out[~lower] = self._tail(flat[~lower])
        return _like(x, out.reshape(xs.shape))

    def _where(self, xs: np.ndarray):
        return lambda i: f"f'(x={float(xs[i])!r}) at p={self.p}, h={self.h.label}"

    def _lower(self, xs: np.ndarray) -> np.ndarray:
        p, fn, eh = self.p, self.h.fn, self.chisq_h

        def integrand(v, x):
            return (2.0 * np.exp((p - 1) * np.log(v) + 0.5 * x * (1.0 - v * v))
                    * (fn(x * v * v) - eh))

        knots = np.sqrt(np.maximum(np.asarray(self.h.knots, dtype=float) / xs[:, None], 0.0))
        return _converged_rule(integrand, np.ones(xs.size), knots, float(xs.max()),
                               self.h.norm(1), _FPRIME_TOL / 2.0, self._where(xs), cols=(xs,))

    def _tail(self, xs: np.ndarray) -> np.ndarray:
        p, h, eh = self.p, self.h, self.chisq_h
        a = p / 2.0
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        # segments: each gap of the sorted x, and [x_k, x_k + S_k] after the largest
        # x_k of each run (a gap wider than S = S_m ends a run), so that far-apart
        # x sweep apart; a repeated x is a segment of length 0
        span = _tail_span(p, h, eh, float(sx[-1]))
        seg = np.append(np.diff(sx), span)
        tops = np.flatnonzero(seg > span)
        seg[tops] = [_tail_span(p, h, eh, x) for x in sx[tops].tolist()]
        tops = np.append(tops, sx.size - 1)
        # rows: each segment cut into equal pieces no longer than _PIECE
        pieces = np.maximum(np.ceil(seg / _PIECE), 1.0).astype(np.int64)
        first = np.cumsum(pieces) - pieces  # the row that starts at sx[j]
        length = np.repeat(seg / pieces, pieces)
        within = np.arange(pieces.sum()) - np.repeat(first, pieces)
        starts = np.repeat(sx, pieces) + within * length
        # J at a row's start is its integral plus carry times J at its end,
        # and J = 0 at the end of each run's last row
        carry = np.exp(a * np.log1p(length / starts) - 0.5 * length)
        carry[first[tops] + pieces[tops] - 1] = 0.0
        carry = carry.tolist()

        def sweep(rows: np.ndarray) -> np.ndarray:
            j, out, rows = 0.0, [0.0] * len(carry), rows.tolist()
            for i in range(len(carry) - 1, -1, -1):
                j = out[i] = rows[i] + carry[i] * j
            return -np.array(out)[first]

        def integrand(s, x):
            return np.exp((a - 1.0) * np.log1p(s / x) - 0.5 * s) * (h.fn(x + s) - eh) / x

        knots = np.asarray(h.knots, dtype=float) - starts[:, None]
        fp = _converged_rule(integrand, length, knots, _PIECE, h.norm(1), _FPRIME_TOL / 2.0,
                             self._where(sx), cols=(starts,), post=sweep)
        out = np.empty(xs.size)
        out[order] = fp
        return out

    def _derivatives(self, k: int, x) -> tuple[np.ndarray, np.ndarray]:
        """(f'(x), f^(k)(x)) from one f' call on the five-point stencil of every x."""
        xs = np.asarray(x, dtype=float)
        step = np.minimum(_EPS ** (1.0 / (k + 2)) * np.maximum(1.0, xs), xs / 8.0)
        f = self.fprime(xs[..., None] + step[..., None] * _OFFSETS)
        return f[..., 2], (f @ _STENCILS[k]) / step ** (k - 1)

    def derivative(self, k: int, x):
        """f^(k)(x) for a float or an array: k = 1 is f' itself, k in 2..4 by
        central differences of f'.

        Steps follow eps^(1/(k+2)) max(1, x), capped at x/8 so that every
        stencil point stays positive.
        """
        k = check_count(k, 1, "k")
        if k > 4:
            raise DomainError(f"derivatives supported for k in 1..4, got {k}")
        if k == 1:
            return self.fprime(x)
        return _like(x, self._derivatives(k, x)[1])


def stein_residual(p: int, h: TestFunction, x,
                   solution: SteinSolution | None = None):
    """|x f''(x) + (p-x) f'(x)/2 - (h(x) - E h(Y_p))| with finite-difference f''.

    ``x`` is a float or an array; ``solution`` must be the one for (p, h).
    """
    sol = solution if solution is not None else SteinSolution(p, h)
    if sol.p != p or sol.h != h:
        raise DomainError(f"solution is for p={sol.p}, h={sol.h.label}, "
                          f"not p={p}, h={h.label}")
    xs = np.asarray(x, dtype=float)
    fp, fpp = sol._derivatives(2, xs)
    return _like(x, np.abs(xs * fpp + 0.5 * (p - xs) * fp - (h.fn(xs) - sol.chisq_h)))


def standard_grid(p: int, points: int = 200) -> np.ndarray:
    """Geometric + linear mix on (0, p + 20 sqrt(p)]; the default check grid."""
    p, points = check_count(p, 1, "p"), check_count(points, 1, "points")
    hi = p + 20.0 * math.sqrt(p)
    geo = np.geomspace(0.05, hi, points // 2)
    lin = np.linspace(0.05, hi, points - points // 2)
    # sorted(set()) rather than np.unique, whose plain form imports numpy.ma
    return np.array(sorted({*geo.tolist(), *lin.tolist()}))


def derivative_bound_check(p: int, h: TestFunction, k: int,
                           grid: np.ndarray | None = None) -> dict:
    """Grid sup of |f^(k)| against each applicable cap.

    Caps with an infinite h-norm are skipped (they hold vacuously).  The
    observed value is a grid maximum, hence a lower bound of the true sup:
    this check can refute a cap, never confirm it.
    """
    k = check_count(k, 1, "k")  # SteinSolution.derivative refuses k > 4
    sol = SteinSolution(p, h)
    xs = standard_grid(p) if grid is None else np.asarray(grid, dtype=float)
    observed = float(np.max(np.abs(sol.derivative(k, xs))))
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
    """Exact check of the chi-square / multivariate-normal operator link, in two halves.

    With g(s) = f(|s|^2)/4 built from the numerical f' and F = |S|^2, the
    multivariate-normal generator grad' Sigma grad g(S) - S' grad g(S) minus
    the chi-square one, F f''(F) + (r-1-F) f'(F)/2, is
    f''(F) (S' Sigma S - F) + f'(F) (tr Sigma - (r-1))/2.  Every state S is a
    sum of trial rows, so the link holds at every state, for every f', exactly
    when Sigma = theoretical_covariance(r) fixes each of the r! rows of one
    trial and has trace r - 1; ``operator_agreement`` is the largest departure
    from those two facts, |Sigma x - x| over the rows x of doubled centered
    ranks (exact integers, so only Sigma can depart) and |tr Sigma - (r-1)|.

    The other half depends on a state only through F, so it reads the atoms
    of f_law(n, r): the mean of the chi-square generator must match
    E h(F) - E h(Y_{r-1}) (``stein_identity_residual``).  The law is read
    first, so a cell past the budget raises BudgetError before any row is
    built.  Both numbers must be within 1e-5.
    """
    p = r - 1
    values, probs, _ = law_floats(f_law(n, r), n, r)
    sol = SteinSolution(p, h)
    # The atom F = 0 needs f'(0+), realized by x = 1e-9: there F f'' drops out
    # and the chi-square generator is (r-1) f'(0)/2.
    fp, fpp = sol._derivatives(2, np.maximum(values, 1e-9))
    mean_chisq = float(probs @ (values * fpp + 0.5 * (p - values) * fp))
    gap_direct = float(probs @ h.fn(values)) - sol.chisq_h
    rows = np.array(_trial_rows(f"the rows of one trial at r={r}", r, 1), dtype=float)
    sigma = theoretical_covariance(r)
    agree_ops = max(float(np.abs(rows @ sigma.T - rows).max()), abs(float(np.trace(sigma)) - p))
    agree_gap = abs(mean_chisq - gap_direct)
    return {
        "r": r,
        "n": n,
        "h": h.label,
        "chisq_operator_mean": mean_chisq,
        "direct_gap": gap_direct,
        "operator_agreement": agree_ops,
        "stein_identity_residual": agree_gap,
        "status": "pass" if (agree_ops <= 1e-5 and agree_gap <= 1e-5) else "fail",
    }


_SUITE_POINTS, _SUITE_FUNCTIONS = 60, (cosine(1.0), sine(1.0), identity())


def _suite_walk(p_max: int) -> int:
    """Check the Stein suite's p_max and charge its walk over p to the exact
    budget at its f' evaluations: five stencil points per grid point,
    _SUITE_POINTS grid points per test function, three test functions per p
    (linear in p_max, while the time of the walk grows about as p_max^2).
    Returns the checked p_max."""
    p_max = check_count(p_max, 1, "p_max")
    _check_terms(f"the f' evaluations of the residuals at p=1..{p_max}",
                 len(_OFFSETS) * _SUITE_POINTS * len(_SUITE_FUNCTIONS) * p_max)
    return p_max


def verify_suite(p_max: int) -> list[dict]:
    """Residuals at p = 1..p_max, the f' = -2 equality case, two derivative-cap
    checks and the operator link, as verify entries, after _suite_walk."""
    p_max, out = _suite_walk(p_max), []
    for p in range(1, p_max + 1):
        grid = standard_grid(p, points=_SUITE_POINTS)
        for h in _SUITE_FUNCTIONS:
            worst = float(stein_residual(p, h, grid).max())
            out.append(_entry("stein residual <= 1e-5 on grid", None, None,
                              "pass" if worst <= 1e-5 else "fail",
                              f"{worst:.3e}", "1e-5", f"p={p}, h={h.label}"))
    dev = float(abs(SteinSolution(3, identity()).fprime(standard_grid(3, points=40)) + 2.0).max())
    out.append(_entry("h(t)=t gives f' = -2", None, None,
                      "pass" if dev <= 1e-8 else "fail", f"{dev:.3e}", "1e-8", "p=3"))
    for p, k in ((4, 2), (8, 3)):
        rep = derivative_bound_check(p, cosine(1.0), k, grid=standard_grid(p, points=50))
        out.append(_entry(f"derivative caps hold (k={k})", None, None,
                          "pass" if all(rep["holds"].values()) else "fail",
                          f"{rep['observed_sup']:.6g}",
                          str({name: round(v, 6) for name, v in rep["caps"].items()}),
                          f"p={p}"))
    link = verify_operator_link(3, 2, cosine(1.0))
    out.append(_entry("operator-link: Sigma fixes one trial's rows / Stein identity on f_law",
                      3, 2, link["status"], f"{link['operator_agreement']:.3e} / "
                      f"{link['stein_identity_residual']:.3e}", "1e-5"))
    return out
