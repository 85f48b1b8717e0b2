"""Friedman's chi-square test with explicit approximation-error bounds.

The package has three layers: the statistic itself (ranks, chisq, bounds),
exact verification machinery for every moment formula and coupling identity
behind the bounds (exact, coupling, stein), and Monte Carlo distance
estimation (montecarlo).  The `friedman-bounds` CLI fronts all of it.

The package's one dependency is numpy.  The chisq and ranks names resolve
on first access (PEP 562), so importing the package, or the CLI for
`bounds`, does not load it.
"""

from importlib import import_module

from .bounds import (BoundReport, SharpCoefficients, SmoothNorms, bound_kolmogorov,
                     bound_r2_special, bound_report, bound_sharp, bound_compact,
                     bound_trivial, sharp_coefficients)
from .errors import (BudgetError, ConvergenceError, DomainError, FriedmanBoundsError,
                     InfiniteNormError, NonFiniteError, ParseError, TieError)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(("ChiSquareLaw", "chisq_cdf", "chisq_expectation", "chisq_mean_moments"),
                    "chisq"),
    **dict.fromkeys(("RankMatrix", "ScoreVector", "friedman_statistic", "load_csv",
                     "ranks_from_scores", "theoretical_covariance"), "ranks"),
}

__all__ = [
    "BoundReport", "SharpCoefficients", "SmoothNorms", "bound_kolmogorov",
    "bound_r2_special", "bound_report", "bound_sharp", "bound_compact", "bound_trivial",
    "sharp_coefficients", "ChiSquareLaw", "chisq_cdf", "chisq_expectation",
    "chisq_mean_moments", "BudgetError", "ConvergenceError", "DomainError",
    "FriedmanBoundsError", "InfiniteNormError", "NonFiniteError", "ParseError",
    "TieError", "RankMatrix", "ScoreVector", "friedman_statistic", "load_csv",
    "ranks_from_scores", "theoretical_covariance", "__version__",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
