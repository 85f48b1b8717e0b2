"""Friedman's chi-square test with explicit approximation-error bounds.

The package has three layers: the statistic itself (ranks, chisq, bounds),
exact verification machinery for every moment formula and coupling identity
behind the bounds (exact, coupling, stein), and Monte Carlo distance
estimation (montecarlo).  The `friedman-bounds` CLI fronts all of it.
"""

from .bounds import (BoundReport, SharpCoefficients, SmoothNorms, bound_kolmogorov,
                     bound_r2_special, bound_report, bound_sharp, bound_compact,
                     bound_trivial, sharp_coefficients)
from .chisq import ChiSquareLaw, chisq_cdf, chisq_expectation, chisq_mean_moments
from .errors import (BudgetError, ConvergenceError, DomainError, FriedmanBoundsError,
                     InfiniteNormError, NonFiniteError, ParseError, TieError)
from .ranks import (RankMatrix, ScoreVector, friedman_statistic, load_csv, ranks_from_scores,
                    theoretical_covariance)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "SharpCoefficients", "SmoothNorms", "bound_kolmogorov",
    "bound_r2_special", "bound_report", "bound_sharp", "bound_compact", "bound_trivial",
    "sharp_coefficients", "ChiSquareLaw", "chisq_cdf", "chisq_expectation",
    "chisq_mean_moments", "BudgetError", "ConvergenceError", "DomainError",
    "FriedmanBoundsError", "InfiniteNormError", "NonFiniteError", "ParseError",
    "TieError", "RankMatrix", "ScoreVector", "friedman_statistic", "load_csv",
    "ranks_from_scores", "theoretical_covariance", "__version__",
]
