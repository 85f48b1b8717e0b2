"""Test functions with known derivative sup-norms on [0, inf).

Every bound in the package is stated for classes of smooth test functions,
so each TestFunction carries the sup-norms of itself and its first four
derivatives (math.inf marks an unbounded one), its polynomial growth (for
quadrature truncation), the knots where it is only piecewise smooth (panel
breakpoints of the quadrature), and a closed-form chi-square expectation
when one exists (cosine and sine, from one builder, via the characteristic
function (1-2it)^(-p/2), monomials via p(p+2)...(p+2k-2)).

Each builder keeps the contract it declares: |h(x)| <= growth_coeff
(1 + x^growth_degree) on [0, inf), and each finite norms[k] bounds |h^(k)|.
chisq.chisq_expectation takes nothing but a TestFunction and truncates its
integral by that growth, so a wrong declaration is a wrong integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, check_count

__all__ = [
    "TestFunction",
    "cosine",
    "sine",
    "power",
    "identity",
    "constant",
    "smoothing_indicator",
]


@dataclass(frozen=True)
class TestFunction:
    """A test function h on [0, inf) and what the bounds and quadratures need of it.

    ``fn`` is one numpy callable that takes a float or an ndarray alike and
    returns values of its shape.  |h(x)| <= growth_coeff (1 + x^growth_degree).
    Two test functions are equal when all but ``fn`` and the closed form
    are: each constructor call builds new closures, and the label names the
    function.
    """

    fn: Callable = field(compare=False)
    norms: tuple[float, float, float, float, float]  # sup|h|, |h'|, ..., |h''''|
    label: str
    growth_degree: int = 0
    growth_coeff: float = 1.0
    chisq_closed_form: Optional[Callable[[int], float]] = field(default=None, compare=False)
    knots: tuple[float, ...] = ()  # points where h is only piecewise smooth

    def norm(self, k: int) -> float:
        """sup-norm of the k-th derivative (k = 0 is the function itself)."""
        return self.norms[k]


def _wave(t: float, name: str, wave, part) -> TestFunction:
    """h(x) = wave(tx), wave = cos or sin: the k-th derivative has sup-norm |t|^k,
    and E[h(Y_p)] is ``part`` of E[e^{itY_p}] = (1 - 2it)^(-p/2)."""
    try:  # the norms carry t^4, so t must be finite and t^4 must not overflow
        fourth = t ** 4
    except OverflowError:
        fourth = math.inf
    if not math.isfinite(fourth):
        raise DomainError(f"frequency t must be finite with a finite t^4, got {t!r}")
    return TestFunction(
        fn=lambda x: wave(t * x),
        norms=(1.0, abs(t), t * t, abs(t) ** 3, fourth),
        label=f"{name}({t:g}x)",
        chisq_closed_form=lambda p: part((1.0 - 2.0j * t) ** (-p / 2.0)),
    )


def cosine(t: float) -> TestFunction:
    """h(x) = cos(tx)."""
    return _wave(t, "cos", np.cos, lambda z: z.real)


def sine(t: float) -> TestFunction:
    """h(x) = sin(tx)."""
    return _wave(t, "sin", np.sin, lambda z: z.imag)


def power(k: int) -> TestFunction:
    """h(x) = x^k on [0, inf): derivatives below order k are unbounded."""
    k = check_count(k, 1, "k")
    norms = [math.inf] * 5
    if k <= 4:
        norms[k] = float(math.factorial(k))
        for j in range(k + 1, 5):
            norms[j] = 0.0
    return TestFunction(
        fn=lambda x: x ** k,
        norms=tuple(norms),
        label=f"x^{k}",
        growth_degree=k,
        chisq_closed_form=lambda p: math.prod(p + 2.0 * j for j in range(k)),  # E[Y_p^k]
    )


def identity() -> TestFunction:
    return power(1)


def constant(c: float = 1.0) -> TestFunction:
    """h(x) = c, declared with the growth coefficient |c|."""
    if not math.isfinite(c):
        raise DomainError(f"constant c must be finite, got {c!r}")
    return TestFunction(
        fn=lambda x: np.full(np.shape(x), float(c))[()],
        norms=(abs(c), 0.0, 0.0, 0.0, 0.0),
        label=f"const({c:g})",
        growth_coeff=abs(c),
        chisq_closed_form=lambda p: c,
    )


_BUMP_KNOTS = (-1.0, -0.5, 0.5, 1.0)


def _bump_core(x):
    # Five-piece C^2 cubic ramp from 1 (x <= -1) down to 0 (x >= 1).
    x = np.asarray(x, dtype=float)
    return np.select([x <= -1.0, x <= -0.5, x <= 0.5, x <= 1.0],
                     [1.0, 1.0 - (2.0 / 3.0) * (x + 1.0) ** 3, (2.0 / 3.0) * x ** 3 - x + 0.5,
                      (2.0 / 3.0) * (1.0 - x) ** 3], 0.0)[()]


def smoothing_indicator(alpha: float, z: float) -> TestFunction:
    """Smoothed indicator h(x) = core(1 + 2(x - z)/alpha).

    Equals 1 for x <= z - alpha, 0 for x >= z, is nonincreasing and C^2 with
    Lipschitz second derivative; exact norms 2/alpha, 8/alpha^2, 32/alpha^3.
    The fourth derivative does not exist everywhere, so its slot is inf.
    """
    if not 0.0 < alpha < math.inf:  # also refuses NaN
        raise DomainError(f"alpha must be finite and positive, got {alpha!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    two_over = 2.0 / alpha
    return TestFunction(
        fn=lambda x: _bump_core(1.0 + two_over * (x - z)),
        norms=(1.0, 2.0 / alpha, 8.0 / alpha ** 2, 32.0 / alpha ** 3, math.inf),
        label=f"smoothed_indicator(alpha={alpha:g}, z={z:g})",
        knots=tuple(z + 0.5 * alpha * (c - 1.0) for c in _BUMP_KNOTS),
    )
