"""Every TestFunction builder keeps the growth and the norms it declares.

chisq_expectation truncates its integral by the declared growth and starts
its panel count from |h'|, and the bounds read the norms, so a declaration
that the function breaks is a wrong number downstream.
"""

import math

import numpy as np
import pytest

from friedman_bounds import testfunctions
from friedman_bounds.errors import DomainError
from friedman_bounds.testfunctions import (constant, cosine, identity, power, sine,
                                           smoothing_indicator)

BUILDS = {
    "cosine": [cosine(0.3), cosine(-2.5), cosine(0.0)],
    "sine": [sine(1.5), sine(-0.7)],
    "power": [power(k) for k in range(1, 7)],
    "identity": [identity()],
    "constant": [constant(), constant(-5.0), constant(0.0), constant(2.5)],
    "smoothing_indicator": [smoothing_indicator(0.5, 2.0), smoothing_indicator(3.0, 1.0),
                            smoothing_indicator(0.05, 0.5)],
}
CASES = [h for hs in BUILDS.values() for h in hs]
EPS = np.finfo(float).eps


def test_every_builder_is_covered():
    assert set(BUILDS) == set(testfunctions.__all__) - {"TestFunction"}


@pytest.mark.parametrize("h", CASES, ids=lambda h: h.label)
def test_declared_growth_bounds_the_function(h):
    xs = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(40.0, 1e4, 200)])
    bound = h.growth_coeff * (1.0 + xs ** h.growth_degree)
    assert np.all(np.abs(h.fn(xs)) <= bound * (1.0 + 4.0 * EPS))


@pytest.mark.parametrize("h", CASES, ids=lambda h: h.label)
def test_declared_norms_bound_central_differences(h):
    # the k-th central difference over step^k is an average of h^(k) wherever
    # h^(k-1) is absolutely continuous, so a finite sup|h^(k)| bounds it; the
    # slack covers rounding in the k + 1 values and in their arguments
    slope = h.norm(1) if math.isfinite(h.norm(1)) else 0.0
    step = 1.0 / (64.0 * max(1.0, slope))
    for k, norm in enumerate(h.norms):
        if not math.isfinite(norm):
            continue
        xs = np.linspace(k * step / 2.0, 20.0, 8001)
        stencil = np.array([h.fn(xs + (k / 2.0 - j) * step) for j in range(k + 1)])
        weights = np.array([(-1) ** j * math.comb(k, j) for j in range(k + 1)], dtype=float)
        diff = weights @ stencil / step ** k
        rounding = 8.0 * np.abs(stencil).max(axis=0) + slope * (xs + k * step)
        slack = 2 ** k * EPS * rounding / step ** k
        assert np.all(np.abs(diff) <= norm * (1.0 + 1e-12) + slack), (k, norm)


@pytest.mark.parametrize("alpha, z, match", [
    (float("nan"), 1.0, "alpha must be finite and positive, got nan"),
    (math.inf, 1.0, "alpha must be finite and positive, got inf"),
    (0.0, 1.0, "alpha must be finite and positive, got 0.0"),
    (-0.5, 1.0, "alpha must be finite and positive, got -0.5"),
    (0.5, float("nan"), "z must be finite, got nan"),
    (0.5, math.inf, "z must be finite, got inf"),
    (0.5, -math.inf, "z must be finite, got -inf"),
])
def test_smoothing_indicator_refuses_a_bad_width_or_edge(alpha, z, match):
    # a NaN alpha passed `alpha <= 0` and gave E[h(Y_p)] = 0.0 with no error
    with pytest.raises(DomainError, match=f"^{match}$"):
        smoothing_indicator(alpha, z)


@pytest.mark.parametrize("c", [float("nan"), math.inf, -math.inf])
def test_constant_refuses_a_non_finite_value(c):
    # a NaN constant ended in a ConvergenceError that blamed the panel rule
    with pytest.raises(DomainError, match=f"^constant c must be finite, got {c}$"):
        constant(c)
