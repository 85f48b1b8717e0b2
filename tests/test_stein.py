"""Stein equation solver: residuals, derivative caps, the operator link."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from friedman_bounds import chisq, chisq_expectation, stein
from friedman_bounds.errors import BudgetError, ConvergenceError, DomainError
from friedman_bounds.stein import (SteinSolution, derivative_bound_check, standard_grid,
                                   stein_residual, verify_operator_link, verify_suite)
from friedman_bounds.testfunctions import (constant, cosine, identity, power, sine,
                                           smoothing_indicator)


def shifted(h, c):
    return dataclasses.replace(h, fn=lambda x: h.fn(x) + c, label=f"{h.label}+{c}",
                               growth_coeff=h.growth_coeff + abs(c),
                               chisq_closed_form=None)


def test_identity_gives_constant_fprime():
    for p in (1, 2, 4, 9):
        sol = SteinSolution(p, identity())
        for x in (0.05, 0.7, float(p), p + 15.0):
            assert sol.fprime(x) == pytest.approx(-2.0, abs=1e-9)


def test_constant_test_function_gives_zero():
    sol = SteinSolution(3, constant(4.2))
    for x in (0.2, 2.0, 11.0):
        assert sol.fprime(x) == pytest.approx(0.0, abs=1e-10)


def test_residual_examples():
    assert stein_residual(4, identity(), 1.0) <= 1e-6
    sol = SteinSolution(3, cosine(1.0))
    for x in (0.5, 2.0, 10.0):
        assert stein_residual(3, cosine(1.0), x, solution=sol) <= 1e-6
    assert stein_residual(1, cosine(2.0), 0.25) <= 1e-5  # singular-density case


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("make", [lambda: cosine(1.0), lambda: sine(1.0), lambda: identity()])
def test_residual_on_grid(p, make):
    h = make()
    sol = SteinSolution(p, h)
    worst = max(stein_residual(p, h, float(x), solution=sol)
                for x in standard_grid(p, points=80))
    assert worst <= 1e-5


def test_shift_invariance():
    # h and h + c give the same f' because h - E h(Y) is unchanged
    h = cosine(1.0)
    sol_a = SteinSolution(4, h)
    sol_b = SteinSolution(4, shifted(h, 3.7))
    for x in (0.3, 2.0, 9.0):
        assert sol_a.fprime(x) == pytest.approx(sol_b.fprime(x), abs=1e-9)


def test_derivative_bound_checks():
    rep = derivative_bound_check(3, identity(), 1)
    assert rep["caps"]["luk"] == 2.0
    assert rep["observed_sup"] == pytest.approx(2.0, abs=1e-8)
    assert rep["holds"]["luk"]

    rep = derivative_bound_check(4, cosine(1.0), 2)
    assert set(rep["caps"]) == {"luk", "one_lower", "two_lower"}
    assert all(rep["holds"].values())

    rep = derivative_bound_check(20, cosine(1.0), 3)
    assert rep["caps"]["two_lower"] == pytest.approx((4 / 24) * 5, abs=1e-12)
    assert all(rep["holds"].values())

    rep = derivative_bound_check(3, cosine(1.0), 4)
    assert all(rep["holds"].values())


def test_operator_link_examples():
    out = verify_operator_link(3, 2, constant(2.0))
    assert out["status"] == "pass"
    assert abs(out["direct_gap"]) <= 1e-12

    out = verify_operator_link(3, 2, identity())
    assert out["status"] == "pass"
    # E[F] - (r-1) = 0: both operator averages vanish
    assert out["chisq_operator_mean"] == pytest.approx(0.0, abs=1e-8)

    out = verify_operator_link(3, 2, cosine(1.0))
    assert out["status"] == "pass"
    assert out["operator_agreement"] <= 1e-5
    assert out["stein_identity_residual"] <= 1e-5


def test_operator_link_other_designs():
    for r, n in [(2, 2), (2, 3), (4, 1), (4, 3), (5, 2)]:
        assert verify_operator_link(r, n, cosine(0.5))["status"] == "pass"


def wrong_trace(r):
    # I - J/(r+1) fixes every row (a row sums to 0), but its trace is r - r/(r+1)
    return np.eye(r) - 1.0 / (r + 1)


def perturbed_pair(r):
    sigma = np.eye(r) - 1.0 / r
    sigma[0, 1] += 0.1
    sigma[1, 0] += 0.1
    return sigma


@pytest.mark.parametrize("wrong", [wrong_trace, perturbed_pair])
def test_operator_link_fails_on_a_wrong_covariance(monkeypatch, wrong):
    monkeypatch.setattr(stein, "theoretical_covariance", wrong)
    for r, n in [(3, 2), (4, 3)]:
        out = verify_operator_link(r, n, cosine(1.0))
        assert out["status"] == "fail"
        assert out["operator_agreement"] >= 0.1
        assert out["stein_identity_residual"] <= 1e-5  # the Stein half reads no Sigma


def test_operator_agreement_is_the_same_for_every_h():
    # the covariance half reads Sigma and one trial's rows, never f'
    for r, n in [(3, 2), (5, 2)]:
        got = {verify_operator_link(r, n, h)["operator_agreement"]
               for h in (cosine(1.0), sine(1.0), identity(), constant(2.0))}
        assert len(got) == 1, (r, n, got)


def test_the_p_walk_is_charged_before_any_residual(monkeypatch):
    # 900 f' evaluations per p: p_max = 222 fits
    monkeypatch.setattr(stein, "standard_grid", None)
    with pytest.raises(BudgetError, match=r"p=1\.\.223 needs 200700 enumerated terms"):
        stein.verify_suite(223)


def test_operator_link_refuses_bad_cells_before_building_rows(monkeypatch):
    def no_sigma(r):
        raise AssertionError("the covariance was read before the law")

    monkeypatch.setattr(stein, "theoretical_covariance", no_sigma)
    for n in (0, -1):
        with pytest.raises(DomainError, match="need n >= 1"):
            verify_operator_link(3, n, cosine(1.0))
    with pytest.raises(BudgetError, match="r=3, n=64"):
        verify_operator_link(3, 64, cosine(1.0))


@pytest.mark.parametrize("p", range(1, 11))
def test_square_has_linear_fprime(p):
    # h(t) = t^2 solves the Stein equation with f'(x) = -2x - 2p - 4, on both
    # sides of the lower/tail switch at x = p + 2
    grid = standard_grid(p)
    assert grid.min() < p + 2.0 < grid.max()
    got = SteinSolution(p, power(2)).fprime(grid)
    assert np.max(np.abs(got - (-2.0 * grid - 2.0 * p - 4.0))) <= 1e-10


def mp_cos_fprime(p, t, x):
    """30-digit f' for h = cos(t x): with z = 1/2 - it, the integral of
    s^{a-1} e^{-s/2} cos(ts) over (0, x) is Re z^{-a} gamma(a, z x)."""
    with mpmath.workdps(30):
        a, t, x = mpmath.mpf(p) / 2, mpmath.mpf(t), mpmath.mpf(x)
        z = mpmath.mpf(1) / 2 - 1j * t
        mean = mpmath.re((1 - 2j * t) ** (-a))
        body = (mpmath.re(z ** (-a) * mpmath.gammainc(a, 0, z * x))
                - mean * 2 ** a * mpmath.gammainc(a, 0, x / 2))
        return float(mpmath.exp(x / 2) * x ** (-a) * body)


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_cosine_fprime_against_incomplete_gamma(p, t):
    xs = np.array([0.4, p + 1.5, p + 2.5, p + 6.0, p + 20.0])
    got = SteinSolution(p, cosine(t)).fprime(xs)
    for x, value in zip(xs, got):
        assert value == pytest.approx(mp_cos_fprime(p, t, x), abs=1e-10), (p, t, x)


def test_array_and_scalar_calls_agree():
    sol = SteinSolution(3, cosine(2.0))
    grid = standard_grid(3, points=40)
    assert isinstance(sol.fprime(2.0), float) and isinstance(sol.derivative(2, 2.0), float)
    assert sol.fprime(grid[:36].reshape(4, 9)).shape == (4, 9)
    for k in (1, 2, 3, 4):
        together = sol.derivative(k, grid)
        alone = [sol.derivative(k, float(x)) for x in grid]
        assert np.allclose(together, alone, rtol=0.0, atol=1e-11 * 10 ** k), k
    residuals = stein_residual(3, sol.h, grid, solution=sol)
    assert residuals == pytest.approx([stein_residual(3, sol.h, float(x), solution=sol)
                                       for x in grid], abs=1e-8)


def test_fprime_refuses_nonpositive_x():
    sol = SteinSolution(2, cosine(1.0))
    for bad in (0.0, -1.0, float("nan"), np.array([1.0, 0.0])):
        with pytest.raises(DomainError):
            sol.fprime(bad)


def test_residual_refuses_a_solution_for_another_problem():
    sol = SteinSolution(3, cosine(1.0))
    assert stein_residual(3, cosine(1.0), 2.0, solution=sol) <= 1e-6  # an equal h is fine
    with pytest.raises(DomainError, match="p=3"):
        stein_residual(4, cosine(1.0), 2.0, solution=sol)
    with pytest.raises(DomainError, match="sin"):
        stein_residual(3, sine(1.0), 2.0, solution=sol)
    with pytest.raises(DomainError):
        stein_residual(3, cosine(2.0), 2.0, solution=sol)


def test_frequency_past_the_panel_cap_raises():
    with pytest.raises(ConvergenceError):
        SteinSolution(3, cosine(1e4))
    # E h of that h is past the cap too, so reach the f' rule with h swapped in afterwards
    sol = SteinSolution(3, cosine(1.0))
    sol.h = cosine(1e6)
    for x in (2.0, 9.0):  # lower and tail form
        with pytest.raises(ConvergenceError, match=rf"x={x}.*p=3.*panels give"):
            sol.fprime(x)



def test_suite_refuses_no_degrees_of_freedom():
    # p_max = 0 would run no residual
    with pytest.raises(DomainError, match="need p_max >= 1, got 0"):
        verify_suite(0)


def _panel_outputs():
    return (verify_suite(3),
            [chisq_expectation(p, h) for p in range(1, 7)
             for h in (cosine(1.0), sine(1.0), power(2))],
            SteinSolution(3, cosine(1.0)).fprime(standard_grid(3)).tolist())


@pytest.mark.parametrize("block", [7 * 20, 1 << 18])
def test_node_block_changes_no_digit(monkeypatch, block):
    # a row's panel sum does not depend on how rows are grouped into blocks:
    # 7 * 20 nodes is one row of 7 panels, 2^18 the block size before
    default = _panel_outputs()
    monkeypatch.setattr(chisq, "_NODE_BLOCK", block)
    assert _panel_outputs() == default


def reference_tail(sol, xs):
    """The per-x tail integral the sweep replaced, as its reference: every x
    integrates its own copy of the tail from x to x + S, with S the first
    16 * 1.25^j whose tail-mass bound is below _FPRIME_TOL/100 at every x."""
    p, h, eh = sol.p, sol.h, sol.chisq_h
    a = p / 2.0
    scale = np.exp(xs / 2.0 - a * np.log(xs) + a * math.log(2.0) + math.lgamma(a))
    span = 16.0
    while not np.all(scale * chisq._tail_mass_bound(p, xs + span, h.growth_degree,
                                                    h.growth_coeff + abs(eh))
                     < stein._FPRIME_TOL / 100.0):
        span *= 1.25

    def integrand(s, x):
        return np.exp((a - 1.0) * np.log1p(s / x) - 0.5 * s) * (h.fn(x + s) - eh) / x

    knots = np.asarray(h.knots, dtype=float) - xs[:, None]
    return -chisq._converged_rule(integrand, np.full(xs.size, span), knots, span, h.norm(1),
                                  stein._FPRIME_TOL / 2.0, str, cols=(xs,))


def stencil_points(p, points=200):
    """Every point of the f'' stencils on standard_grid(p), flattened."""
    grid = standard_grid(p, points)
    step = np.minimum(np.finfo(float).eps ** 0.25 * np.maximum(1.0, grid), grid / 8.0)
    return (grid[:, None] + step[:, None] * np.arange(-2.0, 3.0)).ravel()


SWEEP_FUNCTIONS = {"cos": lambda p: cosine(1.0), "sin": lambda p: sine(1.0),
                   "x": lambda p: identity(), "cos3": lambda p: cosine(3.0),
                   "indicator": lambda p: smoothing_indicator(1.0, p + 4.0)}


@pytest.mark.parametrize("name", sorted(SWEEP_FUNCTIONS))
@pytest.mark.parametrize("p", range(1, 9))
def test_tail_sweep_matches_the_per_x_reference(p, name):
    sol = SteinSolution(p, SWEEP_FUNCTIONS[name](p))
    xs = stencil_points(p)
    xs = xs[xs > p + 2.0]
    assert np.max(np.abs(sol.fprime(xs) - reference_tail(sol, xs))) <= 1e-12


def test_tail_sweep_takes_x_in_any_order_with_repeats():
    sol = SteinSolution(4, smoothing_indicator(1.0, 8.0))
    grid = stencil_points(4, points=60)
    xs = np.random.default_rng(5).permutation(np.concatenate([grid, grid[::7], grid[-3:]]))
    got = sol.fprime(xs)
    for x, value in zip(grid, sol.fprime(grid)):
        assert np.all(got[xs == x] == value), x


def test_tail_value_alone_agrees_with_the_grid():
    for p in (1, 6):
        sol = SteinSolution(p, cosine(1.0))
        xs = stencil_points(p, points=60)
        together = sol.fprime(xs)
        for i in range(0, xs.size, 37):
            assert sol.fprime(float(xs[i])) == pytest.approx(together[i], abs=1e-12), xs[i]


@pytest.mark.parametrize("p", [1, 6])
def test_residual_grid_evaluates_h_on_few_nodes(p):
    # each tail x used to integrate its own copy of the tail: 139,858 h
    # evaluations at p = 1 and 169,258 at p = 6 for one 60-point grid
    calls = []
    base = cosine(1.0)
    h = dataclasses.replace(base, fn=lambda x: calls.append(np.size(x)) or base.fn(x))
    sol = SteinSolution(p, h)
    calls.clear()
    stein_residual(p, h, standard_grid(p, points=60), solution=sol)
    assert sum(calls) <= 40_000


def mp_tail_fprime(p, x):
    """20-digit f'(x) = -x^{-a} int_0^inf (x+s)^{a-1} e^{-s/2} [cos(x+s) - E cos(Y_p)] ds
    by mpmath quadrature, a = p/2."""
    with mpmath.workdps(20):
        a, x = mpmath.mpf(p) / 2, mpmath.mpf(x)
        mean = mpmath.re((1 - 2j) ** (-a))

        def g(s):
            return (1 + s / x) ** (a - 1) * mpmath.exp(-s / 2) * (mpmath.cos(x + s) - mean) / x
        return float(-mpmath.quad(g, mpmath.linspace(0, 90, 16) + [mpmath.inf]))


@pytest.mark.parametrize("p", [1, 3, 8])
def test_fprime_at_large_x(p):
    # e^{x/2} overflowed the truncation test from x = 1,500 on
    sol = SteinSolution(p, cosine(1.0))
    xs = np.array([1_500.0, 1e4])
    together = sol.fprime(xs)
    for i, x in enumerate(xs):
        want = mp_tail_fprime(p, x)
        assert together[i] == pytest.approx(want, abs=1e-12), x
        assert sol.fprime(x) == pytest.approx(want, abs=1e-12), x
    # x far apart sweep apart: each value as if alone, and no rows between them
    calls = []
    sol.h = dataclasses.replace(sol.h, fn=lambda x: calls.append(np.size(x)) or np.cos(x))
    far = np.array([p + 4.0, 1e4, 1e6, 1e4 + 60.0])
    together = sol.fprime(far)
    assert sum(calls) <= 20_000
    assert np.allclose(together, [sol.fprime(x) for x in far], rtol=0.0, atol=1e-12)
    with pytest.raises(DomainError, match="finite x > 0, got inf"):
        sol.fprime(math.inf)
