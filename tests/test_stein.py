"""Stein equation solver: residuals, derivative caps, the operator link."""

import dataclasses

import mpmath
import numpy as np
import pytest

from friedman_bounds import chisq, chisq_expectation
from friedman_bounds.errors import ConvergenceError, DomainError
from friedman_bounds.stein import (SteinSolution, derivative_bound_check, standard_grid,
                                   stein_residual, verify_operator_link, verify_suite)
from friedman_bounds.testfunctions import constant, cosine, identity, power, sine


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
    for r, n in [(2, 2), (2, 3), (4, 1)]:
        assert verify_operator_link(r, n, cosine(0.5))["status"] == "pass"


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
    with pytest.raises(DomainError, match="p_max=0"):
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
