"""Stein equation solver: residuals, derivative caps, the operator link."""

import dataclasses

import pytest

from friedman_bounds.stein import (SteinSolution, derivative_bound_check, standard_grid,
                                   stein_residual, verify_operator_link)
from friedman_bounds.testfunctions import constant, cosine, identity, sine


def shifted(h, c):
    return dataclasses.replace(h, fn=lambda x: h.fn(x) + c, label=f"{h.label}+{c}",
                               growth_coeff=h.growth_coeff + abs(c),
                               chisq_closed_form=None, vector_fn=None)


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
