"""One count rule at every entry point that takes r, n, p, k, a seed, a stream
or a number of trials, samples, cells, threads, rows or grid points.

errors.check_count takes any integer type (numpy's too) and refuses the rest
with a DomainError that names the argument: int() would run 2.5 at 2 and
accept "3", and a bool has __index__ but is no count, where True would run
as 1.
"""

import re

import numpy as np
import pytest

from friedman_bounds import (bounds, chisq, coupling, exact, exact_law, montecarlo, ranks,
                             stein, testfunctions)
from friedman_bounds.errors import DomainError, check_count

COS = testfunctions.cosine(1.0)
RNG = montecarlo.RngContract(seed=1)

# "function:argument" -> (function, valid keyword arguments, least value of the argument)
COUNT_TAKERS = {
    "bound_compact:n": (bounds.bound_compact, dict(n=3, r=3, norms=bounds.SmoothNorms()), 1),
    "bound_compact:r": (bounds.bound_compact, dict(n=3, r=3, norms=bounds.SmoothNorms()), 2),
    "sharp_coefficients:n": (bounds.sharp_coefficients, dict(n=3, r=3), 2),
    "sharp_coefficients:r": (bounds.sharp_coefficients, dict(n=3, r=3), 2),
    "bound_trivial:r": (bounds.bound_trivial, dict(r=3, h1=1.0), 2),
    "bound_r2_special:n": (bounds.bound_r2_special, dict(n=3, which="wasserstein"), 1),
    "bound_kolmogorov:n": (bounds.bound_kolmogorov, dict(n=3, r=3), 1),
    "bound_kolmogorov:r": (bounds.bound_kolmogorov, dict(n=3, r=3), 2),
    "bound_report:n": (bounds.bound_report, dict(n=3, r=3), 1),
    "bound_report:r": (bounds.bound_report, dict(n=3, r=3), 2),
    "ChiSquareLaw:p": (chisq.ChiSquareLaw, dict(p=3), 1),
    "rho_moment:r": (exact.rho_moment, dict(r=3, powers=(2, 1)), 2),
    "joint_moments:r": (exact.joint_moments, dict(r=3, n=2), 2),
    "joint_moments:n": (exact.joint_moments, dict(r=3, n=2), 1),
    "verify_lemma_formulas:r_max": (exact.verify_lemma_formulas, dict(r_max=3, n_max=2), 2),
    "verify_lemma_formulas:n_max": (exact.verify_lemma_formulas, dict(r_max=3, n_max=2), 1),
    "verify_inequalities:r_max": (exact.verify_inequalities, dict(r_max=3), 2),
    "verify_index_decomposition:r": (exact.verify_index_decomposition,
                                     dict(r=3, trials=2, seed=0), 3),
    "verify_index_decomposition:trials": (exact.verify_index_decomposition,
                                          dict(r=3, trials=2, seed=0), 1),
    "verify_index_decomposition:seed": (exact.verify_index_decomposition,
                                        dict(r=3, trials=2, seed=0), 0),
    **{f"verify_identities:{arg}": (exact.verify_identities,
                                    dict(r_max=3, trials=2, seed=0), least)
       for arg, least in (("r_max", 3), ("trials", 1), ("seed", 0))},
    "f_law:n": (exact_law.f_law, dict(n=3, r=3), 1),
    "f_law:r": (exact_law.f_law, dict(n=3, r=3), 2),
    **{f"{fn.__name__}:{arg}": (fn, dict(r=3, n=2), least)
       for fn in (coupling.verify_regression, coupling.verify_increment_moments,
                  coupling.verify_triple_structure) for arg, least in (("r", 2), ("n", 1))},
    **{f"{fn.__name__}:{arg}": (fn, dict(r=3, n=2), least)
       for fn in (exact.closed_s4, exact.closed_s6, exact.closed_s2s2)
       for arg, least in (("r", 2), ("n", 1))},
    "coupling.verify_suite:r_max": (coupling.verify_suite, dict(r_max=3, n_max=2), 2),
    "coupling.verify_suite:n_max": (coupling.verify_suite, dict(r_max=3, n_max=2), 1),
    "SteinSolution:p": (stein.SteinSolution, dict(p=2, h=COS), 1),
    "SteinSolution.derivative:k": (stein.SteinSolution(2, COS).derivative, dict(k=2, x=1.0), 1),
    "derivative_bound_check:k": (stein.derivative_bound_check, dict(p=2, h=COS, k=2), 1),
    "stein.verify_suite:p_max": (stein.verify_suite, dict(p_max=1), 1),
    "standard_grid:p": (stein.standard_grid, dict(p=3), 1),
    "standard_grid:points": (stein.standard_grid, dict(p=3, points=4), 1),
    "theoretical_covariance:r": (ranks.theoretical_covariance, dict(r=3), 2),
    "power:k": (testfunctions.power, dict(k=2), 1),
    "RngContract:seed": (montecarlo.RngContract, dict(seed=5, stream=2), 0),
    "RngContract:stream": (montecarlo.RngContract, dict(seed=5, stream=2), 0),
    "_sample_statistics:n": (montecarlo._sample_statistics,
                             dict(n=3, r=3, samples=1000, rng=RNG), 1),
    "_sample_statistics:r": (montecarlo._sample_statistics,
                             dict(n=3, r=3, samples=1000, rng=RNG), 2),
    "_sample_statistics:samples": (montecarlo._sample_statistics,
                                   dict(n=3, r=3, samples=1000, rng=RNG), 1000),
    **{f"distance:{arg}": (montecarlo.distance, dict(metric="kolmogorov", n=3, r=3, mode="mc",
                                                     samples=1000, rng=RNG, threads=1), least)
       for arg, least in (("n", 1), ("r", 2), ("samples", 1000), ("threads", 1))},
    # a fresh generator per call, so that equal counts draw equal rows
    **{f"uniform_rows:{arg}": (lambda count, r: montecarlo.uniform_rows(count, r, RNG.generator()),
                               dict(count=3, r=3), least)
       for arg, least in (("count", 1), ("r", 2))},
}

BELOW = object()  # stands for the integer just below the argument's range
REFUSED = {"2.5": 2.5, "2.0": 2.0, "str": "3", "None": None, "float64": np.float64(3.0),
           "True": True, "np.True_": np.True_, "below": BELOW}


def _call(key, value):
    fn, kwargs, _ = COUNT_TAKERS[key]
    return fn(**{**kwargs, key.split(":")[1]: value})


def _view(result):
    """What a result says, comparable with ==: a TestFunction's declarations
    and values (its lambdas differ per call), an array's entries."""
    if isinstance(result, testfunctions.TestFunction):
        return (result.label, result.norms, result.growth_degree, result.fn(2.5),
                result.chisq_closed_form(3))
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tolist()
    return result


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
@pytest.mark.parametrize("key", COUNT_TAKERS)
def test_counts_are_never_coerced(key, value):
    name, least = key.split(":")[1], COUNT_TAKERS[key][2]
    if value is BELOW:
        value, message = least - 1, f"need {name} >= {least}, got {least - 1}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _call(key, value)


@pytest.mark.parametrize("key", COUNT_TAKERS)
def test_counts_take_any_integer_type(key):
    plain = COUNT_TAKERS[key][1][key.split(":")[1]]
    expected = _view(_call(key, plain))
    for cast in (np.int64, np.int32):
        assert _view(_call(key, cast(plain))) == expected


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
def test_rate_experiment_counts_every_n_before_its_substream_cap(value):
    # a "3" in the list once met the 2**20 comparison first, as a TypeError
    if value is BELOW:
        value, message = 0, "need n >= 1, got 0"
    else:
        message = f"n must be an integer, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        montecarlo.rate_experiment(3, [2, value, 2 ** 20], testfunctions.power(2))


def test_derivative_orders_above_four_are_refused():
    # one rule, one message: derivative_bound_check leaves the order to derivative
    for refuse in (lambda: stein.SteinSolution(2, COS).derivative(5, 1.0),
                   lambda: stein.derivative_bound_check(2, COS, 5)):
        with pytest.raises(DomainError, match=r"^derivatives supported for k in 1\.\.4, got 5$"):
            refuse()


def test_bad_threads_are_refused_before_any_work(monkeypatch):
    # threads=0 once divided by zero and -4 ran every slab one row long
    monkeypatch.setattr(montecarlo, "_law", None)
    for threads in (0, -4):
        with pytest.raises(DomainError, match=f"^need threads >= 1, got {threads}$"):
            montecarlo.distance("kolmogorov", 50, 3, "mc", 200_000, RNG, threads=threads)


def test_a_sampled_law_needs_an_rng(monkeypatch):
    # once an AttributeError inside a worker; now refused before any chunk is drawn
    monkeypatch.setattr(montecarlo, "_column_sums", None)
    with pytest.raises(DomainError, match="needs an RngContract, got rng=None"):
        montecarlo.distance("kolmogorov", 5, 3, "mc", 2000)


@pytest.mark.parametrize("build, field", [
    (lambda v: chisq.ChiSquareLaw(v), "p"),
    (lambda v: stein.SteinSolution(v, COS), "p"),
    (lambda v: montecarlo.RngContract(seed=v), "seed"),
    (lambda v: montecarlo.RngContract(seed=1, stream=v), "stream"),
])
def test_stored_counts_are_python_ints(build, field):
    # a numpy count kept as given would, e.g., wrap the uint64 shift of a substream key
    for value in (np.int64(3), np.uint64(3), np.int32(3)):
        stored = getattr(build(value), field)
        assert type(stored) is int and stored == 3


def test_a_numpy_count_out_of_range_is_named_as_an_int():
    # the CLI's usage errors print this text, whatever integer type arrives
    with pytest.raises(DomainError, match=r"^need n >= 1, got 0$"):
        check_count(np.int64(0), 1, "n")
