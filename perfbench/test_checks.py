"""Self-tests of the benchmark's output checks: each check accepts a correct
output and rejects a corrupted one.

Run with ``python3 perfbench/test_checks.py`` (or ``python3 -m pytest
perfbench/test_checks.py``); no CLI call is made.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from scipy import stats  # noqa: E402

import checks  # noqa: E402
from workloads import Call  # noqa: E402

# four trials ranking three treatments: rank sums 7, 8, 9 and F_r = 1/2
TEST_SPEC = {"n": 4, "r": 3, "rank_sums": [7, 8, 9]}


def make_test_output(statistic: float = 0.5) -> str:
    p = float(stats.chi2.sf(0.5, 2))
    return json.dumps({"n": 4, "r": 3, "statistic": statistic, "p_value": p,
                       "kolmogorov_raw": 2.5, "kolmogorov_bound": 1.0,
                       "p_value_interval": [0.0, 1.0], "unit_norm_bounds": {}})


def distance_output(estimate: float, half_width: float, bound: float, within: bool,
                    n: int = 400, r: int = 2, samples: int = 200_000,
                    method: str = "monte-carlo") -> str:
    return json.dumps({"metric": "kolmogorov", "n": n, "r": r, "estimate": estimate,
                       "half_width": half_width, "samples": samples, "method": method,
                       "bound": bound, "within_bound": within})


def rate_rows(gaps: dict[int, float], mc_half_width: float = 0.1) -> str:
    rows = []
    for n, gap in gaps.items():
        exact = n <= 9
        rows.append({"n": n, "r": 3, "h": "x^2", "gap": gap, "n_times_gap": n * gap,
                     "half_width": 0.0 if exact else mc_half_width,
                     "method": "exact-enumeration" if exact else "monte-carlo",
                     "samples": 6 ** n if exact else 200_000, "bound_compact": None,
                     "bound_sharp": None, "bound_trivial": None, "bound_selected": None,
                     "gap_below_bound": None})
    return "\n".join(json.dumps(row) for row in rows) + "\n"


MC_SPEC = {"r": 2, "n": 400, "metric": "kolmogorov", "samples": 200_000, "mode": "mc"}
RATE_SPEC = {"r": 3, "n": [2, 4, 16], "samples": 200_000}


def problems(call: Call, stdout: str, returncode: int = 0, earlier=None) -> list[str]:
    return checks.check(call, returncode, stdout, earlier or {})[0]


def test_statistic_check():
    call = Call("scores", [], "test", TEST_SPEC)
    assert problems(call, make_test_output()) == []
    assert problems(call, make_test_output(0.5 * (1 + 1e-9)))
    assert problems(call, make_test_output(), returncode=3)


def test_within_bound_check():
    hw = checks.dkw_half_width(200_000)
    est = checks.r2_kolmogorov(400) + 0.5 * hw
    call = Call("k2x400", [], "distance", MC_SPEC)
    assert problems(call, distance_output(est, hw, 0.04748, True)) == []
    assert problems(call, distance_output(est, hw, 0.04748, False), returncode=1)
    assert problems(call, distance_output(est, hw, 0.04748, False))
    assert problems(call, distance_output(est + 3 * hw, hw, 0.04748, True))  # off the exact d_K
    assert problems(call, distance_output(est, 1.01 * hw, 0.04748, True))    # not the DKW width


def test_exact_distance_check():
    spec = {"r": 4, "n": 5, "metric": "kolmogorov", "mode": "exact"}
    call = Call("exact4x5", [], "distance", spec)
    ref = checks.exact_kolmogorov(4, 5)
    good = distance_output(ref, 0.0, 1.0, True, n=5, r=4, samples=24 ** 5,
                           method="exact-enumeration")
    assert problems(call, good) == []
    bad = distance_output(ref + 1e-6, 0.0, 1.0, True, n=5, r=4, samples=24 ** 5,
                          method="exact-enumeration")
    assert problems(call, bad)


def test_thread_determinism_check():
    hw = checks.dkw_half_width(200_000)
    spec = dict(MC_SPEC, r=3, n=50, same_stdout_as="k3x50")
    call = Call("k3x50-t2", [], "distance", spec)
    one = distance_output(0.03, hw, 1.0, True, n=50, r=3) + "\n"
    assert problems(call, one, earlier={"k3x50": one}) == []
    other = distance_output(0.03 + 1e-12, hw, 1.0, True, n=50, r=3) + "\n"
    assert problems(call, other, earlier={"k3x50": one})


def test_verify_check():
    call = Call("verify", [], "verify")
    entries = [{"identity": "E[rho] = 0", "r": 3, "n": None, "status": "pass", "lhs": "0",
                "rhs": "0"},
               {"identity": "E[rho rho' rho''] = 0", "r": 2, "n": None, "status": "skip",
                "lhs": "-", "rhs": "-"}]
    good = "\n".join(json.dumps(e) for e in entries)
    found, work = checks.check(call, 0, good, {})
    assert found == [] and work == {"passed": 1, "skipped": 1}
    failed = dict(entries[0], status="fail", lhs="1")
    assert problems(call, good + "\n" + json.dumps(failed))
    assert problems(call, "")


def test_rate_check():
    call = Call("rate", [], "rate", RATE_SPEC)
    identity = {n: 2.0 * 2 / n for n in RATE_SPEC["n"]}
    assert problems(call, rate_rows(identity)) == []
    assert problems(call, rate_rows({**identity, 4: identity[4] * (1 + 1e-9)}))
    assert problems(call, rate_rows({**identity, 16: identity[16] + 0.5}))
    assert problems(call, rate_rows({2: 2.0, 4: 1.0}))  # a requested n is missing


def test_references():
    # F_2 at n = 1 is 1 with certainty: d_K = max(G(1), 1 - G(1)), W1 = E|Y_1 - 1|
    g1 = stats.chi2.cdf(1.0, 1)
    assert math.isclose(checks.r2_kolmogorov(1), max(g1, 1.0 - g1), rel_tol=1e-12)
    w1 = stats.chi2.expect(lambda y: abs(y - 1.0), args=(1,), epsabs=1e-13, epsrel=1e-13)
    assert math.isclose(checks.r2_wasserstein(1), w1, rel_tol=1e-9)
    assert math.isclose(checks.exact_kolmogorov(2, 12), checks.r2_kolmogorov(12), rel_tol=1e-12)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checker self-tests passed")
