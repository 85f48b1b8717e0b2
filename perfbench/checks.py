"""Output checks for every benchmark operation, each against a reference
computed here rather than by the package.

``check(call, returncode, stdout, earlier)`` returns ``(problems, work)``:
an empty problem list means the operation is correct, and ``work`` counts
what it did (rows ingested, samples drawn, verify entries passed/skipped).
``earlier`` maps the step labels already run in this round to their stdout.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special, stats

STATISTIC_REL_TOL = 1e-12   # F_r against the exact rank-sum value
P_VALUE_ABS_TOL = 1e-10     # p-value against scipy's chi-square survival function
EXACT_DK_ABS_TOL = 1e-9     # exact d_K against the reference enumeration
DKW_CONFIDENCE = 0.99


def dkw_half_width(samples: int) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - DKW_CONFIDENCE)) / (2.0 * samples))


def exact_statistic(rank_sums: list[int], n: int, r: int) -> Fraction:
    """F_r = 12/(n r (r+1)) sum_j R_j^2 - 3 n (r+1), in exact arithmetic."""
    return Fraction(12, n * r * (r + 1)) * sum(s * s for s in rank_sums) - 3 * n * (r + 1)


def _sup_gap(atoms: np.ndarray, probs: np.ndarray, df: int) -> float:
    """sup |F - G| of an atomic law against chi-square(df): both one-sided
    gaps at every atom."""
    after = np.cumsum(probs)
    before = after - probs
    cdf = stats.chi2.cdf(atoms, df)
    return float(np.max(np.maximum(after - cdf, cdf - before)))


def _r2_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and probabilities of F_2 = Q^2/n with Q = 2 Bin(n, 1/2) - n."""
    weights: dict[int, int] = {}
    for b in range(n + 1):
        k = abs(2 * b - n)
        weights[k] = weights.get(k, 0) + math.comb(n, b)
    ks = sorted(weights)
    atoms = np.array([k * k / n for k in ks])
    probs = np.array([float(Fraction(weights[k], 2 ** n)) for k in ks])
    return atoms, probs


@lru_cache(maxsize=None)
def r2_kolmogorov(n: int) -> float:
    """Exact d_K between F_2 and chi-square(1)."""
    return _sup_gap(*_r2_law(n), 1)


def _chisq1_cdf_integral(z: float) -> float:
    """int_0^z P(1/2, t/2) dt = z P(1/2, z/2) - P(3/2, z/2)."""
    return z * special.gammainc(0.5, z / 2.0) - special.gammainc(1.5, z / 2.0)


def _abs_gap_integral(c: float, lo: float, hi: float) -> float:
    """int_lo^hi |c - G(x)| dx for the chi-square(1) CDF G."""
    x = min(max(float(stats.chi2.ppf(c, 1)), lo), hi)
    ig = _chisq1_cdf_integral
    return (c * (x - lo) - (ig(x) - ig(lo))) + ((ig(hi) - ig(x)) - c * (hi - x))


@lru_cache(maxsize=None)
def r2_wasserstein(n: int) -> float:
    """Exact W1 between F_2 and chi-square(1): the integral of |F - G|."""
    atoms, probs = _r2_law(n)
    cum = np.minimum(np.cumsum(probs), 1.0)
    total = _abs_gap_integral(0.0, 0.0, float(atoms[0]))
    for i in range(len(atoms) - 1):
        total += _abs_gap_integral(float(cum[i]), float(atoms[i]), float(atoms[i + 1]))
    last = float(atoms[-1])
    return total + (1.0 - last + _chisq1_cdf_integral(last))  # int_last^inf (1 - G)


@lru_cache(maxsize=None)
def exact_kolmogorov(r: int, n: int) -> float:
    """Exact d_K of F_r by a convolution over *sorted* column-sum states.

    F_r is symmetric in the columns and the set of rank rows is closed under
    column permutations, so sorting the state after every trial keeps the
    configuration counts exact (a different engine from the package's).
    """
    perms = list(itertools.permutations(range(1, r + 1)))
    states: dict[tuple[int, ...], int] = {(0,) * r: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            for p in perms:
                key = tuple(sorted(a + b for a, b in zip(state, p)))
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    law: dict[int, int] = {}
    for state, count in states.items():
        sq = sum(v * v for v in state)
        law[sq] = law.get(sq, 0) + count
    total = math.factorial(r) ** n
    sqs = sorted(law)
    atoms = np.array([float(Fraction(12 * s, n * r * (r + 1)) - 3 * n * (r + 1)) for s in sqs])
    probs = np.array([law[s] / total for s in sqs])
    return _sup_gap(atoms, probs, r - 1)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_test(d: dict, spec: dict) -> list[str]:
    n, r = spec["n"], spec["r"]
    bad = []
    if (d["n"], d["r"]) != (n, r):
        bad.append(f"shape {d['n']}x{d['r']} != {n}x{r}")
    exact = exact_statistic(spec["rank_sums"], n, r)
    err = abs(Fraction(d["statistic"]) - exact)
    if err > STATISTIC_REL_TOL * exact:
        bad.append(f"statistic {d['statistic']!r} vs exact {float(exact)!r}")
    p_ref = float(stats.chi2.sf(float(exact), r - 1))
    if not abs(d["p_value"] - p_ref) <= P_VALUE_ABS_TOL:
        bad.append(f"p_value {d['p_value']!r} vs scipy {p_ref!r}")
    kol = d["kolmogorov_bound"]
    if kol != min(1.0, d["kolmogorov_raw"]):
        bad.append(f"kolmogorov_bound {kol!r} != min(1, raw)")
    lo, hi = d["p_value_interval"]
    if (lo, hi) != (max(0.0, d["p_value"] - kol), min(1.0, d["p_value"] + kol)):
        bad.append(f"p_value_interval {lo!r}, {hi!r} is not p -/+ bound clipped to [0, 1]")
    return bad


def _check_distance(d: dict, spec: dict) -> list[str]:
    bad = []
    for key in ("metric", "r", "n"):
        if d[key] != spec[key]:
            bad.append(f"{key} {d[key]!r} != {spec[key]!r}")
    est, hw, bound = d["estimate"], d["half_width"], d["bound"]
    if spec["mode"] == "exact":
        if d["method"] != "exact-enumeration" or hw != 0.0:
            bad.append(f"exact mode reports method {d['method']!r}, half_width {hw!r}")
        ref = exact_kolmogorov(spec["r"], spec["n"])
        if not abs(est - ref) <= EXACT_DK_ABS_TOL:
            bad.append(f"exact d_K {est!r} vs reference {ref!r}")
    else:
        samples = spec["samples"]
        if d["method"] != "monte-carlo" or d["samples"] != samples:
            bad.append(f"method {d['method']!r} with {d['samples']} samples, "
                       f"expected monte-carlo with {samples}")
        dkw = dkw_half_width(samples)
        if spec["metric"] == "kolmogorov":
            if not _close(hw, dkw, 1e-12):
                bad.append(f"half_width {hw!r} != DKW {dkw!r}")
            if not (0.0 <= est <= 1.0 and 0.0 < bound <= 1.0):
                bad.append(f"estimate {est!r} or bound {bound!r} outside [0, 1]")
        elif spec["metric"] == "wasserstein":
            if not hw >= dkw * (2.0 + 40.0 * math.sqrt(2.0)) * (1.0 - 1e-12):
                bad.append(f"half_width {hw!r} below DKW times the shortest cutoff")
        else:  # cos: 99% CLT bar of a function bounded by 1
            cap = 2.576 / math.sqrt(samples - 1)
            if not 0.0 < hw <= cap:
                bad.append(f"half_width {hw!r} outside (0, {cap!r}]")
        if spec["r"] == 2:
            ref = (r2_kolmogorov if spec["metric"] == "kolmogorov" else r2_wasserstein)(spec["n"])
            if not abs(est - ref) <= 2.0 * hw:
                bad.append(f"estimate {est!r} is more than 2 half-widths from exact {ref!r}")
    if not est >= 0.0:
        bad.append(f"negative estimate {est!r}")
    if d["within_bound"] is not (est <= bound + hw):
        bad.append(f"within_bound {d['within_bound']!r} contradicts {est!r} <= {bound!r} + {hw!r}")
    elif not d["within_bound"]:
        bad.append(f"estimate {est!r} exceeds bound {bound!r} + {hw!r}")
    return bad


def _check_verify(entries: list[dict]) -> tuple[list[str], dict]:
    bad = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for e in entries:
        status = e.get("status")
        if status not in counts or "identity" not in e:
            bad.append(f"malformed entry {e!r}")
            continue
        counts[status] += 1
        if status == "fail":
            bad.append(f"fail: {e['identity']} at r={e.get('r')}, n={e.get('n')}: "
                       f"{e.get('lhs')} vs {e.get('rhs')}")
    if not entries:
        bad.append("no verify entries")
    return bad, {"passed": counts["pass"], "skipped": counts["skip"]}


def _check_rate(rows: list[dict], spec: dict) -> list[str]:
    bad = []
    r = spec["r"]
    if [row.get("n") for row in rows] != spec["n"]:
        bad.append(f"rows for n = {[row.get('n') for row in rows]}, expected {spec['n']}")
    for row in rows:
        n, gap, hw = row["n"], row["gap"], row["half_width"]
        target = 2.0 * (r - 1) / n  # E[F_r^2] - E[Y_{r-1}^2] = 2(r-1)/n
        if row["r"] != r or row["h"] != "x^2":
            bad.append(f"n={n}: row is for r={row['r']}, h={row['h']!r}")
        if row["method"] == "exact-enumeration":
            if hw != 0.0 or not _close(gap, target, 1e-12):
                bad.append(f"n={n}: exact gap {gap!r} (half_width {hw!r}) != 2(r-1)/n = {target!r}")
        elif row["method"] == "monte-carlo":
            if row["samples"] != spec["samples"] or not hw > 0.0:
                bad.append(f"n={n}: {row['samples']} samples, half_width {hw!r}")
            if not abs(gap - target) <= 4.0 * hw:
                bad.append(f"n={n}: Monte Carlo gap {gap!r} more than 4 half-widths "
                           f"({hw!r}) from 2(r-1)/n = {target!r}")
        else:
            bad.append(f"n={n}: unknown method {row['method']!r}")
        if not _close(row["n_times_gap"], n * gap, 1e-12):
            bad.append(f"n={n}: n_times_gap {row['n_times_gap']!r} != n * gap")
        if row["gap_below_bound"] is False:
            bad.append(f"n={n}: gap {gap!r} above the selected bound {row['bound_selected']!r}")
    return bad


def check(call, returncode: int, stdout: str, earlier: dict[str, str]) -> tuple[list[str], dict]:
    """Check one operation: its exit code and every field of its output."""
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        if call.kind == "verify":
            bad, work = _check_verify(lines)
        else:
            if call.kind != "rate" and len(lines) != 1:
                return [f"expected one JSON line, got {len(lines)}"], {}
            if call.kind == "test":
                bad, work = _check_test(lines[0], call.spec), {"rows": call.spec["n"]}
            elif call.kind == "distance":
                bad = _check_distance(lines[0], call.spec)
                work = {"samples": lines[0]["samples"]}
            else:
                bad, work = _check_rate(lines, call.spec), {}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    same_as = call.spec.get("same_stdout_as")
    if same_as is not None and earlier.get(same_as) != stdout:
        bad.append(f"stdout differs from step {same_as!r} (thread-count determinism)")
    if returncode != 0:
        bad.append(f"exit code {returncode}, expected 0")
    return bad, work
