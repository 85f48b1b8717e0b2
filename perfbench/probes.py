"""Per-layer probes: direct calls into each module's public functions.

Usage: python3 perfbench/probes.py <seed> <data dir> <result.json>

Every probe starts with all ``lru_cache``s of the package cleared, so each
one runs cold, as it would in a fresh CLI process.  Sizes are fixed here and
are smaller than the workloads' where a full-size call would dominate the
traced run (see ``SIZES``).  Each probe also checks its own output; any
problem is listed under ``problems`` in the result.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

SIZES = {
    "csv_scale": 4,             # ranks probes read the ingest CSVs at 1/4 of their rows
    "mc_samples": 32_768,       # two sampler chunks per Monte Carlo probe
    "thread_samples": 65_536,   # four chunks, so two threads split evenly
    "decomposition_trials": 10,  # the CLI's verify uses 100
    "min_rate_s": 0.3,          # rate probes repeat their call for at least this long
}

MC_CELLS = ((2, 400), (3, 50), (5, 200), (8, 50), (10, 20))
EXACT_CELLS = ((3, 8), (4, 5), (5, 3), (6, 2))
COUPLING_CELL = (4, 3)


class Probes:
    def __init__(self, seed: int, data_dir: Path):
        from friedman_bounds import (bounds, chisq, coupling, exact, montecarlo, ranks,
                                     stein, testfunctions)
        self.mods = (bounds, chisq, coupling, exact, montecarlo, ranks, stein, testfunctions)
        self.seed = seed
        self.data_dir = data_dir
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.spans: list[list] = []

    def cold(self) -> None:
        for mod in self.mods:
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()

    def timed(self, name: str, fn, *args, **kwargs):
        """One cold call; records its span and returns (seconds, result)."""
        self.cold()
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append([name, start, end, -1])
        return end - start, out

    def rate(self, name: str, fn, units: float) -> float:
        """Units per second over repeated calls lasting at least min_rate_s."""
        self.cold()
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SIZES["min_rate_s"]:
                break
        self.spans.append([name, start, start + elapsed, -1])
        return units * calls / elapsed

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    # -- layers ---------------------------------------------------------------

    def ranks_layer(self) -> None:
        from friedman_bounds import ranks
        files = workloads.make_csvs(self.seed, self.data_dir, scale=SIZES["csv_scale"])
        rows = 0
        for f in files:
            s, matrix = self.timed(f"ranks.load_csv.{f['name']}", ranks.load_csv,
                                   f["path"], f["format"])
            self.metrics[f"ranks.load_csv.{f['name']}.s"] = s
            rows += f["n"]
            stat = ranks.friedman_statistic(matrix).f_r
            exact = float(checks.exact_statistic(f["rank_sums"], f["n"], f["r"]))
            self.expect(abs(stat - exact) <= 1e-12 * exact, f"F_r of {f['name']} probe")
            if f["format"] == "scores":
                parsed = np.loadtxt(f["path"], delimiter=",", skiprows=int(f["header"]))
                s, _ = self.timed(f"ranks.ranks_from_scores.{f['name']}",
                                  ranks.ranks_from_scores, parsed)
                self.metrics[f"ranks.ranks_from_scores.{f['name']}.s"] = s
            if f["name"] == "scores":
                per_s = self.rate("ranks.friedman_statistic",
                                  lambda m=matrix: ranks.friedman_statistic(m), 1.0)
                self.metrics["ranks.friedman_statistic.s"] = 1.0 / per_s
        self.metrics["ranks.rows"] = rows

    def chisq_bounds_layers(self) -> None:
        from friedman_bounds import bounds, chisq, testfunctions
        grid = np.linspace(0.0, 60.0, 200_001)
        law1 = chisq.ChiSquareLaw(1)
        self.metrics["chisq.chisq_cdf_array.evals_per_s"] = self.rate(
            "chisq.chisq_cdf_array", lambda: chisq.chisq_cdf_array(law1, grid), grid.size)
        xs = [float(x) for x in np.linspace(0.01, 60.0, 400)]
        laws = [chisq.ChiSquareLaw(p) for p in range(1, 6)]
        self.metrics["chisq.chisq_cdf.evals_per_s"] = self.rate(
            "chisq.chisq_cdf", lambda: [chisq.chisq_cdf(law, x) for law in laws for x in xs],
            len(laws) * len(xs))
        cos = testfunctions.cosine(1.0)
        self.metrics["chisq.chisq_expectation.calls_per_s"] = self.rate(
            "chisq.chisq_expectation",
            lambda: [chisq.chisq_expectation(chisq.ChiSquareLaw(p), cos) for p in range(1, 11)], 10)
        self.expect(abs(chisq.chisq_expectation(chisq.ChiSquareLaw(2), cos) - 0.2) <= 1e-9,
                    "E[cos(Y_2)] = Re (1 - 2i)^-1 = 0.2")
        norms = bounds.SmoothNorms(1.0, 1.0, 1.0)
        cells = [(n, r) for n in range(1, 101) for r in range(2, 7)]
        self.metrics["bounds.bound_report.calls_per_s"] = self.rate(
            "bounds.bound_report", lambda: [bounds.bound_report(n, r, norms) for n, r in cells],
            len(cells))

    def exact_layer(self) -> None:
        from friedman_bounds import exact
        for r, n in EXACT_CELLS:
            s, atoms = self.timed(f"exact.exact_f_distribution.{r}x{n}",
                                  exact.exact_f_distribution, n, r)
            key = f"exact.exact_f_distribution.{r}x{n}"
            self.metrics[f"{key}.s"] = s
            self.metrics[f"{key}.configs_per_s"] = math.factorial(r) ** n / s
            self.metrics[f"{key}.atoms"] = len(atoms)
            self.expect(sum(p for _, p in atoms) == 1, f"{key} probabilities sum to 1")
        s, table = self.timed("exact.joint_moments.4x4", exact.joint_moments, 4, 4)
        self.metrics["exact.joint_moments.4x4.s"] = s
        self.expect(table["E[F]"] == 3, "E[F_4] = r - 1 at n = 4")
        s, entries = self.timed("exact.verify_lemma_formulas", exact.verify_lemma_formulas, 6, 4)
        self.metrics["exact.verify_lemma_formulas.s"] = s
        self.metrics["exact.verify_lemma_formulas.entries"] = len(entries)
        self.metrics["exact.verify_lemma_formulas.skipped"] = sum(
            e["status"] == "skip" for e in entries)
        self.expect(exact.all_pass(entries), "verify_lemma_formulas has a fail entry")
        s, entries = self.timed("exact.verify_inequalities", exact.verify_inequalities, 6)
        self.metrics["exact.verify_inequalities.s"] = s
        self.expect(exact.all_pass(entries), "verify_inequalities has a fail entry")
        for r in (3, 4, 5, 6):
            s, entries = self.timed(f"exact.verify_index_decomposition.r{r}",
                                    exact.verify_index_decomposition, r,
                                    SIZES["decomposition_trials"], self.seed)
            self.metrics[f"exact.verify_index_decomposition.r{r}.s"] = s
            self.expect(exact.all_pass(entries), f"index decomposition r={r} has a fail entry")

    def coupling_stein_layers(self) -> None:
        from friedman_bounds import coupling, exact, stein, testfunctions
        r, n = COUPLING_CELL
        draws = math.factorial(r) ** n * n * r * r
        for fn in (coupling.verify_regression, coupling.verify_increment_moments,
                   coupling.verify_triple_structure):
            key = f"coupling.{fn.__name__}.{r}x{n}"
            s, entries = self.timed(key, fn, r, n)
            self.metrics[f"{key}.s"] = s
            self.metrics[f"{key}.draws_per_s"] = draws / s
            self.expect(exact.all_pass(entries), f"{key} has a fail entry")
        cos, sin, ident = (testfunctions.cosine(1.0), testfunctions.sine(1.0),
                           testfunctions.identity())
        grid = [float(x) for x in stein.standard_grid(3, points=200)]
        self.metrics["stein.fprime.evals_per_s"] = self.rate(
            "stein.fprime",
            lambda: [stein.SteinSolution(3, cos).fprime(x) for x in grid], len(grid))

        def residual_suite() -> float:
            worst = 0.0
            for p in range(1, 7):
                for h in (cos, sin, ident):
                    sol = stein.SteinSolution(p, h)
                    worst = max(worst, max(stein.stein_residual(p, h, float(x), solution=sol)
                                           for x in stein.standard_grid(p, points=60)))
            return worst

        s, worst = self.timed("stein.stein_residual.suite", residual_suite)
        self.metrics["stein.stein_residual.suite.s"] = s
        self.expect(worst <= 1e-5, f"Stein residual {worst:.3e} > 1e-5")

        def caps() -> bool:
            return all(all(stein.derivative_bound_check(p, cos, k, grid=stein.standard_grid(
                p, points=50))["holds"].values()) for p, k in ((4, 2), (8, 3)))

        s, ok = self.timed("stein.derivative_bound_check", caps)
        self.metrics["stein.derivative_bound_check.s"] = s
        self.expect(ok, "derivative caps")
        per_s = self.rate("stein.verify_operator_link.3x2",
                          lambda: stein.verify_operator_link(3, 2, cos), 1.0)
        self.metrics["stein.verify_operator_link.3x2.s"] = 1.0 / per_s
        self.expect(stein.verify_operator_link(3, 2, cos)["status"] == "pass", "operator link")

    def montecarlo_layer(self) -> None:
        from friedman_bounds import montecarlo, testfunctions
        samples = SIZES["mc_samples"]
        rng = montecarlo.RngContract(seed=self.seed)
        for r, n in MC_CELLS:
            key = f"montecarlo.estimate_kolmogorov.{r}x{n}"
            s, est = self.timed(key, montecarlo.estimate_kolmogorov, n, r, samples, rng)
            self.metrics[f"{key}.samples_per_s"] = samples / s
            self.expect(0.0 <= est.value <= 1.0, f"{key} estimate {est.value}")
        big = SIZES["thread_samples"]
        key = "montecarlo.estimate_kolmogorov.3x50"
        s1, e1 = self.timed(f"{key}.threads1", montecarlo.estimate_kolmogorov, 50, 3, big, rng)
        s2, e2 = self.timed(f"{key}.threads2", montecarlo.estimate_kolmogorov, 50, 3, big, rng,
                            threads=2)
        self.metrics[f"{key}.thread_speedup"] = s1 / s2
        self.expect(e1 == e2, "1-thread and 2-thread estimates differ")
        s, est = self.timed("montecarlo.estimate_wasserstein.2x100",
                            montecarlo.estimate_wasserstein, 100, samples, rng)
        self.metrics["montecarlo.estimate_wasserstein.2x100.s"] = s
        self.expect(est.value >= 0.0, "Wasserstein estimate")
        s, est = self.timed("montecarlo.estimate_smooth_gap.6x100",
                            montecarlo.estimate_smooth_gap, 100, 6, testfunctions.cosine(1.0),
                            samples, rng)
        self.metrics["montecarlo.estimate_smooth_gap.6x100.samples_per_s"] = samples / s
        self.expect(est.value >= 0.0, "smooth gap estimate")
        s, rows = self.timed("montecarlo.rate_experiment", montecarlo.rate_experiment, 3,
                             [2, 4, 8, 9, 16, 32], testfunctions.power(2), "auto", samples, rng)
        self.metrics["montecarlo.rate_experiment.s"] = s
        self.expect(len(rows) == 6, "rate_experiment rows")
        s, est = self.timed("montecarlo.exact_kolmogorov.4x5", montecarlo.exact_kolmogorov, 5, 4)
        self.metrics["montecarlo.exact_kolmogorov.4x5.s"] = s
        self.expect(abs(est.value - checks.exact_kolmogorov(4, 5)) <= checks.EXACT_DK_ABS_TOL,
                    "exact d_K at 4x5")


def main() -> int:
    seed, data_dir, out_path = int(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
    probes = Probes(seed, data_dir)
    for layer in (probes.ranks_layer, probes.chisq_bounds_layers, probes.exact_layer,
                  probes.coupling_stein_layers, probes.montecarlo_layer):
        layer()
    result = {"metrics": probes.metrics, "problems": probes.problems, "sizes": SIZES,
              "spans": probes.spans,
              "layer_self_s": tracer.layer_self_times(probes.spans)}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
