"""Command-line front end.

Subcommands:
  test      run the rank test on CSV data with a certified p-value interval
  bounds    evaluate every explicit bound at (n, r, h-norms)
  verify    run the exact verification suites (JSON lines, exit 0 iff green)
  distance  estimate a distance to the chi-square limit and gate it on its bound
  rate      gap-versus-bound table across a list of n

Exit codes: 0 success, 1 check failure, 2 usage error, 3 input/IO error,
141 stdout closed by its reader before the output was written (quietly).
Identical invocations (same flags, same seed) produce byte-identical output;
--threads (an integer >= 1, else a usage error) never affects any result.
The Monte Carlo work of `distance` and `rate` runs on --threads threads, or
without it on as many as the process has CPUs to run on; no environment
variable sets that count.
Each handler imports the modules it runs, so `bounds` loads no numpy.  No
subcommand loads scipy: the package imports numpy only, and its chi-square
tail is a closed form (see ``chisq``).  A flag that a call would ignore, such
as --t without a cos or sin test function, or --samples, --seed or --threads
with --mode exact, which draws nothing, is a usage error.  `distance` is one
``montecarlo.distance`` call whatever the metric and mode.  `verify` holds
one table of the flags each suite reads, refuses a given flag that no chosen
suite reads, and prints: each suite, with its range checks, budget and pass
rules, lives in the module whose identities it checks (exact, coupling,
stein).  The budget, not a fixed r, bounds each cell (a cell past it is one
skip entry, at any r), and it prices the walk of every suite as one charge
each: the lemma and inequality suites' tuples over every r up to --r-max,
the lemma suite's moment products over every (r, n) up to --n-max, the
identities suite's --trials at every r, the coupling suite's entries over
every (r, n), and the Stein suite's f' evaluations over every p up to
--p-max.  Each suite's flag checks and walk price are one function of its
module (the table's walk column), which the suite calls first; `verify`
calls it for every chosen suite before any suite runs, so a refused flag or
walk exits 2 before any work, whichever suite refuses it.  A count too
large for the exact engine, for the sampler's int64 sums or memory or for
the bounds' floats, and a bound past the float range, is a usage error, not
a traceback.  Every JSON line is strict JSON:
a norm declared infinite prints as null.  main sets OPENBLAS_NUM_THREADS=1
where the environment leaves it unset, so that numpy's BLAS starts no
worker thread beside the sampler's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from . import bounds as bounds_mod
from .errors import (BudgetError, DomainError, FriedmanBoundsError, NonFiniteError,
                     ParseError, TieError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader went away


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)  # a bare Infinity is not JSON


def _thread_cap(requested: int | None) -> int:
    """--threads, or without it the CPUs this process may run on (which
    honours taskset and cgroup cpusets)."""
    if requested is not None:
        return requested
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _frequency(t: float | None, uses_t: bool, flags: str) -> float:
    """--t, which defaults to 1 and is refused where ``flags`` build no cos or sin."""
    if t is None:
        return 1.0
    if not uses_t:
        raise DomainError(f"--t applies to cos and sin test functions only, got --t {t!r} "
                          f"with {flags}")
    return t


def _test_function(name: str, t: float):
    from . import testfunctions

    if name == "cos":
        return testfunctions.cosine(t)
    if name == "sin":
        return testfunctions.sine(t)
    if name == "x":
        return testfunctions.identity()
    return testfunctions.power(2)  # "x2", the last of the argparse choices


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def _cmd_test(args) -> int:
    from .chisq import chisq_tail
    from .ranks import friedman_statistic, load_csv

    ranks = load_csv(args.input, args.format)
    score = friedman_statistic(ranks)
    n, r = score.n, score.r
    p_value = float(chisq_tail(r - 1, score.f_r))
    unit = bounds_mod.bound_report(n, r, bounds_mod.SmoothNorms(1.0, 1.0, 1.0))
    kol_raw, kol = unit.kolmogorov_raw, unit.kolmogorov
    lo = max(0.0, p_value - kol)
    hi = min(p_value + kol, 1.0)
    report = {
        "n": n,
        "r": r,
        "statistic": score.f_r,
        "p_value": p_value,
        "kolmogorov_raw": kol_raw,
        "kolmogorov_bound": kol,
        "p_value_interval": [lo, hi],
        "unit_norm_bounds": unit.to_dict(),
    }
    if args.json:
        print(_dump(report))
        return EXIT_OK
    print(f"Friedman rank test: n={n} trials, r={r} treatments")
    print(f"  statistic F_r            {score.f_r:.10g}")
    print(f"  approximate p-value      {p_value:.10g}   (chi-square, {r - 1} df)")
    print(f"  Kolmogorov bound         {kol:.10g}   (raw {kol_raw:.6g})")
    print(f"  certified p interval     [{lo:.10g}, {hi:.10g}]")
    if kol >= 1.0:
        print("  note: the distance bound is vacuous at this sample size;")
        print("        the interval certifies nothing beyond [0, 1].")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> int:
    norms = bounds_mod.SmoothNorms(h1=args.h1, h2=args.h2, h3=args.h3)
    report = bounds_mod.bound_report(args.n, args.r, norms)
    if args.json:
        print(_dump(report.to_dict()))
        return EXIT_OK
    d = report.to_dict()
    print(f"bounds at n={args.n}, r={args.r}, norms=({args.h1:g}, {args.h2:g}, {args.h3:g})")
    for key in ("compact", "sharp", "trivial", "kolmogorov_raw", "kolmogorov",
                "wasserstein_r2", "smooth_r2", "selected"):
        if d[key] is not None:
            print(f"  {key:<16} {d[key]:.10g}")
    if d["coefficients"] is not None:
        c = d["coefficients"]
        print("  coefficients     " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(c.items())))
    print(f"  jensen           {d['jensen']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# each suite's calls as (suite, module, function, its walk's check and price,
# the flags both read in call order); a module is imported when it is chosen
_VERIFY_CALLS = (
    ("lemmas", "exact", "verify_lemma_formulas", "_lemma_walk", ("r_max", "n_max")),
    ("lemmas", "exact", "verify_inequalities", "_inequality_walk", ("r_max",)),
    ("identities", "exact", "verify_identities", "_identity_walk", ("r_max", "trials", "seed")),
    ("coupling", "coupling", "verify_suite", "_suite_walk", ("r_max", "n_max")),
    ("stein", "stein", "verify_suite", "_suite_walk", ("p_max",)))
_VERIFY_DEFAULTS = {"r_max": 6, "n_max": 4, "p_max": 6, "trials": 100, "seed": 0}


def _cmd_verify(args) -> int:
    from .exact_law import all_pass

    calls = [call for call in _VERIFY_CALLS if args.suite in ("all", call[0])]
    read = {flag for *_, flags in calls for flag in flags}
    given = {k: vars(args)[k] for k in _VERIFY_DEFAULTS if vars(args)[k] is not None}
    ignored = [f"--{k.replace('_', '-')}" for k in given if k not in read]
    if ignored:
        raise DomainError(f"--suite {args.suite} does not read {', '.join(ignored)}, "
                          f"which would be ignored")
    values = {**_VERIFY_DEFAULTS, **given}
    runs = [(import_module(f".{module}", __package__), fn, walk, [*map(values.get, flags)])
            for _, module, fn, walk, flags in calls]
    for module, _, walk, argv in runs:  # every chosen walk is checked before any suite runs
        getattr(module, walk)(*argv)
    report = [e for module, fn, _, argv in runs for e in getattr(module, fn)(*argv)]
    for entry in report:
        print(_dump(entry))
    return EXIT_OK if all_pass(report) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# distance / rate
# ---------------------------------------------------------------------------

def _sampling(args):
    """(samples, rng, threads) of --samples, --seed and --threads; with --mode
    exact, which draws nothing, giving any of them is a usage error."""
    from .montecarlo import RngContract

    given = [f"--{k}" for k in ("samples", "seed", "threads") if vars(args)[k] is not None]
    if args.mode == "exact" and given:
        raise DomainError(f"--mode exact draws nothing, so {', '.join(given)} would be ignored")
    samples = 1_000_000 if args.samples is None else args.samples
    return samples, RngContract(seed=args.seed or 0), _thread_cap(args.threads)


def _cmd_distance(args) -> int:
    from . import montecarlo

    t = _frequency(args.t, args.metric == "cos", f"--metric {args.metric}")
    samples, rng, threads = _sampling(args)
    metric, h, norms = args.metric, None, bounds_mod.SmoothNorms()
    if args.metric == "cos":
        metric, h = "smooth", _test_function("cos", t)
        norms = bounds_mod.SmoothNorms(h.norm(1), h.norm(2), h.norm(3))
    est = montecarlo.distance(metric, args.n, args.r, args.mode, samples, rng, threads, h)
    report = bounds_mod.bound_report(args.n, args.r, norms)
    bound = {"kolmogorov": report.kolmogorov, "cos": report.selected,
             "wasserstein": report.wasserstein_r2}[args.metric]
    ok = est.within(bound)
    row = {
        "metric": args.metric,
        "n": args.n,
        "r": args.r,
        "estimate": est.value,
        "half_width": est.half_width,
        "samples": est.samples,
        "method": est.method,
        "bound": bound,
        "within_bound": ok,
    }
    if args.metric == "cos":
        row["t"] = t
    print(_dump(row))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_rate(args) -> int:
    from . import montecarlo

    t = _frequency(args.t, args.h in ("cos", "sin"), f"--h {args.h}")
    samples, rng, threads = _sampling(args)
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad --n list {args.n!r}: {exc}") from exc
    if not n_list:
        raise DomainError(f"bad --n list {args.n!r}")
    h = _test_function(args.h, t)
    rows = montecarlo.rate_experiment(args.r, n_list, h, mode=args.mode, samples=samples,
                                      rng=rng, threads=threads)
    for row in rows:
        print(_dump(row))
    return EXIT_CHECK_FAILED if any(row["gap_below_bound"] is False for row in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedman-bounds",
        description="Friedman's chi-square test with explicit approximation-error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    sampling = argparse.ArgumentParser(add_help=False)  # the flags of distance and rate
    sampling.add_argument("--samples", type=int, help="Monte Carlo draws (default 1000000)")
    sampling.add_argument("--seed", type=int, help="Philox key word (default 0)")
    sampling.add_argument("--threads", type=int, help="sampling threads (default: the usable CPUs)")

    p_test = sub.add_parser("test", help="run the rank test on a CSV file")
    p_test.add_argument("input", help="CSV path: rows are trials, columns treatments")
    p_test.add_argument("--format", choices=("scores", "ranks"), default="scores")
    p_test.add_argument("--json", action="store_true")
    p_test.set_defaults(fn=_cmd_test)

    p_bounds = sub.add_parser("bounds", help="evaluate the explicit bounds")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--r", type=int, required=True)
    p_bounds.add_argument("--h1", type=float, default=1.0)
    p_bounds.add_argument("--h2", type=float, default=1.0)
    p_bounds.add_argument("--h3", type=float, default=1.0)
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the exact verification suites")
    p_verify.add_argument("--suite", choices=(*dict.fromkeys(c[0] for c in _VERIFY_CALLS), "all"),
                          default="all")
    for flag, default in _VERIFY_DEFAULTS.items():
        p_verify.add_argument(f"--{flag.replace('_', '-')}", type=int, help=f"default {default}")
    p_verify.set_defaults(fn=_cmd_verify)

    p_dist = sub.add_parser("distance", parents=[sampling],
                            help="distance estimate gated on its bound")
    p_dist.add_argument("--r", type=int, required=True)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--metric", choices=("kolmogorov", "cos", "wasserstein"),
                        default="kolmogorov")
    p_dist.add_argument("--mode", choices=("exact", "mc"), default="mc")
    p_dist.add_argument("--t", type=float, help="cos frequency (default 1)")
    p_dist.set_defaults(fn=_cmd_distance)

    p_rate = sub.add_parser("rate", parents=[sampling],
                            help="gap-versus-bound table across n")
    p_rate.add_argument("--r", type=int, required=True)
    p_rate.add_argument("--h", choices=("x", "x2", "cos", "sin"), default="x2")
    p_rate.add_argument("--t", type=float, help="cos or sin frequency (default 1)")
    p_rate.add_argument("--n", type=str, required=True, help="comma-separated trial counts")
    p_rate.add_argument("--mode", choices=("auto", "exact", "mc"), default="auto")
    p_rate.set_defaults(fn=_cmd_rate)
    return parser


def main(argv: list[str] | None = None) -> int:
    # before any handler imports numpy: the package has no large float matrix
    # product for OpenBLAS threads to split, and an idle one spins on a core
    # that the sampler's workers need
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # here, so that a reader gone early is caught below
        return code
    except BrokenPipeError:
        # nothing more can be printed; point stdout at devnull so that the
        # interpreter's own flush at exit cannot fail and print to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (TieError, NonFiniteError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FriedmanBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
