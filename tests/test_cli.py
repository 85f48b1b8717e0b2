"""CLI behaviors: schemas, exit codes, determinism."""

import json
import math
import os
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from friedman_bounds import bounds, cli, coupling, exact, montecarlo, stein
from friedman_bounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ranks_csv(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("a,b,c\n1,2,3\n1,2,3\n")
    return str(path)


@pytest.fixture()
def scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("0.1,0.5,0.9\n-1.0,2.0,3.5\n")
    return str(path)


def test_cmd_test_ranks(capsys, ranks_csv):
    code, out, _ = run(capsys, "test", ranks_csv, "--format", "ranks", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 2 and rep["r"] == 3
    assert rep["statistic"] == pytest.approx(4.0)
    assert rep["p_value"] == pytest.approx(math.exp(-2.0), rel=1e-10)
    lo, hi = rep["p_value_interval"]
    assert lo <= rep["p_value"] <= hi
    assert 0.0 <= lo <= hi <= 1.0


def test_cmd_test_tail_p_value(capsys, tmp_path):
    # 40 identical rows at r = 3 give F_r = 80 and p = Q(1, 40) = exp(-40)
    path = tmp_path / "tail.csv"
    path.write_text("1,2,3\n" * 40)
    code, out, _ = run(capsys, "test", str(path), "--format", "ranks", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["statistic"] == pytest.approx(80.0, rel=1e-12)
    assert rep["p_value"] == pytest.approx(math.exp(-40.0), rel=1e-10)


def test_cmd_test_zero_statistic(capsys, tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("1,2\n2,1\n")
    code, out, _ = run(capsys, "test", str(path), "--format", "ranks", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["statistic"] == 0.0
    assert rep["p_value"] == pytest.approx(1.0)


def test_cmd_test_scores_equals_preranked(capsys, tmp_path, scores_csv):
    code, out_scores, _ = run(capsys, "test", scores_csv, "--format", "scores", "--json")
    assert code == 0
    pre = tmp_path / "pre.csv"
    pre.write_text("1,2,3\n1,2,3\n")
    code, out_ranks, _ = run(capsys, "test", str(pre), "--format", "ranks", "--json")
    assert code == 0
    assert out_scores == out_ranks


def test_cmd_test_errors(capsys, tmp_path):
    tied = tmp_path / "tied.csv"
    tied.write_text("1.0,1.0,3.0\n")
    code, _, err = run(capsys, "test", str(tied), "--format", "scores")
    assert code == 3 and "row 0" in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n1,2\n")
    code, _, err = run(capsys, "test", str(ragged), "--format", "ranks")
    assert code == 3

    code, _, err = run(capsys, "test", str(tmp_path / "missing.csv"))
    assert code == 3


@pytest.mark.parametrize("fmt", ["scores", "ranks"])
def test_cmd_test_single_column_is_parse_error(capsys, tmp_path, fmt):
    # the same malformed file gets the input exit code under either format
    path = tmp_path / "one.csv"
    path.write_text("score\n0.5\n1.5\n")
    code, out, err = run(capsys, "test", str(path), "--format", fmt, "--json")
    assert code == 3 and out == ""
    assert str(path) in err and "r >= 2" in err


def test_cmd_test_seeded_scores_equal_ranks(capsys, tmp_path):
    # 2000 x 5 tie-free scores with a header give the same report as their
    # ranks, and F_r agrees with the exact value from the column rank sums
    n, r = 2000, 5
    gen = np.random.default_rng(20240605)
    scores = gen.permuted(np.tile(np.arange(r, dtype=float), (n, 1)), axis=1)
    scores = scores * 1.25 + gen.standard_normal((n, 1))  # tie-free within each row
    ranks = np.argsort(np.argsort(scores, axis=1), axis=1) + 1
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("t1,t2,t3,t4,t5\n"
                          + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                    for row in scores))
    ranks_csv = tmp_path / "ranks.csv"
    ranks_csv.write_text("".join(",".join(str(int(v)) for v in row) + "\n" for row in ranks))
    code, out_scores, _ = run(capsys, "test", str(scores_csv), "--json")
    assert code == 0
    code, out_ranks, _ = run(capsys, "test", str(ranks_csv), "--format", "ranks", "--json")
    assert code == 0
    assert out_scores == out_ranks
    sums = [int(v) for v in ranks.sum(axis=0)]
    exact = Fraction(12, n * r * (r + 1)) * sum(v * v for v in sums) - 3 * n * (r + 1)
    rep = json.loads(out_scores)
    assert (rep["n"], rep["r"]) == (n, r)
    assert rep["statistic"] == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_cmd_test_non_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2,3\n" * 3 + b"caf\xe9,2,3\n")
    code, out, err = run(capsys, "test", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {path}: not UTF-8 text at byte 21\n"


def test_cmd_test_text_report(capsys, ranks_csv, tmp_path):
    code, out, _ = run(capsys, "test", ranks_csv, "--format", "ranks")
    assert code == 0
    assert out == ("Friedman rank test: n=2 trials, r=3 treatments\n"
                   "  statistic F_r            4\n"
                   "  approximate p-value      0.1353352832   (chi-square, 2 df)\n"
                   "  Kolmogorov bound         1   (raw 125.426)\n"
                   "  certified p interval     [0, 1]\n"
                   "  note: the distance bound is vacuous at this sample size;\n"
                   "        the interval certifies nothing beyond [0, 1].\n")
    # 10,100 trials at r = 2 give a bound below 1, and no note
    many = tmp_path / "many.csv"
    many.write_text("1,2\n2,1\n" * 5000 + "1,2\n" * 100)
    code, out, _ = run(capsys, "test", str(many), "--format", "ranks")
    assert code == 0
    assert out == ("Friedman rank test: n=10100 trials, r=2 treatments\n"
                   "  statistic F_r            0.9900990099\n"
                   "  approximate p-value      0.3197181768   (chi-square, 1 df)\n"
                   "  Kolmogorov bound         0.009448873158   (raw 0.00944887)\n"
                   "  certified p interval     [0.3102693037, 0.32916705]\n")


def test_cmd_bounds_text_report(capsys):
    jensen = "  jensen           C(r) * n**(-r/(r+1))  [C(r) non-explicit]\n"
    # n = 1 has no sharp bound and no coefficients
    code, out, _ = run(capsys, "bounds", "--n", "1", "--r", "5")
    assert code == 0
    assert out == ("bounds at n=1, r=5, norms=(1, 1, 1)\n"
                   "  compact          57400\n"
                   "  trivial          8\n"
                   "  kolmogorov_raw   126.6456746\n"
                   "  kolmogorov       1\n"
                   "  selected         8\n" + jensen)
    # r = 2 adds the Wasserstein and smooth r = 2 bounds
    code, out, _ = run(capsys, "bounds", "--n", "10000", "--r", "2",
                       "--h1", "2", "--h2", "0.5", "--h3", "0")
    assert code == 0
    assert out == ("bounds at n=10000, r=2, norms=(2, 0.5, 0)\n"
                   "  compact          0.34410862\n"
                   "  sharp            0.3367774588\n"
                   "  trivial          4\n"
                   "  kolmogorov_raw   0.009496\n"
                   "  kolmogorov       0.009496\n"
                   "  wasserstein_r2   0.8748\n"
                   "  smooth_r2        0.017251075\n"
                   "  selected         0.017251075\n"
                   "  coefficients     A_n=3.00018, B_n=126.041, C_T=0.145853, "
                   "beta1=291.947, beta2=2199.99, beta3=3403.48\n" + jensen)


def test_cmd_bounds_values(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "100", "--r", "3",
                       "--h1", "1", "--h2", "1", "--h3", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["compact"] == pytest.approx(183.8193, abs=1e-9)

    code, out, _ = run(capsys, "bounds", "--n", "1", "--r", "5", "--json")
    rep = json.loads(out)
    assert rep["sharp"] is None and rep["coefficients"] is None
    assert rep["compact"] is not None and rep["trivial"] is not None
    assert rep["kolmogorov"] is not None

    code, out, _ = run(capsys, "bounds", "--n", "10000", "--r", "2", "--json")
    rep = json.loads(out)
    assert rep["kolmogorov_raw"] == pytest.approx(0.009496, abs=1e-12)


def test_cmd_bounds_json_is_strict_with_an_infinite_norm(capsys):
    # an infinite norm once printed as a bare Infinity, which no strict parser reads
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    code, out, _ = run(capsys, "bounds", "--json", "--n", "5", "--r", "3", "--h1", "inf")
    report = json.loads(out, parse_constant=no_constant)
    assert code == 0 and report["norms"] == {"h1": None, "h2": 1.0, "h3": 1.0}
    assert report["compact"] is None and report["trivial"] is None
    with pytest.raises(ValueError):
        cli._dump({"bound": math.inf})


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_main_sets_one_openblas_thread_only_where_unset(fresh_python, monkeypatch, given,
                                                         expected):
    # set before any handler imports numpy, whose OpenBLAS reads it at load:
    # an idle BLAS worker spins on a core that the sampler's workers need
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    numpy_first, value, tasks = fresh_python(
        "import json, os, sys\n"
        "from friedman_bounds.cli import main\n"
        "numpy_first = 'numpy' in sys.modules\n"
        "assert main(['verify', '--suite', 'stein', '--p-max', '1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([numpy_first, os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n")
    assert not numpy_first and value == expected
    if given is None and tasks is not None:
        assert tasks == 1  # the main thread alone: OpenBLAS started no worker


def test_cmd_bounds_deterministic(capsys):
    _, out1, _ = run(capsys, "bounds", "--n", "37", "--r", "4", "--json")
    _, out2, _ = run(capsys, "bounds", "--n", "37", "--r", "4", "--json")
    assert out1 == out2


def test_cmd_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--r-max", "4",
                       "--trials", "10", "--seed", "7")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(e["status"] in ("pass", "skip") for e in lines)
    assert all({"identity", "r", "n", "status", "lhs", "rhs"} <= set(e) for e in lines)


def test_cmd_verify_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


def test_cmd_rate_x2(capsys):
    code, out, _ = run(capsys, "rate", "--r", "3", "--h", "x2", "--n", "2,4,8")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["n_times_gap"] for row in rows] == pytest.approx([4.0, 4.0, 4.0])


def test_cmd_rate_bad_n(capsys):
    code, _, err = run(capsys, "rate", "--r", "3", "--h", "x2", "--n", "2,zebra")
    assert code == 2


def test_cmd_distance_exact_cos(capsys):
    code, out, _ = run(capsys, "distance", "--r", "3", "--n", "4", "--mode", "exact",
                       "--metric", "cos", "--t", "1")
    assert code == 0
    row = json.loads(out)
    assert row["method"] == "exact-enumeration"
    assert row["within_bound"] is True
    assert row["estimate"] <= row["bound"]


def test_cmd_distance_exact_kolmogorov(capsys):
    code, out, _ = run(capsys, "distance", "--r", "2", "--n", "2", "--mode", "exact",
                       "--metric", "kolmogorov")
    row = json.loads(out)
    # the exact two-atom distance is 0.5, below min(1, 0.9496/sqrt(2)) = 0.671...
    assert row["estimate"] == pytest.approx(0.5, abs=1e-12)
    assert code == 0


def test_cmd_distance_deterministic(capsys):
    args = ("distance", "--r", "3", "--n", "5", "--metric", "kolmogorov",
            "--samples", "20000", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# stdout pinned at fixed seeds, so any change in the sampler's draws fails here
GOLDEN_DISTANCE = [
    (("--r", "8", "--n", "50", "--samples", "20000", "--seed", "5"),
     '{"bound": 1.0, "estimate": 0.007312107775422683, "half_width": 0.011509037065006824, '
     '"method": "monte-carlo", "metric": "kolmogorov", "n": 50, "r": 8, "samples": 20000, '
     '"within_bound": true}\n'),
    (("--r", "5", "--n", "200", "--samples", "20000", "--seed", "7"),
     '{"bound": 1.0, "estimate": 0.005763560782233612, "half_width": 0.011509037065006824, '
     '"method": "monte-carlo", "metric": "kolmogorov", "n": 200, "r": 5, "samples": 20000, '
     '"within_bound": true}\n'),
    # n = 10^18: the rank total 6 10^18 still fits int64, so the multinomial path runs
    (("--r", "3", "--n", str(10 ** 18), "--samples", "1000", "--seed", "1"),
     '{"bound": 0.0009171275234094421, "estimate": 0.024488162264636126, '
     '"half_width": 0.051469978465839845, "method": "monte-carlo", "metric": "kolmogorov", '
     '"n": 1000000000000000000, "r": 3, "samples": 1000, "within_bound": true}\n'),
]


@pytest.mark.parametrize("argv, stdout", GOLDEN_DISTANCE)
def test_cmd_distance_golden_stdout(capsys, argv, stdout):
    code, out, _ = run(capsys, "distance", *argv)
    assert code == 0
    assert out == stdout


# W1(F_2, chi-square(1)) by mpmath at 30 digits: exact rational levels
# prefix / 2^n over the binomial row, and on each step [a, b) with level c one
# quadrature of |c - G| split at the crossing G^{-1}(c) = 2 erfinv(c)^2
# (G the chi-square(1) CDF), plus the tail past the last atom; the closed
# form int_0^z G = z G(z) - G_3(z) gives the same 17 digits
EXACT_W1 = [(631, 0.031779393706202871), (3570, 0.013354405337231749)]


@pytest.mark.parametrize("n, reference", EXACT_W1)
def test_cmd_exact_wasserstein_is_within_1e_14_of_mpmath(capsys, n, reference):
    # levels formed as a float running sum of the masses drift from their
    # exact values, which once put n = 3570 7.7e-13 off
    code, out, _ = run(capsys, "distance", "--mode", "exact", "--metric", "wasserstein",
                       "--r", "2", "--n", str(n))
    row = json.loads(out)
    assert code == 0 and row["method"] == "exact-enumeration"
    assert abs(row["estimate"] - reference) <= 1e-14


ONE_TRIAL = [  # F_3 = 2 and F_2 = 1 with probability 1 at n = 1, so each distance is closed form
    (("--metric", "kolmogorov", "--r", "3"), 1.0 - math.exp(-1.0)),
    (("--metric", "cos", "--r", "3"), abs(math.cos(2.0) - 0.2)),  # E cos(Y_2) = Re 1/(1 - 2i)
    (("--metric", "wasserstein", "--r", "2"),  # E|Y_1 - 1|
     2.0 * math.sqrt(2.0 / math.pi) * math.exp(-0.5)),
]


@pytest.mark.parametrize("argv, value", ONE_TRIAL, ids=["kolmogorov", "cos", "wasserstein"])
def test_cmd_distance_exact_at_one_trial(capsys, argv, value):
    # one trial is one sorted column-sum state, so an exact row reads a one-atom law
    code, out, err = run(capsys, "distance", "--mode", "exact", "--n", "1", *argv)
    row = json.loads(out)
    assert code == 0 and err == ""
    assert (row["method"], row["samples"], row["half_width"]) == ("exact-enumeration", 1, 0.0)
    assert row["estimate"] == pytest.approx(value, rel=1e-12)


def test_cmd_distance_exact_wasserstein_is_gated_on_the_r2_bound(capsys):
    code, out, _ = run(capsys, "distance", "--metric", "wasserstein", "--mode", "exact",
                       "--r", "2", "--n", "100")
    row = json.loads(out)
    assert row["bound"] == bounds.bound_report(100, 2, bounds.SmoothNorms()).wasserstein_r2
    assert (row["method"], row["samples"], row["half_width"]) == ("exact-enumeration", 51, 0.0)
    assert code == 0 and row["within_bound"] is True and 0.0 < row["estimate"] <= row["bound"]


def test_cmd_distance_wasserstein_requires_r2(capsys):
    code, _, err = run(capsys, "distance", "--r", "3", "--n", "5",
                       "--metric", "wasserstein", "--samples", "2000")
    assert code == 2
    code, out, err = run(capsys, "distance", "--r", "3", "--n", "5", "--metric", "wasserstein",
                         "--mode", "exact")
    assert code == 2 and out == ""
    assert "the Wasserstein diagnostic is available for r = 2 only" in err


def test_cmd_verify_lemmas_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--r-max", "5", "--n-max", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert not any(e["status"] == "fail" for e in lines)


def test_cmd_verify_coupling_budget_entries(capsys):
    # the per-row verifiers have no configuration budget: every cell runs
    code, out, _ = run(capsys, "verify", "--suite", "coupling", "--r-max", "5", "--n-max", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4 * 4 * 6  # r = 2..5, n = 1..4, six entries per cell
    assert all(e["status"] == "pass" for e in lines)


def test_cmd_verify_coupling_over_budget_is_one_skip_per_cell(capsys):
    # r = 6 costs 720 * 36 row draws and runs; r = 7 costs 5040 * 49 > 200000
    code, out, _ = run(capsys, "verify", "--suite", "coupling", "--r-max", "7", "--n-max", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(e["status"] == "pass" for e in lines if e["r"] <= 6)
    assert len([e for e in lines if e["r"] == 6]) == 2 * 6
    skips = [e for e in lines if e["r"] == 7]
    assert [(e["n"], e["status"]) for e in skips] == [(1, "skip"), (2, "skip")]
    assert all("246960 enumerated terms" in e["note"] for e in skips)


def test_cmd_verify_coupling_golden_stdout(capsys):
    # stdout pinned before the three verifiers shared one swap pass,
    # including the four r = 7 skips
    golden = Path(__file__).parent / "golden" / "verify_coupling_r7_n4.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "coupling", "--r-max", "7", "--n-max", "4")
    assert code == 0
    assert out == golden.read_text()


def test_results_golden_stdout(capsys, monkeypatch):
    # exit codes and stdout pinned before distance and rate shared one
    # exact-or-sampled gap path, one exact record and one gate (the two Monte
    # Carlo cos rows re-pinned when every distance came to read one weighted-atom
    # law, whose mean is an fsum over the atoms), and (the
    # r-max 6 verify line) before the swap pass and the decomposition
    # trials became array passes; samples on the exact rows re-pinned when
    # it became the engine's state count, and the operator-link lhs when its
    # covariance half became a check on one trial's rows; the r = 2 exact
    # Wasserstein and auto rate lines before f_law read r = 2 off one
    # binomial row instead of the sorted-state engine, and that Wasserstein
    # line again when exact CDF levels became prefix sums over the total
    # rather than a float running sum; the r-max 10 lemma line when the
    # overlap law became a subset DP, its T_m and E[beta^4] skips at r = 9
    # and 10 turning into passes, no other entry changed.  The `test` lines,
    # with their stderr, were pinned before rank files got an integer parse
    # and scores a plain argsort; their CSVs sit next to the golden file.
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(golden)
    for line in (golden / "results.jsonl").read_text().splitlines():
        call = json.loads(line)
        code, out, err = run(capsys, *call["argv"])
        assert (code, out) == (call["code"], call["stdout"]), call["argv"]
        assert err == call.get("stderr", err), call["argv"]


def test_coupling_suite_runs_the_swap_pass_once_per_r(monkeypatch):
    swap_pass, rows_read = coupling._swap_pass, []
    monkeypatch.setattr(coupling, "_tallies", {})
    monkeypatch.setattr(coupling, "_swap_pass",
                        lambda rows: rows_read.append(len(rows)) or swap_pass(rows))
    coupling.verify_suite(5, 4)
    assert rows_read == [2, 6, 24, 120]  # r = 2..5, whatever n


@pytest.mark.parametrize("alone,extra", [
    (("stein", "--p-max", "0"), ()),
    (("stein", "--p-max", "300"), ("--r-max", "12", "--n-max", "6")),
    (("identities", "--seed", str(2 ** 64)), ())])
def test_verify_checks_every_chosen_walk_before_any_suite_runs(monkeypatch, capsys, alone, extra):
    # each call is refused by one suite's flags or walk price, a suite that runs
    # after the lemma suites: with --suite all it must exit 2 with that suite's
    # own error, and before any suite's cell runs
    suite, *flags = alone
    code, out, err = run(capsys, "verify", "--suite", suite, *flags)
    assert (code, out) == (2, "") and err.startswith("error: ")

    def no_cell(*args, **kwargs):
        raise AssertionError("a suite ran a cell before every walk was checked")

    for module, cell in ((exact, "_row_entries"), (exact, "verify_index_decomposition"),
                         (coupling, "_tally"), (stein, "stein_residual")):
        monkeypatch.setattr(module, cell, no_cell)
    assert run(capsys, "verify", "--suite", "all", *flags, *extra) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ("--suite", "identities", "--trials", "-5"),
    ("--suite", "identities", "--trials", "0"),
    ("--suite", "identities", "--r-max", "2"),
    ("--r-max", "1"),
    ("--n-max", "0"),
    ("--p-max", "0"),
    ("--suite", "lemmas", "--trials", "0"),
    ("--suite", "stein", "--trials", "-3"),
])
def test_cmd_verify_vacuous_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("distance", "--r", "3", "--n", "5", "--metric", "cos", "--samples", "1"),
    ("rate", "--r", "3", "--n", "5", "--mode", "mc", "--samples", "0"),
])
def test_mc_sample_floor_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"need samples >= 1000, got {argv[-1]}" in err


@pytest.mark.parametrize("argv,message", [
    (("distance", "--r", "2", "--n", "10", "--metric", "wasserstein", "--mode", "exact",
      "--samples", "2000"), "--mode exact draws nothing, so --samples would be ignored"),
    (("distance", "--r", "2", "--n", "10", "--samples", "2000", "--threads", "0"),
     "need threads >= 1, got 0"),
    (("rate", "--r", "3", "--n", "5", "--mode", "mc", "--samples", "2000", "--threads", "-2"),
     "need threads >= 1, got -2"),
    (("distance", "--r", "3", "--n", "0"), "need n >= 1, got 0"),
    (("distance", "--r", "3", "--n", "0", "--mode", "exact"), "need n >= 1, got 0"),
    (("distance", "--r", "3", "--n", "0", "--metric", "cos"), "need n >= 1, got 0"),
    (("distance", "--r", "3", "--n", "0", "--metric", "cos", "--mode", "exact"),
     "need n >= 1, got 0"),
    (("distance", "--r", "3", "--n", "-3"), "need n >= 1, got -3"),
    (("distance", "--r", "1", "--n", "5"), "need r >= 2, got 1"),
    (("distance", "--r", "1", "--n", "5", "--mode", "exact"), "need r >= 2, got 1"),
    (("rate", "--r", "1", "--n", "3", "--mode", "mc", "--h", "cos", "--samples", "1000"),
     "need r >= 2, got 1"),
    (("rate", "--r", "0", "--n", "3"), "need r >= 2, got 0"),
    (("distance", "--r", "3", "--n", "5", "--samples", "2000", "--seed", "-1"),
     "need seed >= 0, got -1"),
    (("distance", "--r", "3", "--n", "5", "--samples", "2000", "--seed", str(2 ** 64)),
     f"seed and stream must lie in [0, 2**64), got {2 ** 64} and 0"),
    (("rate", "--r", "3", "--n", "5", "--seed", "-1"),
     "need seed >= 0, got -1"),
    (("verify", "--suite", "identities", "--seed", "-3"), "need seed >= 0, got -3"),
    (("verify", "--suite", "lemmas", "--r-max", "17"), "r=2..17 needs 205632 enumerated terms"),
    (("verify", "--r-max", "17"), "r=2..17 needs 205632 enumerated terms"),
    (("distance", "--r", "3", "--n", "4", "--metric", "cos", "--t", "inf"),
     "frequency t must be finite with a finite t^4, got inf"),
    (("distance", "--r", "3", "--n", "4", "--metric", "cos", "--mode", "exact", "--t", "1e300"),
     "frequency t must be finite with a finite t^4, got 1e+300"),
    (("rate", "--r", "3", "--n", "2,4", "--h", "cos", "--t", "inf"),
     "frequency t must be finite with a finite t^4, got inf"),
    (("rate", "--r", "3", "--n", "2,4", "--h", "sin", "--t", "nan"),
     "frequency t must be finite with a finite t^4, got nan"),
    (("rate", "--r", "3", "--n", "2,4", "--h", "cos", "--t=-1e100"),
     "frequency t must be finite with a finite t^4, got -1e+100"),
    (("rate", "--r", "3", "--n", "2,4", "--h", "x2", "--t", "inf"),
     "--t applies to cos and sin test functions only, got --t inf with --h x2"),
    (("rate", "--r", "3", "--n", "2,4", "--h", "x", "--t", "1"),
     "--t applies to cos and sin test functions only, got --t 1.0 with --h x"),
    (("distance", "--r", "3", "--n", "4", "--metric", "kolmogorov", "--t", "nan"),
     "--t applies to cos and sin test functions only, got --t nan with --metric kolmogorov"),
    (("distance", "--r", "3", "--n", "4", "--metric", "kolmogorov", "--mode", "exact",
      "--t", "1"),
     "--t applies to cos and sin test functions only, got --t 1.0 with --metric kolmogorov"),
    (("distance", "--r", "2", "--n", "5", "--metric", "wasserstein", "--samples", "2000",
      "--t", "2"),
     "--t applies to cos and sin test functions only, got --t 2.0 with --metric wasserstein"),
    (("distance", "--mode", "exact", "--r", "4", "--n", "5", "--samples", "5000", "--seed", "3",
      "--threads", "2"), "--mode exact draws nothing, so --samples, --seed, --threads would be"),
    (("distance", "--mode", "exact", "--r", "4", "--n", "5", "--seed", "0"),
     "--mode exact draws nothing, so --seed would be ignored"),
    (("distance", "--mode", "exact", "--metric", "cos", "--r", "3", "--n", "4", "--threads", "1"),
     "--mode exact draws nothing, so --threads would be ignored"),
    (("rate", "--mode", "exact", "--r", "3", "--n", "2", "--samples", "10"),
     "--mode exact draws nothing, so --samples would be ignored"),
    (("rate", "--mode", "exact", "--r", "3", "--n", "2", "--seed", "1", "--threads", "2"),
     "--mode exact draws nothing, so --seed, --threads would be ignored"),
    (("verify", "--suite", "stein", "--r-max", "4"),
     "--suite stein does not read --r-max, which would be ignored"),
    (("verify", "--suite", "lemmas", "--seed", "1"),
     "--suite lemmas does not read --seed, which would be ignored"),
    (("verify", "--suite", "coupling", "--trials", "5"),
     "--suite coupling does not read --trials, which would be ignored"),
    (("verify", "--suite", "coupling", "--seed", "5", "--trials", "7"),
     "--suite coupling does not read --trials, --seed, which would be ignored"),
    (("verify", "--suite", "identities", "--n-max", "2", "--p-max", "3"),
     "--suite identities does not read --n-max, --p-max, which would be ignored"),
    (("rate", "--r", "3", "--n", "2,0"), "need n >= 1, got 0"),
    (("rate", "--r", "3", "--n", ","), "bad --n list ','"),
    (("bounds", "--n", "5", "--r", "3", "--h1", "-1"), "derivative norms must be >= 0, got -1.0"),
    (("bounds", "--n", "5", "--r", "3", "--h2", "nan"), "derivative norms must be >= 0, got nan"),
])
def test_ignored_flag_is_usage_error(capsys, argv, message):
    # flags that would otherwise be dropped or clamped without a word, or crash
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("seed, code", [(-1, 2), (0, 0), (2 ** 64 - 1, 0), (2 ** 64, 2)])
def test_cmd_verify_seed_is_a_philox_key_word(capsys, seed, code):
    # the identities draws are keyed by RngContract(seed), that is (seed, 0), so
    # --seed lies in [0, 2**64) and is refused with the sampler's own message
    got, out, err = run(capsys, "verify", "--suite", "identities", "--r-max", "3",
                        "--trials", "3", "--seed", str(seed))
    assert got == code
    if code:
        assert out == ""
        assert (f"need seed >= 0, got {seed}" if seed < 0
                else f"seed and stream must lie in [0, 2**64), got {seed} and 0") in err
    else:
        assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


def test_cmd_verify_identities_run_to_the_budget(capsys):
    # r = 3..14 fit; the r = 15 check needs the 15 2^14 terms of the overlap law
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--r-max", "15",
                       "--trials", "10")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and {e["r"] for e in lines} == set(range(3, 16))
    assert all(e["status"] == "pass" for e in lines if e["r"] <= 14)
    [skip] = [e for e in lines if e["r"] == 15]
    assert skip["status"] == "skip" and "245760 enumerated terms" in skip["note"]


def test_cmd_verify_identities_charge_trials_only_where_they_draw(capsys):
    # r = 3..14 draw: 12 x 112 trials and one term for each of the 1,786 skips
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--r-max", "1800",
                       "--trials", "112")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and {e["r"] for e in lines} == set(range(3, 1801))
    assert all(e["status"] == "pass" for e in lines if e["r"] <= 14)
    assert all(e["status"] == "skip" for e in lines if e["r"] > 14)


@pytest.mark.parametrize("n, want", [(3570, 0), (3571, 2)])
def test_cmd_distance_exact_r2_runs_to_its_budget(capsys, n, want):
    code, out, err = run(capsys, "distance", "--mode", "exact", "--r", "2", "--n", str(n))
    assert code == want
    if want:
        assert out == "" and f"the binomial row at r=2, n={n} needs" in err
    else:
        row = json.loads(out)
        assert (row["method"], row["samples"], row["within_bound"]) == (
            "exact-enumeration", n // 2 + 1, True)


def test_cmd_verify_lemmas_run_past_r10(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--r-max", "12", "--n-max", "2")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and max(e["r"] for e in lines) == 12
    assert all(e["status"] != "fail" for e in lines)


def test_cmd_verify_stein_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stein", "--p-max", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any("stein residual" in e["identity"] for e in lines)
    assert any("operator-link" in e["identity"] for e in lines)
    assert not any(e["status"] == "fail" for e in lines)


def test_cmd_verify_exits_1_on_a_failing_entry(capsys, monkeypatch):
    failing = {"identity": "stand-in", "r": 2, "n": None, "status": "fail", "lhs": "1",
               "rhs": "0"}
    monkeypatch.setattr(exact, "verify_lemma_formulas", lambda r_max, n_max: [])
    monkeypatch.setattr(exact, "verify_inequalities", lambda r_max: [failing])
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [failing]


def test_cmd_distance_wasserstein_row(capsys):
    code, out, _ = run(capsys, "distance", "--metric", "wasserstein", "--r", "2", "--n", "5",
                       "--samples", "2000")
    row = json.loads(out)
    assert code == 0 and row["within_bound"] is True
    assert row["bound"] == bounds.bound_report(5, 2, bounds.SmoothNorms()).wasserstein_r2
    assert (row["metric"], row["method"], row["samples"]) == ("wasserstein", "monte-carlo", 2000)
    assert 0.0 <= row["estimate"] <= row["bound"] and "t" not in row


def test_cmd_rate_identity_gap_is_zero(capsys):
    # E[F_r] = r - 1 = E[Y_{r-1}], so the exact gap for h(x) = x vanishes at every n
    code, out, _ = run(capsys, "rate", "--r", "3", "--n", "2,4", "--h", "x")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [(row["n"], row["h"], row["method"]) for row in rows] == [
        (2, "x^1", "exact-enumeration"), (4, "x^1", "exact-enumeration")]
    assert all(abs(row["gap"]) <= 1e-12 and row["gap_below_bound"] for row in rows)


def test_cmd_rate_exits_1_on_a_row_above_its_bound(capsys, monkeypatch):
    rows = [{"n": 2, "gap_below_bound": None}, {"n": 4, "gap_below_bound": False}]
    monkeypatch.setattr(montecarlo, "rate_experiment", lambda *args, **kwargs: rows)
    code, out, _ = run(capsys, "rate", "--r", "3", "--n", "2,4")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == rows


def test_cmd_rate_n_past_the_substreams_is_refused_before_any_row(capsys, monkeypatch):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was computed before the n list was checked")

    monkeypatch.setattr(montecarlo, "distance", no_row)
    code, out, err = run(capsys, "rate", "--r", "3", "--n", f"2,{2 ** 20}", "--mode", "mc",
                         "--samples", "1000")
    assert code == 2 and out == ""
    assert f"below 2**20, got n={2 ** 20}" in err


def test_cmd_rate_exact_takes_any_n_to_the_law_budget(capsys):
    # exact mode draws nothing, so no substream bound applies: once this n was
    # refused with "the row for n draws from substream n"
    code, out, err = run(capsys, "rate", "--mode", "exact", "--r", "3", "--n", str(2 ** 20))
    assert code == 2 and out == ""
    assert f"r=3, n={2 ** 20}" in err and "substream" not in err


def test_cmd_rate_refuses_an_over_budget_exact_n_before_any_other_row(capsys, monkeypatch):
    # rows are built from the largest n down: once n = 2 and 4 were built first
    real, built = montecarlo.f_law, []

    def f_law(n, r):
        built.append(n)
        return real(n, r)

    monkeypatch.setattr(montecarlo, "f_law", f_law)
    code, out, err = run(capsys, "rate", "--mode", "exact", "--r", "3", "--h", "x2",
                         "--n", "2,4,60")
    assert (code, out, built) == (2, "", [60]) and "r=3, n=60" in err


def test_cmd_rate_exact_at_r_9_refuses_n_3_before_the_two_trial_row(capsys):
    # n = 2 is exact by the subset DP and n = 1 by the engine's one row, but
    # n = 3 is past the budget, and it is built first
    code, out, err = run(capsys, "rate", "--mode", "exact", "--r", "9", "--h", "x2",
                         "--n", "1,2,3")
    assert (code, out) == (2, "") and "r=9, n=3" in err
    code, out, _ = run(capsys, "rate", "--mode", "exact", "--r", "9", "--h", "x2", "--n", "2,1")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and [(row["n"], row["method"]) for row in rows] == [
        (2, "exact-enumeration"), (1, "exact-enumeration")]


@pytest.mark.parametrize("argv", [
    ("rate", "--mode", "auto", "--r", "10", "--h", "cos", "--n", "2"),
    ("distance", "--mode", "exact", "--r", "14", "--n", "2"),
], ids=["rate-auto-r10", "distance-exact-r14"])
def test_cmd_two_trial_cells_past_the_engine_are_exact(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1) and json.loads(out.splitlines()[0])["method"] == "exact-enumeration"


def test_cmd_distance_exact_reach_at_one_and_two_trials(capsys):
    # n = 2 by the subset DP to r = 14, over its 2^r masks; n = 1 is one atom
    for r in range(9, 15):
        code, out, _ = run(capsys, "distance", "--mode", "exact", "--r", str(r), "--n", "2")
        assert code == 0 and json.loads(out)["samples"] == 2 ** r, r
    code, out, err = run(capsys, "distance", "--mode", "exact", "--r", "15", "--n", "2")
    assert (code, out) == (2, "") and "r=15, n=2" in err
    code, out, _ = run(capsys, "distance", "--mode", "exact", "--r", "9", "--n", "1")
    assert code == 0 and json.loads(out)["samples"] == 1


def test_cmd_rate_auto_is_exact_to_n_57_at_r_3(capsys):
    # f_law(58, 3) needs 200,268 terms, past the budget
    code, out, _ = run(capsys, "rate", "--mode", "auto", "--r", "3", "--h", "x2",
                       "--n", "57,58", "--samples", "1000", "--seed", "1")
    assert code == 0
    assert [json.loads(line)["method"] for line in out.splitlines()] == [
        "exact-enumeration", "monte-carlo"]


@pytest.mark.parametrize("argv, count", [
    (("verify", "--suite", "identities", "--r-max", "1800", "--trials", "1"), "2**256"),
    (("verify", "--suite", "coupling", "--r-max", "1700", "--n-max", "1"), "30!"),
], ids=["identities", "coupling"])
def test_cmd_verify_skips_any_r_past_the_budget_with_a_short_note(capsys, argv, count):
    # past r = 30 (coupling) or r = 255 (identities) the budget refuses
    # without forming r! or r 2^(r-1), whose count would pass Python's int
    # print limit from r = 1559 or r = 14,272 on
    code, out, _ = run(capsys, *argv)
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and all(len(e.get("note", "")) < 200 for e in lines)
    assert lines[-1]["status"] == "skip"
    assert f"needs more than {count} enumerated" in lines[-1]["note"]


@pytest.mark.parametrize("argv", [
    ("distance", "--mode", "exact", "--r", "200001", "--n", "1"),
    ("distance", "--mode", "exact", "--r", str(10 ** 21), "--n", "2"),
    ("distance", "--mode", "exact", "--r", "200000", "--n", str(10 ** 1000)),
    ("distance", "--r", "3", "--n", str(2 ** 62), "--samples", "1000", "--seed", "1"),
    ("distance", "--r", "2", "--n", str(2 ** 63), "--samples", "1000", "--seed", "1"),
    ("bounds", "--n", str(10 ** 309), "--r", "3"),
    ("bounds", "--n", "5", "--r", str(10 ** 155)),
    ("bounds", "--json", "--n", "1", "--r", str(10 ** 154)),
    ("verify", "--suite", "lemmas", "--r-max", "3", "--n-max", str(10 ** 30)),
    ("verify", "--suite", "stein", "--p-max", str(10 ** 30)),
    ("verify", "--suite", "lemmas", "--r-max", str(10 ** 900)),
    ("verify", "--suite", "identities", "--r-max", "3", "--trials", str(10 ** 30)),
    ("verify", "--suite", "identities", "--r-max", str(10 ** 900)),
    ("verify", "--suite", "coupling", "--r-max", "2", "--n-max", str(10 ** 30)),
    ("distance", "--r", "3", "--n", "5", "--samples", str(2 ** 34), "--seed", "1"),
], ids=["exact-r200001", "exact-r1e21", "exact-r200000-n1e1000", "mc-n2^62", "mc-n2^63",
        "bounds-n1e309", "bounds-r1e155", "bounds-r1e154", "verify-n1e30", "verify-p1e30", "verify-r1e900", "verify-trials1e30",
        "verify-identities-r1e900", "verify-coupling-n1e30", "mc-samples2^34"])
def test_extreme_counts_are_one_usage_error_before_any_work(capsys, monkeypatch, argv):
    # the exact engine refuses before it allocates, the sampler before any
    # chunk is drawn (its rank total n r(r+1)/2 would leave int64), the
    # bounds a count they cannot evaluate in floating point or a bound past
    # it, and the verify suites a walk over r, n, p or trials past the budget
    # (a count past 2**256, whose digits would pass Python's print limit at
    # r = 10**900, is named as such); 2**34 samples fit the 2**20 chunks of a
    # stream, but their |Q|^2 keys would hold 128 GiB
    def no_chunk(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_column_sums", no_chunk)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_cmd_distance_exact_beyond_budget(capsys):
    code, _, err = run(capsys, "distance", "--r", "5", "--n", "100", "--mode", "exact",
                       "--metric", "kolmogorov")
    assert code == 2 and "exceeds" in err


# three chunks of samples or more, so that the workers really run
THREADED_CALLS = [
    ("distance", "--r", "8", "--n", "20", "--samples", "40000", "--seed", "11"),
    ("distance", "--metric", "cos", "--r", "6", "--n", "20", "--samples", "40000", "--seed", "12"),
    ("distance", "--metric", "wasserstein", "--r", "2", "--n", "30", "--samples", "40000",
     "--seed", "13"),
    ("rate", "--mode", "mc", "--r", "3", "--n", "5,7", "--samples", "40000", "--seed", "14"),
]


@pytest.mark.parametrize("argv", THREADED_CALLS, ids=lambda argv: " ".join(argv[:4]))
def test_default_threads_print_the_one_thread_bytes(capsys, argv):
    results = [run(capsys, *argv), run(capsys, *argv, "--threads", "1"),
               run(capsys, *argv, "--threads", "3")]
    assert results[0][1] != "" and results[0][2] == ""
    assert all(result == results[0] for result in results), results


def test_default_threads_are_the_usable_cpus(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._thread_cap(None) == 3
    assert cli._thread_cap(2) == 2 and cli._thread_cap(7) == 7  # --threads keeps its meaning
    real = montecarlo._column_sums
    calls = []  # (workers, thread ident) of every chunk

    def column_sums(gen, size, n, r, workers=1):
        calls.append((workers, threading.get_ident()))
        return real(gen, size, n, r, workers)

    monkeypatch.setattr(montecarlo, "_column_sums", column_sums)

    def workers_for(samples):
        calls.clear()
        code, _, _ = run(capsys, "distance", "--r", "3", "--n", "5", "--samples", str(samples))
        assert code == 0
        workers = {w for w, _ in calls}
        assert len(workers) == 1 and len({ident for _, ident in calls}) <= min(workers)
        return workers.pop()

    chunk = montecarlo._CHUNK
    assert workers_for(4 * chunk) == 3
    assert workers_for(2 * chunk) == 2  # never more workers than chunks
    assert workers_for(chunk) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._thread_cap(None) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._thread_cap(None) == 1


def test_rate_refuses_zero_threads_before_any_row(capsys, monkeypatch):
    # montecarlo.distance owns the thread check and makes it before choosing a law
    def no_law(*args):
        raise AssertionError("a law was read")

    monkeypatch.setattr(montecarlo, "_law", no_law)
    code, out, err = run(capsys, "rate", "--mode", "auto", "--r", "3", "--n", "2,4",
                         "--threads", "0")
    assert code == 2 and out == "" and "need threads >= 1, got 0" in err


def test_the_old_thread_variable_changes_no_output_and_no_thread_count(capsys, monkeypatch):
    # --threads or the usable CPUs set the thread count; FRIEDMAN_BOUNDS_THREADS,
    # once a cap on it, is not read, so neither a bad nor a low value counts
    calls = (("distance", "--r", "3", "--n", "5", "--samples", "40000", "--seed", "2"),
             ("distance", "--mode", "exact", "--r", "3", "--n", "4"),
             ("rate", "--mode", "auto", "--r", "3", "--n", "4,60", "--samples", "40000"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    clean = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 and out != "" and err == "" for code, out, err in clean)
    for value in ("two", "1"):
        monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", value)
        assert [run(capsys, *argv) for argv in calls] == clean, value
        assert cli._thread_cap(None) == 3


def test_a_reader_gone_early_is_no_input_error():
    # `verify ... | head -1`: the rest of the output (150 KB, more than a pipe
    # holds) meets a closed pipe, which once printed "error: [Errno 32] Broken
    # pipe" and exited 3
    import subprocess
    import sys
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen([sys.executable, "-m", "friedman_bounds.cli", "verify",
                             "--suite", "lemmas", "--r-max", "14", "--n-max", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert json.loads(first)["identity"] == "E[rho] = 0"
    assert proc.wait() == cli.EXIT_PIPE and err == b""


def loads(modules: list[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_subcommands_load_only_what_they_run(fresh_python, scores_csv):
    def modules_loaded_by(*argv):
        code, modules = fresh_python("import json, sys\n"
                                     "from friedman_bounds.cli import main\n"
                                     "code = main(sys.argv[1:])\n"
                                     "print(json.dumps([code, sorted(sys.modules)]))\n", *argv)
        assert code == 0
        return modules

    bounds = modules_loaded_by("bounds", "--n", "100", "--r", "3", "--json")
    assert not loads(bounds, "numpy") and not loads(bounds, "scipy")
    # the lemma suites build the overlap law by a pure-Python DP and read no table
    lemmas = modules_loaded_by("verify", "--suite", "lemmas", "--r-max", "14", "--n-max", "2")
    assert not loads(lemmas, "numpy")
    # the chi-square tail is a closed form and every chi-square integral is the
    # package's own panel rule, so no call loads scipy, not even one that reports a CDF value
    calls = (("test", scores_csv, "--json"),
             ("distance", "--r", "3", "--n", "5", "--samples", "2000", "--metric", "kolmogorov"),
             ("distance", "--metric", "wasserstein", "--r", "2", "--n", "5", "--samples", "2000"),
             ("verify", "--suite", "all", "--r-max", "3", "--n-max", "2"),
             ("rate", "--r", "3", "--n", "2,4", "--h", "x2"),
             ("distance", "--metric", "cos", "--r", "3", "--n", "4", "--mode", "exact"))
    loaded = {argv: modules_loaded_by(*argv) for argv in calls}
    for argv, modules in loaded.items():
        assert not loads(modules, "scipy"), argv
        # np.unique without indices imports numpy.ma; the exact engine and
        # the Stein grid go without it
        assert not loads(modules, "numpy.ma"), argv
    # the p-value is a chi-square tail alone: the test-function check of
    # chisq_expectation is imported where it runs, so ingest loads no test functions
    assert not loads(loaded[calls[0]], "friedman_bounds.testfunctions")
    assert loads(loaded[calls[-1]], "friedman_bounds.testfunctions")
    # a Monte Carlo distance runs no verifier, executor or quadrature, also
    # where its chunks run on worker threads (40,000 samples are three chunks);
    # it reads its tally through exact_law's float view, which imports only
    # the standard library
    threaded = ("distance", "--r", "3", "--n", "5", "--samples", "40000")
    mc_distance = calls[1:3] + (("distance", "--metric", "cos", "--r", "4", "--n", "6",
                                 "--samples", "2000"), threaded)
    for argv in mc_distance:
        modules = loaded.get(argv) or modules_loaded_by(*argv)
        for name in ("friedman_bounds.exact", "fractions", "concurrent.futures",
                     "numpy.polynomial"):
            assert not loads(modules, name), (argv, name)
    # test functions are loaded by the calls that evaluate one: not by a
    # Kolmogorov or Wasserstein distance, sampled or exact
    exact = modules_loaded_by("distance", "--mode", "exact", "--r", "4", "--n", "5")
    for modules in (loaded[calls[1]], loaded[calls[2]], exact):
        assert not loads(modules, "friedman_bounds.testfunctions")
    # the exact distance and rate read the exact-law record as ints and floats:
    # they load none of the verifiers and no fractions
    for argv in calls[-2:]:
        assert loads(loaded[argv], "friedman_bounds.exact_law"), argv
        assert not loads(loaded[argv], "friedman_bounds.exact"), argv
        assert not loads(loaded[argv], "fractions"), argv
    # the Stein call loads what it runs, so the checks above cannot pass vacuously
    stein = modules_loaded_by("verify", "--suite", "stein", "--p-max", "1")
    assert loads(stein, "friedman_bounds.stein") and loads(stein, "numpy")
    assert not loads(stein, "scipy")
    # each verify suite imports its own modules only; the entry format lives
    # in exact_law, so the Stein and coupling suites load none of the lemma verifiers
    assert not loads(stein, "friedman_bounds.coupling")
    assert loads(stein, "friedman_bounds.exact_law")
    assert not loads(stein, "friedman_bounds.exact")
    lemmas = modules_loaded_by("verify", "--suite", "lemmas", "--r-max", "3", "--n-max", "2")
    assert loads(lemmas, "friedman_bounds.exact")
    for name in ("numpy", "friedman_bounds.coupling", "friedman_bounds.stein",
                 "friedman_bounds.chisq"):
        assert not loads(lemmas, name), name
    pair = modules_loaded_by("verify", "--suite", "coupling", "--r-max", "3", "--n-max", "2")
    assert loads(pair, "friedman_bounds.coupling")
    for name in ("friedman_bounds.exact", "friedman_bounds.stein", "friedman_bounds.chisq",
                 "friedman_bounds.testfunctions"):
        assert not loads(pair, name), name
    # the identities draws read RngContract from exact_law, so no verify suite
    # loads the sampler: every suite alone, and all of them at once
    identities = modules_loaded_by("verify", "--suite", "identities", "--r-max", "3",
                                   "--trials", "3")
    assert loads(identities, "numpy") and loads(identities, "friedman_bounds.exact_law")
    every = loaded[("verify", "--suite", "all", "--r-max", "3", "--n-max", "2")]
    for modules in (lemmas, identities, pair, stein, every):
        assert not loads(modules, "friedman_bounds.montecarlo")
