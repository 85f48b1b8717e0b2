"""CLI behaviors: schemas, exit codes, determinism."""

import json
import math
import os
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from friedman_bounds import bounds, cli, coupling, exact, montecarlo
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
]


@pytest.mark.parametrize("argv, stdout", GOLDEN_DISTANCE)
def test_cmd_distance_golden_stdout(capsys, argv, stdout):
    code, out, _ = run(capsys, "distance", *argv)
    assert code == 0
    assert out == stdout


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
    # covariance half became a check on one trial's rows.  The `test` lines,
    # with their stderr, were pinned before rank files got an integer parse
    # and scores a plain argsort; their CSVs sit next to the golden file.
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(golden)
    for line in (golden / "results.jsonl").read_text().splitlines():
        call = json.loads(line)
        code, out, err = run(capsys, *call["argv"])
        assert (code, out) == (call["code"], call["stdout"]), call["argv"]
        assert err == call.get("stderr", err), call["argv"]


def test_coupling_suite_runs_the_swap_pass_once_per_r():
    coupling._swap_pass.cache_clear()
    coupling.verify_suite(5, 4)
    assert coupling._swap_pass.cache_info().misses == 4  # r = 2..5, whatever n


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
     "--threads must be an integer >= 1, got 0"),
    (("rate", "--r", "3", "--n", "5", "--mode", "mc", "--samples", "2000", "--threads", "-2"),
     "--threads must be an integer >= 1, got -2"),
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
    (("verify", "--suite", "lemmas", "--r-max", "23"), "r=23 needs 212520 enumerated terms"),
    (("verify", "--r-max", "23"), "r=23 needs 212520 enumerated terms"),
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
    # the identities draws are keyed by (seed, 0), so --seed lies in [0, 2**64)
    got, out, err = run(capsys, "verify", "--suite", "identities", "--r-max", "3",
                        "--trials", "3", "--seed", str(seed))
    assert got == code
    if code:
        assert out == ""
        assert (f"need seed >= 0, got {seed}" if seed < 0
                else f"seed must lie in [0, 2**64), got {seed}") in err
    else:
        assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


def test_cmd_verify_identities_run_to_the_budget(capsys):
    # r = 3..8 fit; the r = 9 check needs the 9! terms of the overlap law
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--r-max", "9",
                       "--trials", "10")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and {e["r"] for e in lines} == set(range(3, 10))
    assert all(e["status"] == "pass" for e in lines if e["r"] <= 8)
    [skip] = [e for e in lines if e["r"] == 9]
    assert skip["status"] == "skip" and "362880 enumerated terms" in skip["note"]


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


def test_cmd_distance_exact_beyond_budget(capsys):
    code, _, err = run(capsys, "distance", "--r", "5", "--n", "100", "--mode", "exact",
                       "--metric", "kolmogorov")
    assert code == 2 and "exceeds" in err


def test_thread_env_cap_does_not_change_results(capsys, monkeypatch):
    args = ("distance", "--r", "2", "--n", "10", "--metric", "kolmogorov",
            "--samples", "40000", "--seed", "3", "--threads", "8")
    monkeypatch.delenv("FRIEDMAN_BOUNDS_THREADS", raising=False)
    _, out1, _ = run(capsys, *args)
    monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", "1")
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# three chunks of samples or more, so that the workers really run
THREADED_CALLS = [
    ("distance", "--r", "8", "--n", "20", "--samples", "40000", "--seed", "11"),
    ("distance", "--metric", "cos", "--r", "6", "--n", "20", "--samples", "40000", "--seed", "12"),
    ("distance", "--metric", "wasserstein", "--r", "2", "--n", "30", "--samples", "40000",
     "--seed", "13"),
    ("rate", "--mode", "mc", "--r", "3", "--n", "5,7", "--samples", "40000", "--seed", "14"),
]


@pytest.mark.parametrize("argv", THREADED_CALLS, ids=lambda argv: " ".join(argv[:4]))
def test_default_threads_print_the_one_thread_bytes(capsys, monkeypatch, argv):
    monkeypatch.delenv("FRIEDMAN_BOUNDS_THREADS", raising=False)
    results = [run(capsys, *argv), run(capsys, *argv, "--threads", "1"),
               run(capsys, *argv, "--threads", "3")]
    monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", "1")
    results.append(run(capsys, *argv))
    assert results[0][1] != "" and results[0][2] == ""
    assert all(result == results[0] for result in results), results


def test_default_threads_are_the_usable_cpus_capped_by_the_env(capsys, monkeypatch):
    monkeypatch.delenv("FRIEDMAN_BOUNDS_THREADS", raising=False)
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
    monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", "2")
    assert cli._thread_cap(None) == 2
    assert workers_for(4 * chunk) == 2
    monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", "8")
    assert cli._thread_cap(None) == 3  # the cap does not raise the default
    monkeypatch.delenv("FRIEDMAN_BOUNDS_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._thread_cap(None) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._thread_cap(None) == 1


@pytest.mark.parametrize("value", ["two", "0", "-3", ""])
def test_thread_env_invalid_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("FRIEDMAN_BOUNDS_THREADS", value)
    code, out, err = run(capsys, "distance", "--r", "2", "--n", "10", "--samples", "2000",
                         "--threads", "2")
    assert code == 2 and out == ""
    assert "FRIEDMAN_BOUNDS_THREADS" in err


def loads(modules: list[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_subcommands_load_only_what_they_run(fresh_python, scores_csv, monkeypatch):
    monkeypatch.delenv("FRIEDMAN_BOUNDS_THREADS", raising=False)  # calls run on the default threads
    def modules_loaded_by(*argv):
        code, modules = fresh_python("import json, sys\n"
                                     "from friedman_bounds.cli import main\n"
                                     "code = main(sys.argv[1:])\n"
                                     "print(json.dumps([code, sorted(sys.modules)]))\n", *argv)
        assert code == 0
        return modules

    bounds = modules_loaded_by("bounds", "--n", "100", "--r", "3", "--json")
    assert not loads(bounds, "numpy") and not loads(bounds, "scipy")
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
    # a Monte Carlo distance runs no exact law, executor or quadrature, also
    # where its chunks run on worker threads (40,000 samples are three chunks)
    threaded = ("distance", "--r", "3", "--n", "5", "--samples", "40000")
    mc_distance = calls[1:3] + (("distance", "--metric", "cos", "--r", "4", "--n", "6",
                                 "--samples", "2000"), threaded)
    for argv in mc_distance:
        modules = loaded.get(argv) or modules_loaded_by(*argv)
        for name in ("friedman_bounds.exact", "friedman_bounds.exact_law", "fractions",
                     "concurrent.futures", "numpy.polynomial"):
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
