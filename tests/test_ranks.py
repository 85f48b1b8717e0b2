"""Rank ingestion, scores and the statistic."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedman_bounds import exact_law
from friedman_bounds import ranks as ranks_module
from friedman_bounds import (DomainError, NonFiniteError, ParseError, RankMatrix, TieError,
                             friedman_statistic, load_csv, ranks_from_scores,
                             theoretical_covariance)
from friedman_bounds.montecarlo import RngContract, uniform_rows


def reference_statistic(rows):
    """Second, independent evaluation of F_r straight from the definition."""
    n = len(rows)
    r = len(rows[0])
    scale = math.sqrt(12.0 / (r * (r + 1) * n))
    total = 0.0
    for j in range(r):
        col = sum(rows[i][j] - (r + 1) / 2.0 for i in range(n))
        total += (scale * col) ** 2
    return total


def test_ranks_from_scores_examples():
    assert ranks_from_scores([[2.5, 1.0, 7.0]]).ranks.tolist() == [[2, 1, 3]]
    assert ranks_from_scores([[5, 1], [2, 9]]).ranks.tolist() == [[2, 1], [1, 2]]


def test_ranks_from_scores_ties_and_nonfinite():
    # without a path the texts name no file (load_csv adds the path)
    with pytest.raises(TieError, match=r"^tied scores in row 0$") as err:
        ranks_from_scores([[1.0, 1.0, 3.0]])
    assert err.value.row == 0
    with pytest.raises(NonFiniteError, match=r"^scores contain non-finite entries$"):
        ranks_from_scores([[1.0, float("nan"), 3.0]])
    with pytest.raises(NonFiniteError):
        ranks_from_scores([[1.0, float("inf"), 3.0]])
    with pytest.raises(DomainError, match="score matrix must be two-dimensional"):
        ranks_from_scores(np.array([0.5, 0.1, 0.9]))


@pytest.mark.parametrize("text,error,message", [
    ("a,b,c\n1,2,3\n4,5,4\n", TieError, "tied scores in row 1"),
    ("1,2,3\n4,5,6\n7,8,inf\n1,nan,2\n", NonFiniteError, "row 2 has a non-finite score"),
    ("1,2,3\n-inf,5,6\n", NonFiniteError, "row 1 has a non-finite score"),
])
def test_load_csv_score_errors_name_the_path_and_the_row(tmp_path, text, error, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        load_csv(path, "scores")
    assert str(err.value) == f"{path}: {message}"
    if error is TieError:
        assert err.value.row == int(message.rsplit(" ", 1)[1])


def test_score_vector_examples():
    sv = friedman_statistic(RankMatrix([[1, 2, 3]]))
    assert sv.s == pytest.approx([-1.0, 0.0, 1.0])
    assert sv.f_r == pytest.approx(2.0)

    sv = friedman_statistic(RankMatrix([[1, 2], [2, 1]]))
    assert sv.s == pytest.approx([0.0, 0.0])
    assert sv.f_r == 0.0

    sv = friedman_statistic(RankMatrix([[1, 2], [1, 2]]))
    assert sv.s[0] == pytest.approx(-1.0)
    assert sv.f_r == pytest.approx(2.0)


def test_rank_matrix_validation():
    with pytest.raises(DomainError):
        RankMatrix([[1, 1, 3]])
    with pytest.raises(DomainError):
        RankMatrix([[0, 1]])
    with pytest.raises(DomainError):
        RankMatrix([[1], [1]])  # r must be >= 2
    with pytest.raises(DomainError, match="row 1 has a non-integer rank"):
        RankMatrix([[1.0, 2.0, 3.0], [2.9, 1.0, 3.0]])  # never truncated to [2, 1, 3]
    with pytest.raises(DomainError):
        RankMatrix([[1.0, float("nan")]])
    with pytest.raises(DomainError, match="rank matrix must be two-dimensional"):
        RankMatrix(np.array([1, 2, 3]))


def test_theoretical_covariance_examples():
    cov = theoretical_covariance(2)
    assert cov.tolist() == [[0.5, -0.5], [-0.5, 0.5]]
    cov = theoretical_covariance(4)
    assert np.allclose(np.diag(cov), 0.75)
    assert cov[0, 1] == -0.25
    with pytest.raises(DomainError):
        theoretical_covariance(1)


@pytest.mark.parametrize("r", [2, 3, 5, 9])
def test_covariance_structure(r):
    sigma = theoretical_covariance(r)
    assert np.max(np.abs(sigma.sum(axis=1))) < 1e-15
    # projection: Sigma^2 = Sigma, eigenvalues {0, 1 x (r-1)}
    assert np.max(np.abs(sigma @ sigma - sigma)) < 1e-12
    eig = np.sort(np.linalg.eigvalsh(sigma))
    assert eig[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(eig[1:], 1.0, atol=1e-12)
    ones = np.ones(r)
    assert np.max(np.abs(sigma @ ones)) < 1e-12


@given(r=st.integers(2, 6), n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_score_invariants(r, n, seed):
    ranks = RankMatrix(uniform_rows(n, r, RngContract(seed=seed).generator()))
    sv = friedman_statistic(ranks)
    assert abs(sv.s.sum()) <= 1e-12 * r
    assert sv.f_r >= 0.0
    ref = reference_statistic(ranks.ranks.tolist())
    assert sv.f_r == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_statistic_is_rounded_once_from_the_integer_square():
    # F_r is exact_law's float of the Python-int |Q|^2, Q the doubled column
    # sums, so it is correctly rounded: once the sqrt-scaled scores missed the
    # correctly rounded value on 1,125 of these 2,000 tie-free data sets
    gen = np.random.default_rng(20)
    for _ in range(2000):
        n, r = int(gen.integers(1, 60)), int(gen.integers(2, 12))
        m = ranks_from_scores(gen.standard_normal((n, r)))
        key = sum((2 * sum(col) - n * (r + 1)) ** 2 for col in zip(*m.ranks.tolist()))
        f_r = friedman_statistic(m).f_r
        assert f_r == exact_law.f_of_key(key, n, r) == float(Fraction(3 * key, r * (r + 1) * n))


@given(r=st.integers(2, 5), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       a=st.floats(0.1, 10.0), b=st.floats(-5.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_rank_invariance_under_monotone_maps(r, n, seed, a, b):
    gen = RngContract(seed=seed).generator()
    scores = gen.standard_normal((n, r)).cumsum(axis=1)  # distinct with prob. 1
    base = ranks_from_scores(scores)
    assert ranks_from_scores(a * scores + b).ranks.tolist() == base.ranks.tolist()
    assert ranks_from_scores(np.exp(scores)).ranks.tolist() == base.ranks.tolist()


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_header_blank_and_quoted_rows(tmp_path):
    # a first row with any non-numeric field is a header; blank, whitespace-only
    # and comma-only rows are skipped; quoted fields hold numbers
    path = write(tmp_path, "a,b,c\n3,1,2\n\n,,\n  \n , ,\n1,3,2\n")
    assert load_csv(path, "ranks").ranks.tolist() == [[3, 1, 2], [1, 3, 2]]
    path = write(tmp_path, '"x","y","z"\n"0.5","1.5","-2"\n 7 ,"8",-1e3\n')
    assert load_csv(path, "scores").ranks.tolist() == [[2, 3, 1], [2, 3, 1]]
    path = write(tmp_path, "1,2\r\n\r\n2,1\r\n")
    assert load_csv(path, "ranks").ranks.tolist() == [[1, 2], [2, 1]]
    # a UTF-8 byte-order mark does not turn the first data row into a header
    path = write(tmp_path, "\ufeff3,1,2\n2,1,3\n")
    assert load_csv(path, "ranks").ranks.tolist() == [[3, 1, 2], [2, 1, 3]]


@pytest.mark.parametrize("text,row", [
    ("1,2,3\n\n3,1,2\n1,2\n", 2),          # ragged, after a skipped blank row
    ("a,b,c\n1,2,3\n2,1\n", 1),             # ragged, after a header
    ("1,2,3\n2,3,1\n3,1,2,4\n", 2),         # too many fields
    ("1,2,3\n2,x,1\n", 1),                  # non-numeric token
    ("1,2\n3\x0c4,1\n", 1),                  # a form feed inside a row is no line break
    ("a,b,c\n1,2,3\n,,\n3,2,1\n2,1,oops\n", 2),
])
def test_load_csv_bad_row_is_named(tmp_path, text, row):
    path = write(tmp_path, text)
    for fmt in ("scores", "ranks"):
        with pytest.raises(ParseError, match=f"row {row}\\b"):
            load_csv(path, fmt)


@pytest.mark.parametrize("bad,message", [("2,x,1", "row 3: '2,x,1' is not 3 numbers"),
                                         ("2,1", "row 3 has 2 fields, expected 3")])
def test_load_csv_bad_row_in_the_first_half_is_named(tmp_path, bad, message):
    # the bisection's first window already holds the bad row, so parsing that
    # window fails and the search narrows to the front of the file
    lines = ["1,2,3"] * 40
    lines[3] = bad
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        load_csv(path, "ranks")


def test_load_csv_refuses_an_unknown_format_before_reading(tmp_path):
    with pytest.raises(DomainError, match="unknown format 'json'"):
        load_csv(tmp_path / "absent.csv", "json")


@pytest.mark.parametrize("text", ["", "\n\n", "a,b,c\n", "a,b,c\n\n,,\n"])
def test_load_csv_without_data_rows(tmp_path, text):
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(write(tmp_path, text), "scores")


def test_load_csv_rank_entries_must_be_integers(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1,2,3\n2.5,1,3\n"), "ranks")
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1,2,3\n1,1,3\n"), "ranks")


def test_load_csv_rejects_digit_group_underscores(tmp_path):
    # float() reads "1_000" as 1000; the CSV parser does not
    with pytest.raises(ParseError, match="row 1"):
        load_csv(write(tmp_path, "1,2,3\n1_000,2,3\n"), "scores")


def non_utf8_csv(tmp_path, position):
    """A CSV with one 0xe9 byte in its header or 6,000 rows down, and that byte's offset."""
    head = b"\xef\xbb\xbftreatment a,b,c\n"  # a byte-order mark counts as bytes too
    body = b"3,1,2\n" * 6000
    if position == "header":
        data = head.replace(b" a", b" \xe9") + body
    else:
        data = head + body + b"2,1,\xe9\n" + b"1,2,3\n" * 100
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    return str(path), data.index(b"\xe9")


@pytest.mark.parametrize("position", ["header", "row 6000"])
def test_load_csv_non_utf8_is_a_parse_error_at_its_byte(tmp_path, position):
    path, offset = non_utf8_csv(tmp_path, position)
    for fmt in ("scores", "ranks"):
        with pytest.raises(ParseError, match=f"{re.escape(path)}: not UTF-8 text at byte {offset}$"):
            load_csv(path, fmt)


def stable_argsort_ranks(scores):
    """The ranking formula before the plain argsort: one stable argsort, ties
    found by a zero difference on the ordered view, row by row."""
    a = np.asarray(scores, dtype=float)
    order = np.argsort(a, axis=1, kind="stable")
    tied = (np.diff(np.take_along_axis(a, order, axis=1), axis=1) == 0).any(axis=1)
    if tied.any():
        raise TieError(int(np.flatnonzero(tied)[0]))
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, a.shape[1] + 1), axis=1)
    return ranks


@given(r=st.integers(2, 60), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       ties=st.integers(0, 3), zeros=st.booleans())
@settings(max_examples=200, deadline=None)
def test_ranks_from_scores_matches_the_stable_argsort_formula(r, n, seed, ties, zeros):
    gen = np.random.default_rng(seed)
    scores = np.round(gen.standard_normal((n, r)), 2)  # ties of their own at large r
    for _ in range(ties):  # a copied score ties its row
        i, j, k = gen.integers(n), *gen.choice(r, 2, replace=False)
        scores[i, j] = scores[i, k]
    if zeros:  # -0.0 == 0.0: a tie, or alone in its row a score like any other
        i, j, k = gen.integers(n), *gen.choice(r, 2, replace=False)
        scores[i, j], scores[i, k] = -0.0, (0.0 if gen.integers(2) else 5.0)
    try:
        expected = stable_argsort_ranks(scores)
    except TieError as tie:
        with pytest.raises(TieError) as err:
            ranks_from_scores(scores)
        assert err.value.row == tie.row
    else:
        got = ranks_from_scores(scores).ranks
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, expected)


def test_ranks_and_float_ranks_load_alike(tmp_path):
    rows = np.random.default_rng(3).permuted(np.tile(np.arange(1, 7), (50, 1)), axis=1)
    plain = write(tmp_path, "\n".join(",".join(map(str, row)) for row in rows) + "\n", "a.csv")
    dotted = write(tmp_path, "\n".join(",".join(f"{v}.0" for v in row) for row in rows) + "\n",
                   "b.csv")
    for path in (plain, dotted):
        got = load_csv(path, "ranks").ranks
        assert got.dtype == np.int64 and np.array_equal(got, rows)


@pytest.mark.parametrize("text,expected", [
    ("1,2,3\n1_000,2,3\n", "row 1: '1_000,2,3' is not 3 numbers"),
    ("1e0,2,3\n3,1,2\n", [[1, 2, 3], [3, 1, 2]]),
    (f"1,2,3\n{2 ** 70},1,2\n", "row 1 is not a permutation of 1..3"),
    (f"1,2,3\n{2 ** 63 - 1},1,2\n", "row 1 is not a permutation of 1..3"),
    ("1,2,3\n,,\n3,1,2\n", [[1, 2, 3], [3, 1, 2]]),
    ("a,b,c\n1,2,3\n2,3,1\n", [[1, 2, 3], [2, 3, 1]]),
    ("1,2,3\n2,1.5,3\n", "row 1 has a non-integer rank"),
])
def test_rank_files_off_the_integer_parse_keep_their_result(tmp_path, text, expected):
    # results and error texts as before rank files had an integer parse; the
    # one cast that warned (an entry past int64 read as a float) is gone
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                load_csv(path, "ranks")
        else:
            got = load_csv(path, "ranks").ranks
            assert got.dtype == np.int64 and got.tolist() == expected


def test_an_integer_rank_file_never_reaches_the_float_parse(tmp_path, monkeypatch):
    parse = ranks_module._parse

    def integers_only(source, skiprows=0, dtype=float):
        if dtype is float:
            raise AssertionError("float parse reached")
        return parse(source, skiprows, dtype)

    monkeypatch.setattr(ranks_module, "_parse", integers_only)
    path = write(tmp_path, "t1,t2,t3\n 3 ,\"1\",+2\n\n2,3,1\n")
    assert load_csv(path, "ranks").ranks.tolist() == [[3, 1, 2], [2, 3, 1]]
    with pytest.raises(AssertionError, match="float parse reached"):
        load_csv(write(tmp_path, "3,1,2\n2.0,3,1\n"), "ranks")
