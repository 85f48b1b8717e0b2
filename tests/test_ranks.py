"""Rank ingestion, centering, scores and the statistic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedman_bounds import (DomainError, NonFiniteError, RankMatrix, TieError, center,
                             friedman_statistic, ranks_from_scores, score_vector,
                             theoretical_covariance)
from friedman_bounds.montecarlo import RngContract, sample_rank_matrix


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
    with pytest.raises(TieError) as err:
        ranks_from_scores([[1.0, 1.0, 3.0]])
    assert err.value.row == 0
    with pytest.raises(NonFiniteError):
        ranks_from_scores([[1.0, float("nan"), 3.0]])
    with pytest.raises(NonFiniteError):
        ranks_from_scores([[1.0, float("inf"), 3.0]])


def test_center_examples():
    assert (center(RankMatrix([[1, 2, 3]])).doubled / 2).tolist() == [[-1.0, 0.0, 1.0]]
    assert (center(RankMatrix([[2, 1]])).doubled / 2).tolist() == [[0.5, -0.5]]
    assert (center(RankMatrix([[3, 1, 4, 2]])).doubled / 2).tolist() == [[0.5, -1.5, 1.5, -0.5]]
    assert center(RankMatrix([[3, 1, 4, 2]])).doubled.sum() == 0


def test_score_vector_examples():
    sv = score_vector(center(RankMatrix([[1, 2, 3]])))
    assert sv.s == pytest.approx([-1.0, 0.0, 1.0])
    assert sv.f_r == pytest.approx(2.0)

    sv = score_vector(center(RankMatrix([[1, 2], [2, 1]])))
    assert sv.s == pytest.approx([0.0, 0.0])
    assert sv.f_r == 0.0

    sv = score_vector(center(RankMatrix([[1, 2], [1, 2]])))
    assert sv.s[0] == pytest.approx(-1.0)
    assert sv.f_r == pytest.approx(2.0)


def test_rank_matrix_validation():
    with pytest.raises(DomainError):
        RankMatrix([[1, 1, 3]])
    with pytest.raises(DomainError):
        RankMatrix([[0, 1]])
    with pytest.raises(DomainError):
        RankMatrix([[1], [1]])  # r must be >= 2


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
    ranks = sample_rank_matrix(n, r, RngContract(seed=seed).generator())
    sv = friedman_statistic(ranks)
    assert abs(sv.s.sum()) <= 1e-12 * r
    assert sv.f_r >= 0.0
    ref = reference_statistic(ranks.ranks.tolist())
    assert sv.f_r == pytest.approx(ref, rel=1e-10, abs=1e-12)


@given(r=st.integers(2, 5), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       a=st.floats(0.1, 10.0), b=st.floats(-5.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_rank_invariance_under_monotone_maps(r, n, seed, a, b):
    gen = RngContract(seed=seed).generator()
    scores = gen.standard_normal((n, r)).cumsum(axis=1)  # distinct with prob. 1
    base = ranks_from_scores(scores)
    assert ranks_from_scores(a * scores + b).ranks.tolist() == base.ranks.tolist()
    assert ranks_from_scores(np.exp(scores)).ranks.tolist() == base.ranks.tolist()
