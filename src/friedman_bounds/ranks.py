"""Rank data, centering, standardized scores and the Friedman statistic.

The data model: ``n`` independent trials each rank ``r`` treatments, so row
``i`` of a rank matrix is a permutation ``pi_i`` of ``{1, ..., r}``.  Centered
ranks ``rho_i(j) = pi_i(j) - (r+1)/2`` are half-integers; they are stored
internally as doubled integers (``2*rho``) so that row sums and small-case
moments stay exact.  Floating point enters only in the standardized scores

    S_j = sqrt(12 / (r (r+1) n)) * sum_i rho_i(j),

and the Friedman statistic ``F_r = sum_j S_j**2``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, ParseError, TieError

__all__ = [
    "RankMatrix",
    "CenteredRanks",
    "ScoreVector",
    "ranks_from_scores",
    "center",
    "score_vector",
    "friedman_statistic",
    "theoretical_covariance",
    "load_csv",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RankMatrix:
    """An n x r integer array whose rows are permutations of 1..r."""

    ranks: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.ranks, dtype=np.int64)
        if a.ndim != 2:
            raise DomainError("rank matrix must be two-dimensional")
        n, r = a.shape
        if n < 1 or r < 2:
            raise DomainError(f"need n >= 1 trials and r >= 2 treatments, got {n} x {r}")
        expected = np.arange(1, r + 1)
        if not np.all(np.sort(a, axis=1) == expected):
            bad = int(np.flatnonzero(np.any(np.sort(a, axis=1) != expected, axis=1))[0])
            raise DomainError(f"row {bad} is not a permutation of 1..{r}")
        object.__setattr__(self, "ranks", _frozen(a))

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def r(self) -> int:
        return self.ranks.shape[1]


@dataclass(frozen=True, eq=False)
class CenteredRanks:
    """Centered ranks rho_i(j) = pi_i(j) - (r+1)/2, held as doubled integers."""

    doubled: np.ndarray  # 2*rho, so every entry is an odd/even integer of |.| <= r-1

    @property
    def n(self) -> int:
        return self.doubled.shape[0]

    @property
    def r(self) -> int:
        return self.doubled.shape[1]


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Standardized column scores S and the Friedman statistic F_r = sum S_j^2."""

    s: np.ndarray
    f_r: float
    n: int
    r: int


def ranks_from_scores(scores) -> RankMatrix:
    """Rank each row of a raw score matrix (1 = smallest).

    Raises TieError if any row contains duplicated scores and NonFiniteError
    if any entry is NaN or infinite; the null model has no provision for ties.
    """
    a = np.asarray(scores, dtype=float)
    if a.ndim != 2:
        raise DomainError("score matrix must be two-dimensional")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("scores contain non-finite entries")
    n, r = a.shape
    if n < 1 or r < 2:
        raise DomainError(f"need n >= 1 trials and r >= 2 treatments, got {n} x {r}")
    for i in range(n):
        if len(set(a[i].tolist())) != r:
            raise TieError(i)
    order = np.argsort(a, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(n)[:, None]
    ranks[rows, order] = np.arange(1, r + 1)
    return RankMatrix(ranks)


def center(ranks: RankMatrix) -> CenteredRanks:
    """Subtract the row mean (r+1)/2 from every rank; rows then sum to 0."""
    doubled = 2 * ranks.ranks - (ranks.r + 1)
    return CenteredRanks(_frozen(doubled))


def score_vector(centered: CenteredRanks) -> ScoreVector:
    """Standardized column sums S_j and the statistic F_r = sum_j S_j^2."""
    n, r = centered.n, centered.r
    scale = math.sqrt(12.0 / (r * (r + 1) * n))
    col = centered.doubled.sum(axis=0)  # exact integers, = 2 * sum_i rho_i(j)
    s = scale * (col / 2.0)
    f_r = float(np.dot(s, s))
    return ScoreVector(s=_frozen(s), f_r=f_r, n=n, r=r)


def friedman_statistic(ranks: RankMatrix) -> ScoreVector:
    """Convenience composition: center then score."""
    return score_vector(center(ranks))


def theoretical_covariance(r: int) -> np.ndarray:
    """Exact covariance matrix of S, read-only: (r-1)/r on the diagonal, -1/r off it."""
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    sigma = np.full((r, r), -1.0 / r)
    np.fill_diagonal(sigma, (r - 1.0) / r)
    return _frozen(sigma)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path, fmt: str) -> RankMatrix:
    """Read a CSV of trials (rows) by treatments (columns).

    ``fmt='scores'`` ranks real values within each row; ``fmt='ranks'``
    expects integer permutations of 1..r.  A non-numeric first row is treated
    as a header and skipped.
    """
    if fmt not in ("scores", "ranks"):
        raise DomainError(f"unknown format {fmt!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(t.strip() for t in row)]
    if rows and not all(_is_number(t) for t in rows[0]):
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    data = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        try:
            data.append([float(t) for t in row])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i}: {exc}") from exc
    a = np.array(data, dtype=float)
    if fmt == "scores":
        return ranks_from_scores(a)
    ints = a.astype(np.int64)
    if not np.all(ints == a):
        raise ParseError(f"{path}: rank entries must be integers")
    try:
        return RankMatrix(ints)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
