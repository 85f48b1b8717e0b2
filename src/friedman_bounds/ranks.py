"""Rank data, standardized scores and the Friedman statistic.

The data model: ``n`` independent trials each rank ``r`` treatments, so row
``i`` of a rank matrix is a permutation ``pi_i`` of ``{1, ..., r}``.  The
statistic depends on the matrix only through its column sums: with centered
ranks ``rho_i(j) = pi_i(j) - (r+1)/2``, the doubled column sums
``Q_j = 2 sum_i rho_i(j) = 2 sum_i pi_i(j) - n(r+1)`` are exact integers, and
floating point enters only in the standardized scores

    S_j = sqrt(12 / (r (r+1) n)) * sum_i rho_i(j),

and in the Friedman statistic ``F_r = sum_j S_j**2 = 3 |Q|^2 / (r (r+1) n)``,
which ``exact_law.f_of_key`` rounds once from the Python-int ``|Q|^2``,
as it rounds every atom of the exact and sampled laws.  A CSV goes from the file
to ``F_r`` without a Python loop over its rows: one ``np.loadtxt`` parse of
the file past its header, one column sum, and between them, for scores, one
``argsort`` whose ordered view also finds ties, or, for ranks, one row sort
that checks the permutations.  A rank file is parsed as int64 first, so a
file of plain integers needs no float parse and no integral check.  Only a
file that the float parse refuses has its data lines picked out by a regular
expression, which drops blank-field rows or names the bad row.  Every check
is a reduction over the whole array; the bad row is looked for only once a
check fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError, NonFiniteError, ParseError, TieError, check_count
from .exact_law import f_of_key

__all__ = [
    "RankMatrix",
    "ScoreVector",
    "ranks_from_scores",
    "friedman_statistic",
    "theoretical_covariance",
    "load_csv",
]

# a line holding something besides blanks and commas
_DATA_LINE = re.compile(r"^.*[^\s,].*$", re.MULTILINE)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _first_row(flags: np.ndarray) -> int:
    """Index of the first row with a flag set, given that one is."""
    return int(np.flatnonzero(flags.any(axis=1))[0])


@dataclass(frozen=True, eq=False)
class RankMatrix:
    """An n x r integer array whose rows are permutations of 1..r."""

    ranks: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.ranks)
        if a.ndim != 2:
            raise DomainError("rank matrix must be two-dimensional")
        n, r = a.shape
        if n < 1 or r < 2:
            raise DomainError(f"need n >= 1 trials and r >= 2 treatments, got {n} x {r}")
        if a.dtype.kind not in "iu":  # an integer array holds no fraction, NaN or inf
            fractional = ~(np.isfinite(a) & (a == np.floor(a)))
            if fractional.any():
                raise DomainError(f"row {_first_row(fractional)} has a non-integer rank")
        wrong = np.sort(a, axis=1) != np.arange(1, r + 1)
        if wrong.any():
            raise DomainError(f"row {_first_row(wrong)} is not a permutation of 1..{r}")
        object.__setattr__(self, "ranks", _frozen(a.astype(np.int64)))

    @classmethod
    def _of_permutations(cls, ranks: np.ndarray) -> RankMatrix:
        """Wrap an int64 array whose rows are permutations of 1..r by construction."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "ranks", _frozen(ranks))
        return matrix

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def r(self) -> int:
        return self.ranks.shape[1]


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Standardized column scores S and the Friedman statistic F_r = sum S_j^2."""

    s: np.ndarray
    f_r: float
    n: int
    r: int


def ranks_from_scores(scores) -> RankMatrix:
    """Rank each row of a raw score matrix (1 = smallest).

    Raises TieError naming the first row that contains duplicated scores and
    NonFiniteError if any entry is NaN or infinite; the null model has no
    provision for ties.
    """
    a = np.asarray(scores, dtype=float)
    if a.ndim != 2:
        raise DomainError("score matrix must be two-dimensional")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("scores contain non-finite entries")
    n, r = a.shape
    if n < 1 or r < 2:
        raise DomainError(f"need n >= 1 trials and r >= 2 treatments, got {n} x {r}")
    # any sort will do: distinct values have one order, and ties are refused
    # before a rank is read
    order = np.argsort(a, axis=1)
    ordered = np.take_along_axis(a, order, axis=1)
    tied = ordered[:, 1:] == ordered[:, :-1]
    if tied.any():
        raise TieError(_first_row(tied))
    ranks = np.empty((n, r), dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, r + 1), axis=1)
    return RankMatrix._of_permutations(ranks)


def friedman_statistic(ranks: RankMatrix) -> ScoreVector:
    """Standardized column sums S_j and the statistic F_r = sum_j S_j^2, the
    latter rounded once from the integer |Q|^2 (exact_law.f_of_key)."""
    n, r = ranks.n, ranks.r
    scale = math.sqrt(12.0 / (r * (r + 1) * n))
    col = 2 * ranks.ranks.sum(axis=0) - n * (r + 1)  # exact integers, = 2 * sum_i rho_i(j)
    s = scale * (col / 2.0)
    return ScoreVector(s=_frozen(s), f_r=f_of_key(sum(q * q for q in col.tolist()), n, r), n=n, r=r)


def theoretical_covariance(r: int) -> np.ndarray:
    """Exact covariance matrix of S, read-only: (r-1)/r on the diagonal, -1/r off it."""
    r = check_count(r, 2, "r")
    sigma = np.full((r, r), -1.0 / r)
    np.fill_diagonal(sigma, (r - 1.0) / r)
    return _frozen(sigma)


def _parse(source, skiprows: int = 0, dtype=float) -> np.ndarray:
    """Comma-separated numbers from a path or a list of lines."""
    return np.loadtxt(source, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                      ndmin=2, skiprows=skiprows, encoding="utf-8-sig")


def _first_bad_row(lines: list[str], width: int) -> int:
    """Index of the first line that is not ``width`` numbers, given that one is not.

    Bisects on windows, so it parses about as many lines as ``lines`` holds.
    """
    lo, hi = 0, len(lines)  # the first bad line lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            good = _parse(lines[lo:mid]).shape[1] == width
        except ValueError:
            good = False
        lo, hi = (mid, hi) if good else (lo, mid)
    return lo


def load_csv(path, fmt: str) -> RankMatrix:
    """Read a CSV of trials (rows) by treatments (columns).

    ``fmt='scores'`` ranks real values within each row; ``fmt='ranks'``
    expects integer permutations of 1..r.  A first row with a field that
    ``float()`` rejects is a header and is skipped, as are blank and
    comma-only rows; fields may be quoted.  Errors start with the path and
    name the 0-based data row (counted after the header and the skipped rows),
    or for a file that is not UTF-8 the offset of its first bad byte.
    """
    if fmt not in ("scores", "ranks"):
        raise DomainError(f"unknown format {fmt!r}")
    try:
        a = _read_numbers(path, integers=fmt == "ranks")
    except UnicodeDecodeError:  # its offset counts from a decoder chunk: find the byte
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        raise
    try:
        return ranks_from_scores(a) if fmt == "scores" else RankMatrix(a)
    except TieError as exc:
        raise TieError(exc.row, f"{path}: {exc}") from None
    except NonFiniteError:
        raise NonFiniteError(f"{path}: row {_first_row(~np.isfinite(a))} has a non-finite "
                             "score") from None
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_numbers(path, integers: bool) -> np.ndarray:
    """The data rows of a CSV as one array (see load_csv): int64 if ``integers``
    and every field is a plain integer, else float."""
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not data
        data = ((i, line) for i, line in enumerate(fh) if _DATA_LINE.match(line))
        skip, first = next(data, (0, None))
        if first is not None:
            try:  # the header rule reads the first data line alone with float()
                [float(t.strip().strip('"')) for t in first.split(",")]
            except ValueError:
                skip, first = next(data, (0, None))
    if first is None:
        raise ParseError(f"{path}: no data rows")
    if integers:
        try:
            return _parse(path, skip, np.int64)
        except UnicodeDecodeError:
            raise
        except ValueError:  # "2.0", "1e0", "nan", a blank field or a bad row
            pass
    try:  # the file as it stands, past the lines before its first data row
        return _parse(path, skip)
    except ValueError:  # a blank-field row to drop, or a bad row to name
        with open(path, encoding="utf-8-sig") as fh:
            lines = _DATA_LINE.findall("".join(islice(fh, skip, None)))
        try:
            return _parse(lines)
        except ValueError:
            width = lines[0].count(",") + 1
            i = _first_bad_row(lines, width)
            fields = lines[i].count(",") + 1
            if fields != width:
                raise ParseError(f"{path}: row {i} has {fields} fields, "
                                 f"expected {width}") from None
            raise ParseError(f"{path}: row {i}: {lines[i]!r} is not {width} numbers") from None
