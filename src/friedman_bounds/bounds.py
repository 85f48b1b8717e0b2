"""Explicit chi-square approximation error bounds for Friedman's statistic.

All bounds are pure functions of (n, r) and derivative sup-norms of the test
function.  The compact bound is

    (r/n) [ 293 h1 + (2269 + 431 r/n) h2 + (3533 + 646 r/n) h3 ],

valid for n >= 1, r >= 2 and h in C_b^{1,3}.  The sharper coefficient form,
valid for n >= 2, expresses the same quantity through

    A_n  = 3 + 9/(5n) - 21/(5n^2)
    B_n  = 36 sqrt(A_n) + 11.98 + 134.28 sqrt(7/48 + 1/(5n))
           + 18 sqrt(5)/sqrt(n) + 200/n
    C_T  = 7/48 + r^2/(36 n^2) + 1/(5n)
    beta1 = 42.33 + 144.112 sqrt(A_n)
    beta2 = 78.89 + 216.204 sqrt(A_n) + 8 sqrt(A_n) (B_n + 31 r/n)
    beta3 = 783.15 + 4158.75/n + 3572.39/n^2 + 12 sqrt(A_n) (B_n + 31 r/n)

and has the smaller numerical value once n >= 147.  The trivial mean-value
bound 2(r-1) h1 holds for every n.  For r = 2 the i.i.d. sign-sum structure
gives (87 + 48/sqrt(n))/sqrt(n) in Wasserstein distance and
(69 + 43/n)(h1 + h2)/n for C_b^{1,2} test functions.  Kolmogorov-distance
bounds come in three regimes (r = 2, r = 3, r >= 4); a Kolmogorov distance
never exceeds 1, so reports carry both the raw and the clamped value.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import DomainError, InfiniteNormError, check_count

__all__ = [
    "SmoothNorms",
    "SharpCoefficients",
    "BoundReport",
    "bound_compact",
    "sharp_coefficients",
    "bound_sharp",
    "bound_trivial",
    "bound_r2_special",
    "bound_kolmogorov",
    "bound_report",
    "JENSEN_FORMULA",
]

# The classical rate-(n^{-r/(r+1)}) Kolmogorov bound has a non-explicit
# constant; it is reported only as a formula string, never as a number.
JENSEN_FORMULA = "C(r) * n**(-r/(r+1))  [C(r) non-explicit]"


@dataclass(frozen=True)
class SmoothNorms:
    """sup-norms of h', h'', h'''; math.inf marks an unbounded derivative."""

    h1: float = 1.0
    h2: float = 1.0
    h3: float = 1.0

    def __post_init__(self):
        for v in (self.h1, self.h2, self.h3):
            if not (v >= 0.0):  # rejects NaN and negatives
                raise DomainError(f"derivative norms must be >= 0, got {v}")


@dataclass(frozen=True)
class SharpCoefficients:
    a_n: float
    b_n: float
    c_t: float
    beta1: float
    beta2: float
    beta3: float


def _float_count(value, least: int, name: str, power: int = 1) -> int:
    """check_count, refusing a count whose power-th power, as a bound forms it, has no float."""
    count = check_count(value, least, name)
    if count.bit_length() > 1023 // power:
        raise DomainError(f"need {name} < 2**{1023 // power} to evaluate the bounds in floating point")
    return count


def _in_range(name: str, bound: float) -> float:
    """``bound``, if it is a float; a bound past the float range is a DomainError."""
    if not math.isfinite(bound):
        raise DomainError(f"the {name} bound at these n, r and norms is past the float range")
    return bound


def _require_finite(*norms: float) -> None:
    if any(not math.isfinite(v) for v in norms):
        raise InfiniteNormError("bound requires finite derivative norms")


def bound_compact(n: int, r: int, norms: SmoothNorms) -> float:
    """Compact smooth-test-function bound, valid for all n >= 1, r >= 2."""
    n, r = check_count(n, 1, "n"), _float_count(r, 2, "r")
    _require_finite(norms.h1, norms.h2, norms.h3)
    q = r / n
    return _in_range("compact", q * (293.0 * norms.h1 + (2269.0 + 431.0 * q) * norms.h2
                                     + (3533.0 + 646.0 * q) * norms.h3))


def sharp_coefficients(n: int, r: int) -> SharpCoefficients:
    """Coefficient table of the sharper bound (defined for n >= 2)."""
    n, r = _float_count(n, 2, "n", 2), _float_count(r, 2, "r", 2)
    a_n = 3.0 + 9.0 / (5.0 * n) - 21.0 / (5.0 * n * n)
    sq = math.sqrt(a_n)
    b_n = (
        36.0 * sq
        + 11.98
        + 134.28 * math.sqrt(7.0 / 48.0 + 1.0 / (5.0 * n))
        + 18.0 * math.sqrt(5.0) / math.sqrt(n)
        + 200.0 / n
    )
    c_t = 7.0 / 48.0 + r * r / (36.0 * n * n) + 1.0 / (5.0 * n)
    tail = b_n + 31.0 * r / n
    beta1 = 42.33 + 144.112 * sq
    beta2 = 78.89 + 216.204 * sq + 8.0 * sq * tail
    beta3 = 783.15 + 4158.75 / n + 3572.39 / (n * n) + 12.0 * sq * tail
    return SharpCoefficients(a_n=a_n, b_n=b_n, c_t=c_t, beta1=beta1, beta2=beta2, beta3=beta3)


def bound_sharp(n: int, r: int, norms: SmoothNorms) -> float:
    """Sharper coefficient bound (r/n)(beta1 h1 + beta2 h2 + beta3 h3), n >= 2."""
    coeff = sharp_coefficients(n, r)
    _require_finite(norms.h1, norms.h2, norms.h3)
    return _in_range("sharp", (r / n) * (coeff.beta1 * norms.h1 + coeff.beta2 * norms.h2
                                         + coeff.beta3 * norms.h3))


def bound_trivial(r: int, h1: float) -> float:
    """Mean-value bound 2(r-1) h1, valid for every n."""
    r = _float_count(r, 2, "r")
    _require_finite(h1)
    return _in_range("trivial", 2.0 * (r - 1) * h1)


def bound_r2_special(n: int, which: str, norms: Optional[SmoothNorms] = None) -> float:
    """r = 2 specials: 'wasserstein' needs no norms, 'smooth' needs h1, h2."""
    n = _float_count(n, 1, "n")
    if which == "wasserstein":
        return (87.0 + 48.0 / math.sqrt(n)) / math.sqrt(n)
    if which == "smooth":
        if norms is None:
            raise DomainError("smooth variant needs norms")
        _require_finite(norms.h1, norms.h2)
        return _in_range("r = 2 smooth", (69.0 + 43.0 / n) * (norms.h1 + norms.h2) / n)
    raise DomainError(f"unknown variant {which!r}")


def bound_kolmogorov(n: int, r: int) -> float:
    """Raw (unclamped) Kolmogorov distance bound; three per-r regimes."""
    n, r = _float_count(n, 1, "n"), _float_count(r, 2, "r")
    if r == 2:
        return 0.9496 / math.sqrt(n)
    if r == 3:
        q = n ** 0.25
        return 29.0 / q + 67.0 / q ** 2 + 62.0 / q ** 3 + 8.0 / q ** 5 + 38.0 / q ** 6
    q = n ** 0.25
    return (
        12.0 * r ** 0.125 * (1.0 + 1.0 / r) / q
        + 41.0 / (r ** 0.25 * q ** 2)
        + 28.0 * r ** 0.375 / q ** 3
        + 3.0 * r ** 0.125 / q ** 5
        + 8.0 * r ** 0.75 / q ** 6
    )


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for a single (n, r, norms) query."""

    n: int
    r: int
    norms: SmoothNorms
    compact: Optional[float]
    sharp: Optional[float]
    trivial: Optional[float]
    kolmogorov_raw: float
    kolmogorov: float  # clamped at 1: a Kolmogorov distance never exceeds it
    wasserstein_r2: Optional[float]
    smooth_r2: Optional[float]
    selected: Optional[float]
    coefficients: Optional[SharpCoefficients]
    jensen: str = JENSEN_FORMULA

    def to_dict(self) -> dict:
        """The report as JSON-ready fields; a norm declared infinite is None (null)."""
        d = asdict(self)
        d["norms"] = {k: None if math.isinf(v) else v for k, v in d["norms"].items()}
        if self.coefficients is not None:
            for field, key in (("a_n", "A_n"), ("b_n", "B_n"), ("c_t", "C_T")):
                d["coefficients"][key] = d["coefficients"].pop(field)
        return d


def bound_report(n: int, r: int, norms: SmoothNorms = SmoothNorms()) -> BoundReport:
    """Evaluate every bound applicable at (n, r, norms).

    ``selected`` is the minimum over the simultaneously valid smooth bounds
    (compact, sharp when n >= 2, trivial, and the r = 2 special); inapplicable
    entries (n = 1 for the sharp bound, and any bound that refuses an
    infinite norm it needs) are omitted rather than raised.  A bound whose
    value leaves the float range is a DomainError, as is a count it cannot
    hold as a float.
    """
    n, r = check_count(n, 1, "n"), check_count(r, 2, "r")

    def applies(bound, *args):
        """The bound, or None where it refuses an infinite norm it needs."""
        try:
            return bound(*args)
        except InfiniteNormError:
            return None

    coefficients = sharp_coefficients(n, r) if n >= 2 else None  # first: it refuses r >= 2**511
    compact = applies(bound_compact, n, r, norms)
    sharp = applies(bound_sharp, n, r, norms) if n >= 2 else None
    trivial = applies(bound_trivial, r, norms.h1)
    kol_raw = bound_kolmogorov(n, r)
    wass = bound_r2_special(n, "wasserstein") if r == 2 else None
    smooth2 = applies(bound_r2_special, n, "smooth", norms) if r == 2 else None

    candidates = [b for b in (compact, sharp, trivial, smooth2) if b is not None]
    selected = min(candidates) if candidates else None

    return BoundReport(
        n=n,
        r=r,
        norms=norms,
        compact=compact,
        sharp=sharp,
        trivial=trivial,
        kolmogorov_raw=kol_raw,
        kolmogorov=min(1.0, kol_raw),
        wasserstein_r2=wass,
        smooth_r2=smooth2,
        selected=selected,
        coefficients=coefficients,
    )
