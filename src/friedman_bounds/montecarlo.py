"""Samplers and distance estimators under the null hypothesis.

Every draw comes from a counter-mode Philox stream, so any result is
bit-reproducible from (seed, stream) and independent of worker count: work
is split into fixed-size chunks, chunk c uses substream (stream << 20) + 1 + c,
and the reduction runs in chunk order.

A uniform row permutation of 1..r is one uniform index into r!.  For
r <= 9 it indexes a table of all r! permutations, built on first use.  For
10 <= r <= 12 no r!-entry table fits, so the index is split: with
k = r // 2, values 1..k go to a uniform k-subset A of the columns, in an
order p from the k! table, and values k+1..r go to the other columns, in an
order q from the (r-k)! table.  (A, p, q) -> permutation is a bijection onto
S_r, so the rows are exactly uniform.  For r >= 13 rows are Fisher-Yates
shuffles.  F_r depends on a rank matrix only through its column sums, so the
F_r sampler draws those sums by one of three paths, chosen from (r, n) alone:

* multinomial (r <= 9, n >= c r!): the n trials' permutation counts are
  Multinomial(n, 1/r!) and the column sums are counts @ table; r = 2 is one
  binomial draw.  c = 30 is where numpy draws each binomial by BTPE instead
  of by inversion, so the cost stops growing with n; c is 56 at r = 3 and
  38 at r = 4, where the block tables below keep the packed path cheaper
  for longer (measured per chunk);
* packed (r <= 12, and n < c r! for r <= 9): each permutation is packed into
  one 64-bit word (entries 1..r-1, minus 1, in b = 64 // (r-1) bit fields).
  For r <= 9 the words of k trials are one entry of a block table of
  (r!)^k words, k the most with (r!)^k <= 2^16 (16, 6, 3, 2 at r = 2..5,
  else 1): a uniform index names k independent uniform permutations, one
  per base-r! digit, and n mod k trials left over read one more index
  modulo (r!)^(n mod k).  For 10 <= r <= 12 a word is low[A, p] + high[A, q],
  two table words whose fields are disjoint.  The words are summed over
  blocks too short for a field to carry into the next, then unpacked; the
  last column is n r(r+1)/2 minus the others;
* shuffle (r >= 13): n shuffled rows, summed.

The paths draw the same law, not the same numbers.  Where k = 1 the packed
path draws the same indices as uniform_rows, so its column sums equal
summed uniform_rows rows.  Each chunk draws its rows in slabs of about
_SLAB_WORDS / w words (indices, counts or rows), w the number of workers
drawing chunks at once, so a call holds about _SLAB_WORDS words of draws
whatever n, r! and the thread count are; a slab continues the generator where
the last one stopped, so the draws do not depend on the slab size.  The
thread-count contract above holds on every path: with ``threads`` > 1, that
many workers (the calling thread one of them, never more than the chunks)
take chunk indices from one shared iterator, and the results are
concatenated in chunk order.

Every distance reads one law of F_r as weighted atoms, and _law is the one
place that chooses it: 'exact' reads exact_law.f_law (BudgetError past
exact_law.BUDGET_CAP enumerated terms), 'mc' draws samples, and 'auto' reads
the exact law wherever it fits its budget and draws otherwise.  distance has
one reader per metric on that view: the Kolmogorov distance takes both
one-sided gaps at every atom, the smooth gap |E h(F_r) - E h(Y)| is an fsum
over the atoms, and the Wasserstein diagnostic (r = 2) is the exact integral
of |F - CDF|.  Only a sampled law carries an error bar (DKW, CLT, or DKW
times a cutoff).  A result records its method, and its ``samples`` counts
the Monte Carlo draws, or on an exact row the sorted column-sum states the
exact engine summed over (exact_law.FLaw.states).  The estimate_* and
exact_* entries are distance with the metric and mode fixed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from . import bounds as bounds_mod
from .chisq import ChiSquareLaw, chisq_cdf_array, chisq_expectation, chisq_tail
from .errors import BudgetError, DomainError, check_count

if TYPE_CHECKING:  # annotations only, so a Kolmogorov or Wasserstein call loads no test functions
    from .testfunctions import TestFunction

__all__ = [
    "RngContract",
    "DistanceEstimate",
    "uniform_rows",
    "distance",
    "estimate_kolmogorov",
    "exact_kolmogorov",
    "exact_smooth_gap",
    "estimate_smooth_gap",
    "estimate_wasserstein",
    "rate_experiment",
]

_CHUNK = 1 << 14
_DKW_CONFIDENCE = 0.99
_BISECTIONS = 60  # leave t within 2^-61 of a step's length of the crossing
_TABLE_MAX_R = 9  # 9! x 9 int16 entries are 6.5 MB, the packed table's 9! words
                  # 2.9 MB; 10! x 10 would be 73 MB
_PACKED_MAX_R = 12  # the split tables hold 665,280 words each at r = 12 (5.3 MB);
                    # at r = 13 the high one would hold 8.6M words (69 MB)
# trials per packed index, k: the most with (r!)^k <= 2^16 (a 512 KB table), 1 for r >= 6
_BLOCK_TRIALS = {2: 16, 3: 6, 4: 3, 5: 2}
_SLAB_WORDS = 1 << 22  # a call's chunks draw their rows in slabs of about this many words
_MULTINOMIAL_FACTOR = {3: 56, 4: 38}  # multinomial from n = c r! on, c = 30 at other r <= 9


@dataclass(frozen=True)
class RngContract:
    """Counter-mode RNG handle: (seed, stream), each in [0, 2**64), fixes all draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        seed, stream = check_count(self.seed, 0, "seed"), check_count(self.stream, 0, "stream")
        if max(seed, stream) >= 2 ** 64:
            raise DomainError(f"seed and stream must lie in [0, 2**64), got {seed} and {stream}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngContract":
        """Chunk substream, disjoint from every other (stream, index) pair.

        Keys stay distinct only while (stream << 20) + 1 + index fits in 64
        bits, so the index must lie in [0, 2**20) and the stream in [0, 2**44).
        """
        key = (self.stream << 20) + 1 + index
        if not (0 <= index < 2 ** 20 and key < 2 ** 64):
            raise DomainError(f"substream {index} of stream {self.stream} does not fit in "
                              "64 bits: need 0 <= index < 2**20 and 0 <= stream < 2**44")
        return RngContract(seed=self.seed, stream=key)


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    half_width: float
    samples: int  # Monte Carlo draws, or the exact engine's states on an exact row
    method: str  # "exact-enumeration" or "monte-carlo"

    def within(self, bound: float) -> bool:
        """The gate: the value is at most the bound plus the error bar."""
        return bool(self.value <= bound + self.half_width)


@lru_cache(maxsize=None)
def _permutation_table(r: int) -> np.ndarray:
    """All r! permutations of 1..r as rows in lexicographic order, read-only.

    Rows with first entry f are f followed by the (r-1)-table with its
    entries >= f shifted up by one, which keeps the order lexicographic.
    """
    table = np.ones((1, 1), dtype=np.int16)
    for m in range(2, r + 1):
        first = np.repeat(np.arange(1, m + 1, dtype=np.int16), table.shape[0])[:, None]
        rest = np.tile(table, (m, 1))
        rest += rest >= first
        table = np.concatenate([first, rest], axis=1)
    table.setflags(write=False)
    return table


def _field_weights(r: int) -> np.ndarray:
    """2**(k*b) for column k < r-1 with b = 64 // (r-1), and 0 for the last."""
    bits = 64 // (r - 1)
    return np.append(np.int64(1) << np.arange(0, bits * (r - 1), bits, dtype=np.int64), 0)


@lru_cache(maxsize=None)
def _split_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high word tables for 10 <= r <= 12, read-only.

    With k = r // 2 and A the a-th k-subset of the columns (sorted, in
    combinations order), low[a k! + p] packs values 1..k in the order of row p
    of the k! table into the columns of A, and high[a (r-k)! + q] packs values
    k+1..r in the order of row q of the (r-k)! table into the other columns.
    """
    k = r // 2
    subsets = np.array(list(combinations(range(r), k)))
    rest = np.array([[c for c in range(r) if c not in s] for s in subsets.tolist()])
    weights = _field_weights(r)
    low = (_permutation_table(k).astype(np.int64) - 1) @ weights[subsets].T
    high = (_permutation_table(r - k).astype(np.int64) + (k - 1)) @ weights[rest].T
    low, high = low.T.ravel(), high.T.ravel()
    low.setflags(write=False)
    high.setflags(write=False)
    return low, high


def _split_words(idx: np.ndarray, r: int) -> np.ndarray:
    """Replace each index j in [0, r!) by its word, in place (10 <= r <= 12).

    j = (a k! + p) (r-k)! + q names the triple (A, p, q), and its word is
    low[a k! + p] + high[a (r-k)! + q].
    """
    k = r // 2
    low, high = _split_tables(r)
    k_perms, rest_perms = math.factorial(k), math.factorial(r - k)
    low_idx = idx // rest_perms
    idx -= low_idx * rest_perms
    idx += low_idx // k_perms * rest_perms
    np.take(high, idx, out=idx, mode="clip")  # mode="raise" would buffer out
    np.take(low, low_idx, out=low_idx, mode="clip")
    idx += low_idx
    return idx


@lru_cache(maxsize=None)
def _block_table(r: int, k: int) -> np.ndarray:
    """Packed words of k trials (r <= 9), read-only.

    The one-trial words are the rows of _permutation_table(r): entry c+1,
    minus 1, at bit c b with b = 64 // (r-1), the last entry left out.  Entry
    i (r!)^(k-1) + j of the k-trial table is one-trial word i plus entry j of
    the (k-1)-trial table, so a uniform index names k independent uniform
    permutations, one per base-r! digit.
    """
    if k == 1:
        table = (_permutation_table(r).astype(np.int64) - 1) @ _field_weights(r)
    else:
        table = (_block_table(r, 1)[:, None] + _block_table(r, k - 1)).ravel()
    table.setflags(write=False)
    return table


def _packed_words(gen: np.random.Generator, rows: int, n: int, r: int) -> np.ndarray:
    """Packed words of n uniform trials per row (r <= 12), one uniform index
    into (r!)^k per k = _BLOCK_TRIALS.get(r, 1) trials.

    The n mod k trials left over take one more index, read modulo (r!)^(n mod k),
    which is uniform because that power divides (r!)^k.  At k = 1 these are
    the indices of uniform_rows.
    """
    k = _BLOCK_TRIALS.get(r, 1)
    perms = math.factorial(r)
    full, rem = divmod(n, k)
    idx = gen.integers(perms ** k, size=(rows, full + (rem > 0)))
    if r > _TABLE_MAX_R:
        return _split_words(idx, r)
    last = _block_table(r, rem)[idx[:, -1] % perms ** rem] if rem else None
    np.take(_block_table(r, k), idx, out=idx, mode="clip")  # mode="raise" would buffer out
    if rem:
        idx[:, -1] = last
    return idx


def uniform_rows(count: int, r: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform permutations of 1..r, one per row."""
    if r <= _TABLE_MAX_R:
        return _permutation_table(r)[gen.integers(math.factorial(r), size=count)]
    if r <= _PACKED_MAX_R:
        return _column_sums(gen, count, 1, r)  # a row is the column sums of one trial
    tile = np.tile(np.arange(1, r + 1), (count, 1))
    return gen.permuted(tile, axis=1, out=tile)


def _sampler_path(r: int, n: int) -> str:
    """The column-sum path for (r, n); see the module docstring."""
    if r > _PACKED_MAX_R:
        return "shuffle"
    if r <= _TABLE_MAX_R and n >= _MULTINOMIAL_FACTOR.get(r, 30) * math.factorial(r):
        return "multinomial"
    return "packed"


def _slab_sums(gen: np.random.Generator, rows: int, n: int, r: int, path: str) -> np.ndarray:
    """Column sums of ``rows`` independent uniform n x r rank matrices by ``path``."""
    if path == "shuffle":
        return uniform_rows(rows * n, r, gen).reshape(rows, n, r).sum(axis=1)
    if path == "multinomial":
        table = _permutation_table(r)
        perms = table.shape[0]
        counts = gen.multinomial(n, np.full(perms, 1.0 / perms), size=rows)
        return counts @ table
    bits = 64 // (r - 1)
    # a field holds at most 2**bits - 1, and each word adds at most k (r - 1) to it
    block = ((1 << bits) - 1) // (r - 1) // _BLOCK_TRIALS.get(r, 1)
    words = _packed_words(gen, rows, n, r).view(np.uint64)
    words = np.add.reduceat(words, np.arange(0, words.shape[1], block), axis=1)
    shifts = np.arange(0, bits * (r - 1), bits, dtype=np.uint64)
    fields = (words[..., None] >> shifts) & np.uint64((1 << bits) - 1)
    head = fields.sum(axis=1, dtype=np.int64) + n
    last = n * r * (r + 1) // 2 - head.sum(axis=1, keepdims=True)
    return np.concatenate([head, last], axis=1)


def _column_sums(gen: np.random.Generator, size: int, n: int, r: int,
                 workers: int = 1) -> np.ndarray:
    """Column sums of ``size`` independent uniform n x r rank matrices.

    The rows are drawn in slabs that hold at most about _SLAB_WORDS / workers
    words at once; a slab's draws continue the generator where the last one
    stopped, so the sums do not depend on the slab size.
    """
    path = _sampler_path(r, n)
    width = {"shuffle": n * r, "multinomial": math.factorial(r),
             "packed": -(-n // _BLOCK_TRIALS.get(r, 1))}[path]
    step = max(1, _SLAB_WORDS // workers // width)
    return np.concatenate([_slab_sums(gen, min(step, size - start), n, r, path)
                           for start in range(0, size, step)])


def _sample_statistics(n: int, r: int, samples: int, rng: RngContract,
                       threads: int = 1) -> np.ndarray:
    """F_r samples in fixed chunk order, reproducible for any thread count."""
    n, r = check_count(n, 1, "n"), check_count(r, 2, "r")
    samples = check_count(samples, 1000, "samples")
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    if n_chunks > 1 << 20:  # one substream per chunk; refused before any chunk is drawn
        raise DomainError(f"{samples} samples need {n_chunks} chunks, over the 2**20 of a stream")
    sizes = [min(_CHUNK, samples - i * _CHUNK) for i in range(n_chunks)]
    scale = 12.0 / (r * (r + 1) * n)
    workers = min(threads, n_chunks)

    def one_chunk(index: int) -> np.ndarray:
        colsum = _column_sums(rng.substream(index).generator(), sizes[index], n, r, workers)
        centered = colsum - n * (r + 1) / 2.0
        return scale * (centered * centered).sum(axis=1)

    parts: list = [None] * n_chunks
    errors: dict[int, BaseException] = {}
    chunks = iter(range(n_chunks))  # shared: each index goes to exactly one worker

    def work() -> None:
        # indices leave the iterator in order, so once a chunk has failed every
        # lower chunk has started, and the lowest failure is the same at any thread count
        for index in chunks:
            if errors:
                return
            try:
                parts[index] = one_chunk(index)
            except BaseException as exc:
                errors[index] = exc

    # the calling thread is a worker too, so one worker runs every chunk inline
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return np.concatenate(parts)


def _dkw_half_width(samples: int) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - _DKW_CONFIDENCE)) / (2.0 * samples))


def _law(n: int, r: int, mode: str, samples: int | None, rng: RngContract | None,
         threads: int = 1):
    """The law of F_r as weighted atoms: (atoms, masses, levels, count, method).

    The atoms are sorted, masses are their probabilities and levels the law's
    CDF at each atom.  mode 'exact' reads exact_law.f_law (BudgetError beyond
    its budget): atoms and masses each correctly rounded from the exact value,
    levels their running sum, count the states the engine summed over.  'mc'
    draws ``samples`` values: atoms and counts from np.unique, masses and
    levels the counts and their running sum over ``samples``, count the
    samples.  'auto' reads the exact law and falls back to drawing on
    BudgetError.
    """
    if mode not in ("exact", "mc", "auto"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode != "mc":
        from .exact_law import f_law, law_floats

        try:
            law = f_law(n, r)
        except BudgetError:
            if mode == "exact":
                raise
        else:
            atoms, masses = law_floats(law, n, r)
            return atoms, masses, np.cumsum(masses), law.states, "exact-enumeration"
    draws = _sample_statistics(n, r, samples, rng, threads=threads)
    atoms, counts = np.unique(draws, return_counts=True)
    size = draws.size  # the samples, as a Python int
    return atoms, counts / size, np.cumsum(counts) / size, size, "monte-carlo"


def _l1_distance(atoms: np.ndarray, levels: np.ndarray, p: int) -> float:
    """Exact integral over [0, inf) of |F - CDF| for chi-square(p), F the step
    function equal to ``levels`` from each of the sorted ``atoms`` on.

    With H(z) = E[(Y - z)^+] = p Q_{p+2}(z) - z Q_p(z), int_0^z F_p = z - p + H(z).
    The level c on a step [a, b) meets F_p at the point t where F_p(t) = c,
    or at the end of the step nearer that point, and the step contributes
    H(a) + H(b) - 2 H(t) + (1 - c)(a + b - 2t).  That sum is stationary in t
    at the crossing, so t is bisected _BISECTIONS times inside [a, b].  Past
    the largest atom u, F is taken as 1 and the tail contributes H(u).
    """
    law, law2 = ChiSquareLaw(p), ChiSquareLaw(p + 2)

    def excess(z):
        return p * chisq_tail(law2, z) - z * chisq_tail(law, z)

    a = np.concatenate(([0.0], atoms[:-1]))
    b = atoms
    c = np.concatenate(([0.0], levels[:-1]))
    at_a = chisq_cdf_array(law, a)
    cross = (at_a < c) & (c < chisq_cdf_array(law, b))
    lo, hi = a[cross], b[cross]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = chisq_cdf_array(law, mid) < c[cross]
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t = np.where(c <= at_a, a, b)
    t[cross] = 0.5 * (lo + hi)
    steps = excess(a) + excess(b) - 2.0 * excess(t) + (1.0 - c) * (a + b - 2.0 * t)
    return float(math.fsum(steps) + excess(atoms[-1]))


def distance(metric: str, n: int, r: int, mode: str = "mc", samples: int | None = None,
             rng: RngContract | None = None, threads: int = 1,
             h: TestFunction | None = None) -> DistanceEstimate:
    """One distance between L(F_r) and chi-square(r-1), read off the law that
    _law(n, r, mode, samples, rng, threads) chooses.

    'kolmogorov' is sup |F - CDF| on both sides of every atom; 'smooth' is
    |E[h(F_r)] - E[h(Y_{r-1})]| for the test function ``h``, given exactly
    for this metric; 'wasserstein' (r = 2 only) is _l1_distance.  Each is
    refused before any draw.  A sampled law carries a 99% error bar: the DKW
    bar, the CLT bar 2.576 sd / sqrt(samples), or the DKW bar times a cutoff
    past which both CDFs are 1 to 1e-12; an exact law carries none.
    """
    if metric not in ("kolmogorov", "smooth", "wasserstein"):
        raise DomainError(f"unknown metric {metric!r}")
    if (h is None) == (metric == "smooth"):
        raise DomainError(f"h goes with the smooth metric and no other, got {metric!r}, h={h!r}")
    if metric == "wasserstein" and r != 2:
        raise DomainError("the Wasserstein diagnostic is available for r = 2 only")
    atoms, masses, levels, count, method = _law(n, r, mode, samples, rng, threads)
    sampled = method == "monte-carlo"
    if metric == "kolmogorov":
        cdf = chisq_cdf_array(ChiSquareLaw(r - 1), atoms)
        value = float(np.max(np.maximum(levels - cdf, cdf - (levels - masses))))
        half = _dkw_half_width(count) if sampled else 0.0
    elif metric == "smooth":
        hv = h.fn(atoms)
        mean = math.fsum(masses * hv)
        closed = h.chisq_closed_form
        side = closed(r - 1) if closed else chisq_expectation(ChiSquareLaw(r - 1), h)
        value = abs(mean - side)
        variance = math.fsum(masses * (hv - mean) ** 2)  # divided by count, not count - 1
        half = 2.576 * math.sqrt(variance / (count - 1)) if sampled else 0.0
    else:
        value = _l1_distance(atoms, levels, 1)
        cutoff = max(float(atoms[-1]), 1.0 + 40.0 * math.sqrt(2.0)) + 1.0
        half = _dkw_half_width(count) * cutoff if sampled else 0.0
    return DistanceEstimate(value, half, count, method)


def estimate_kolmogorov(n: int, r: int, samples: int, rng: RngContract,
                        threads: int = 1) -> DistanceEstimate:
    """Sampled Kolmogorov distance with its DKW bar."""
    return distance("kolmogorov", n, r, "mc", samples, rng, threads)


def exact_kolmogorov(n: int, r: int) -> DistanceEstimate:
    """Exact Kolmogorov distance from the exact law (BudgetError past its budget)."""
    return distance("kolmogorov", n, r, "exact")


def exact_smooth_gap(n: int, r: int, h: TestFunction) -> float:
    """|E[h(F_r)] - E[h(Y_{r-1})]| with the first term an exact atom average."""
    return distance("smooth", n, r, "exact", h=h).value


def estimate_smooth_gap(n: int, r: int, h: TestFunction, samples: int,
                        rng: RngContract, threads: int = 1) -> DistanceEstimate:
    """Sampled smooth gap with its 99% CLT bar."""
    return distance("smooth", n, r, "mc", samples, rng, threads, h)


def estimate_wasserstein(n: int, samples: int, rng: RngContract,
                         threads: int = 1) -> DistanceEstimate:
    """Sampled Wasserstein distance between L(F_2) and chi-square(1)."""
    return distance("wasserstein", n, 2, "mc", samples, rng, threads)


def rate_experiment(r: int, n_list: list[int], h: TestFunction, mode: str = "auto",
                    samples: int = 1_000_000, rng: RngContract = RngContract(seed=0),
                    threads: int = 1) -> list[dict]:
    """Gap-versus-bound table across n, one smooth distance per n (modes as in _law;
    the row for n samples substream n of ``rng``, so every n is below 2**20,
    which is checked before any row is computed).

    Each row records the gap, n*gap, the applicable smooth bounds, and
    whether the gap stays below the selected bound (None when no smooth
    bound applies to this h).
    """
    n_list = [check_count(n, 1, "n") for n in n_list]
    for n in n_list:  # before any row is computed
        if n >= 2 ** 20:
            raise DomainError(f"the row for n draws from substream n, so n must be "
                              f"below 2**20, got n={n}")
    norms = bounds_mod.SmoothNorms(h1=h.norm(1), h2=h.norm(2), h3=h.norm(3))
    rows = []
    for n in n_list:
        est = distance("smooth", n, r, mode, samples, rng.substream(n), threads, h)
        report = bounds_mod.bound_report(n, r, norms)
        ok = None if report.selected is None else est.within(report.selected)
        rows.append({
            "n": n,
            "r": r,
            "h": h.label,
            "gap": est.value,
            "n_times_gap": n * est.value,
            "half_width": est.half_width,
            "method": est.method,
            "samples": est.samples,
            "bound_compact": report.compact,
            "bound_sharp": report.sharp,
            "bound_trivial": report.trivial,
            "bound_selected": report.selected,
            "gap_below_bound": ok,
        })
    return rows
