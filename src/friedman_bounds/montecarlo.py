"""Samplers and distance estimators under the null hypothesis.

Every draw comes from a counter-mode Philox stream, so any result is
bit-reproducible from (seed, stream) and independent of worker count: work
is split into fixed-size chunks, chunk c uses substream (stream << 20) + 1 + c,
and the reduction runs in chunk order.  The (seed, stream) handle is
RngContract, defined in ``exact_law`` (which the identities suite's draws
read too) and re-exported here.

A uniform row permutation of 1..r is one uniform index into r!.  For
r <= 9 it indexes a table of all r! permutations, built on first use:
exact_law._permutation_table, the one table of one trial's rows, which the
exact side reads doubled and centered.  For
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
  for longer (measured per chunk; at r = 6 the two-trial table below wins
  up to about n = 21,700 and loses from 22,000 on, so c stays 30 there);
* packed (r <= 12, and n < c r! for r <= 9): each permutation is packed into
  one 64-bit word (entries 1..r-1, minus 1, in b = 64 // (r-1) bit fields).
  For r <= 9 the words of k trials are one entry of a block table of
  (r!)^k words, k the most with (r!)^k <= 2^16 (16, 6, 3, 2 at r = 2..5),
  except k = 2 at r = 6, and 1 from r = 7 on: a gather into the 4.1 MB
  two-trial table at r = 6 costs less than a second bounded draw, while a
  larger k at r <= 5 costs more (measured per draw).  A uniform index
  names k independent uniform permutations, one per base-r! digit, and
  n mod k trials left over read one more index modulo (r!)^(n mod k).  For
  10 <= r <= 12 a word is low[A, p] + high[A, q], two table words whose
  fields are disjoint.  The words are summed over
  blocks too short for a field to carry into the next, then unpacked; the
  last column is n r(r+1)/2 minus the others;
* shuffle (r >= 13): n shuffled rows, summed.

Every path sums in int64, so a sampled (r, n) whose rank total n r(r+1)/2,
which bounds every column sum, every count and the packed path's last
column, is past int64 is a DomainError before any draw.  So is a sample
count past the 2**20 chunks of one stream, and then one whose float64
|Q|^2 keys, which a sampled law holds and sorts, pass _SAMPLE_BYTES (2**26
samples).  A sample's key is the sum of its squared doubled column sums
Q = 2 colsum - n(r+1), formed in float64: exact while n^2 r(r^2-1)/3, the
largest |Q|^2, is below 2**53, and rounded past it, so no admitted cell is
refused.

The paths draw the same law, not the same numbers.  Where k = 1 (7 <= r <=
12) the packed path draws the same indices as uniform_rows, so its column
sums equal summed uniform_rows rows.  Each chunk draws its rows in slabs of
about _SLAB_WORDS / w words (indices, counts or rows), w the number of workers
drawing chunks at once, and a sample wider than that in pieces of its
trials, so a call holds about _SLAB_WORDS words of draws whatever n, r! and
the thread count are; a slab or piece continues the generator where the
last one stopped, so the draws do not depend on the slab size.  The
thread-count contract above holds on every path: with ``threads`` > 1, that
many workers (the calling thread one of them, never more than the chunks,
and fewer where the OS refuses a thread: no helper is started after the
first refusal) take chunk indices from one shared iterator, and the results
are concatenated in chunk order.

Every distance reads one law of F_r as weighted atoms, and _law is the one
place that chooses it: 'exact' reads exact_law.f_law (BudgetError past
exact_law.BUDGET_CAP enumerated terms, raised before a source allocates
anything; at r = 2 one binomial row, exact to n = 3570, at n = 1 one row
to r = 200,000, and at n = 2 the subset DP to r = 14), 'mc' tallies the
sampled keys into the same record, exact_law.FLaw, and 'auto' reads the
exact law wherever it fits its budget and draws otherwise.  Either record
is read through exact_law.law_floats, so a sampled atom is the exact atom
of its key, bit for bit.  distance has one reader per metric on that view: the
Kolmogorov distance takes both one-sided gaps at every atom, the smooth gap
|E h(F_r) - E h(Y)| is an fsum over the atoms, and the Wasserstein
diagnostic (r = 2) is the exact integral of |F - CDF|.  Only a sampled law
carries an error bar (DKW, CLT, or DKW times a cutoff).  A result records
its method, and its ``samples`` counts the Monte Carlo draws, or on an
exact row the states the exact law's source summed over
(exact_law.FLaw.states).  The estimate_* and exact_kolmogorov entries are
distance with the metric and mode fixed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from . import bounds as bounds_mod
from .chisq import ChiSquareLaw, chisq_cdf_array, chisq_expectation, chisq_tail
from .errors import BudgetError, DomainError, check_count
from .exact_law import FLaw, RngContract, _permutation_table, f_law, law_floats

if TYPE_CHECKING:  # annotations only, so a Kolmogorov or Wasserstein call loads no test functions
    from .testfunctions import TestFunction

__all__ = [
    "RngContract",
    "DistanceEstimate",
    "uniform_rows",
    "distance",
    "estimate_kolmogorov",
    "exact_kolmogorov",
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
# trials per packed index, k: the most with (r!)^k <= 2^16 (a 512 KB table) for r <= 5,
# 2 at r = 6 (a 4.1 MB table of 720^2 words, still cheaper than a second draw), else 1
_BLOCK_TRIALS = {2: 16, 3: 6, 4: 3, 5: 2, 6: 2}
_SLAB_WORDS = 1 << 22  # a call's chunks draw their rows in slabs of about this many words
_SAMPLE_BYTES = 1 << 29  # a sampled law holds its float64 |Q|^2 keys: 2**26 samples, 512 MiB
_MULTINOMIAL_FACTOR = {3: 56, 4: 38}  # multinomial from n = c r! on, c = 30 at other r <= 9


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    half_width: float
    samples: int  # Monte Carlo draws, or the exact law's states on an exact row
    method: str  # "exact-enumeration" or "monte-carlo"

    def within(self, bound: float) -> bool:
        """The gate: the value is at most the bound plus the error bar."""
        return bool(self.value <= bound + self.half_width)


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
    count, r = check_count(count, 1, "count"), check_count(r, 2, "r")
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
    words at once; a sample wider than a slab draws its trials in slab-sized
    pieces (whole blocks of packed trials) and adds their column sums, and
    only a multinomial sample, at most 9! counts, is drawn whole.  Every
    slab or piece continues the generator where the last one stopped, so the
    sums do not depend on the slab size.  Only the chosen path's sample
    width is computed, so r! is formed on the multinomial path alone.
    """
    path, block = _sampler_path(r, n), _BLOCK_TRIALS.get(r, 1)
    width = (n * r if path == "shuffle" else math.factorial(r) if path == "multinomial"
             else -(-n // block))
    slab = max(1, _SLAB_WORDS // workers)
    step = max(1, slab // width)  # samples per slab
    piece = (n if width <= slab or path == "multinomial"  # trials per piece of a sample
             else slab * block if path == "packed" else max(1, slab // r))
    return np.concatenate([reduce(np.add, (_slab_sums(gen, min(step, size - start),
                                                      min(piece, n - t), r, path)
                                           for t in range(0, n, piece)))
                           for start in range(0, size, step)])


def _sample_statistics(n: int, r: int, samples: int, rng: RngContract,
                       threads: int = 1) -> np.ndarray:
    """The |Q|^2 keys of F_r samples as float64 (exact while n^2 r(r^2-1)/3 <
    2**53), in fixed chunk order, reproducible for any thread count."""
    n, r = check_count(n, 1, "n"), check_count(r, 2, "r")
    samples = check_count(samples, 1000, "samples")
    if n * r * (r + 1) // 2 > np.iinfo(np.int64).max:  # bounds every column sum and count
        raise DomainError("the rank total n r(r+1)/2 must lie below 2**63, the int64 range "
                          "that the column sums are drawn in")
    if not isinstance(rng, RngContract):
        raise DomainError(f"a sampled law needs an RngContract, got rng={rng!r}")
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    if n_chunks > 1 << 20:  # one substream per chunk; refused before any chunk is drawn
        raise DomainError(f"{samples} samples need {n_chunks} chunks, over the 2**20 of a stream")
    if 8 * samples > _SAMPLE_BYTES:
        raise DomainError(f"{samples} samples hold {8 * samples} bytes of float64 |Q|^2 keys, "
                          f"over the cap of {_SAMPLE_BYTES} (2**26 samples)")
    sizes = [min(_CHUNK, samples - i * _CHUNK) for i in range(n_chunks)]
    workers = min(threads, n_chunks)

    def one_chunk(index: int) -> np.ndarray:
        colsum = _column_sums(rng.substream(index).generator(), sizes[index], n, r, workers)
        # |Q|^2 with Q in float64, as 2 colsum may pass int64 at r = 2
        return np.square(2.0 * colsum - n * (r + 1)).sum(axis=1)

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

    # the calling thread is a worker too, so one worker runs every chunk inline;
    # a helper the OS refuses is not retried, the running workers take its chunks
    helpers: list[threading.Thread] = []
    for _ in range(workers - 1):
        helper = threading.Thread(target=work)
        try:
            helper.start()
        except RuntimeError:  # can't start new thread
            break
        helpers.append(helper)
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
    CDF at each atom, all read through exact_law.law_floats.  mode 'exact'
    reads exact_law.f_law (BudgetError once every source that applies is
    past its budget: at r = 2 past n = 3570, where the law is one binomial
    row, at n = 1 past r = 200,000, at n = 2 past r = 14, where the subset
    DP stops, and elsewhere past the convolution's terms), and count is the
    law's states (FLaw.states).  'mc' draws ``samples`` keys and tallies
    them by np.unique into the same record, FLaw(keys, counts, samples,
    samples), so count is the samples.
    'auto' reads the exact law and falls back to drawing on BudgetError, so
    at r = 2 it is exact to n = 3570 and draws from n = 3571 on.
    """
    if mode not in ("exact", "mc", "auto"):
        raise DomainError(f"unknown mode {mode!r}")
    try:
        law = None if mode == "mc" else f_law(n, r)
    except BudgetError:
        if mode == "exact":
            raise
        law = None
    method = "monte-carlo" if law is None else "exact-enumeration"
    if law is None:  # a tally, whose total and states are its samples (a Python int)
        draws = _sample_statistics(n, r, samples, rng, threads=threads)
        law = FLaw(*np.unique(draws, return_counts=True), draws.size, draws.size)
    return (*law_floats(law, n, r), law.states, method)


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
    ``threads`` is a count of at least 1, checked before any work.
    """
    threads = check_count(threads, 1, "threads")
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
        value = float(np.max(np.maximum(levels - cdf, cdf - np.append(0.0, levels[:-1]))))
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
    in a mode that can draw, the row for n samples substream n of ``rng``, so
    every n is below 2**20, which is checked before any row is computed;
    'exact' draws nothing, and its law's own budget refuses a large n).

    Rows are computed once per distinct n, from the largest down, and
    returned in the order of ``n_list``.  At fixed r each exact source's
    price grows with n (the engine charges r terms at n = 1 and its states
    grow with every trial after, the binomial row charges (n+1) ceil(n/64),
    and the subset DP serves only n = 2, at r 2^(r-1) terms, which fit only
    where n = 1 fits too), so an n past the budget is refused before any
    other row is built.  No row depends on another: each reads its own
    substream.

    Each row records the gap, n*gap, the applicable smooth bounds, and
    whether the gap stays below the selected bound (None when no smooth
    bound applies to this h).
    """
    n_list = [check_count(n, 1, "n") for n in n_list]
    draws = mode != "exact"
    if draws and max(n_list) >= 2 ** 20:  # before any row is computed
        raise DomainError(f"the row for n draws from substream n, so n must be "
                          f"below 2**20, got n={max(n_list)}")
    norms = bounds_mod.SmoothNorms(h1=h.norm(1), h2=h.norm(2), h3=h.norm(3))
    rows = {}
    for n in sorted(set(n_list), reverse=True):
        est = distance("smooth", n, r, mode, samples, rng.substream(n) if draws else None,
                       threads, h)
        report = bounds_mod.bound_report(n, r, norms)
        ok = None if report.selected is None else est.within(report.selected)
        rows[n] = {
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
        }
    return [rows[n] for n in n_list]
