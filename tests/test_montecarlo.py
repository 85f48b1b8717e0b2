"""Samplers, distance estimators, and the smoothing test function."""

import math
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, permutations

import numpy as np
import pytest

from friedman_bounds import (BudgetError, ChiSquareLaw, DomainError, RankMatrix,
                             bound_kolmogorov, chisq_cdf, chisq_expectation, exact_law,
                             montecarlo)
from friedman_bounds.chisq import chisq_cdf_array
from friedman_bounds.exact import exact_f_distribution
from friedman_bounds.exact_law import _permutation_table
from friedman_bounds.montecarlo import (RngContract, _column_sums, _l1_distance, _law,
                                        _sample_statistics, _sampler_path,
                                        _split_words, distance, estimate_kolmogorov,
                                        estimate_smooth_gap, estimate_wasserstein,
                                        exact_kolmogorov, rate_experiment,
                                        uniform_rows)
from friedman_bounds.testfunctions import (constant, cosine, identity, power, sine,
                                           smoothing_indicator)


def chisq_upper_quantile(p, alpha):
    """Test-side quantile via bisection on the package CDF."""
    law = ChiSquareLaw(p)
    lo, hi = 0.0, 10.0
    while 1.0 - chisq_cdf(law, hi) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 1.0 - chisq_cdf(law, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def test_sampler_shapes_and_determinism():
    gen = RngContract(seed=9).generator()
    m = RankMatrix(uniform_rows(5, 4, gen))
    assert m.n == 5 and m.r == 4
    m1 = RankMatrix(uniform_rows(3, 3, RngContract(seed=1, stream=2).generator()))
    m2 = RankMatrix(uniform_rows(3, 3, RngContract(seed=1, stream=2).generator()))
    assert np.array_equal(m1.ranks, m2.ranks)
    m3 = RankMatrix(uniform_rows(3, 3, RngContract(seed=1, stream=3).generator()))
    assert not np.array_equal(m1.ranks, m3.ranks)


def test_sampler_r2_frequencies():
    gen = RngContract(seed=31).generator()
    draws = 100_000
    rows = uniform_rows(draws, 2, gen)
    frac = np.mean(rows[:, 0] == 1)
    sigma = 0.5 / math.sqrt(draws)
    assert abs(frac - 0.5) <= 4 * sigma


def test_sampler_uniformity_gof():
    # frequencies of the 6 permutations at r=3 pass a GOF test at alpha=1e-6
    draws = 1_000_000
    gen = RngContract(seed=77).generator()
    rows = uniform_rows(draws, 3, gen)
    codes = rows[:, 0] * 9 + rows[:, 1] * 3 + rows[:, 2]
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 6
    expected = draws / 6.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat <= chisq_upper_quantile(5, 1e-6)


# F_r sampler cells small enough for the exact law: the packed cells have
# r! <= n r (3, 6) and r! > n r (4, 3); (3, 7), (3, 47), (4, 10), (5, 3) and (6, 3)
# end in a part-block of 1, 5, 1, 1 and 1 trials; (2, 64) is past r = 2's
# multinomial crossover
EXACT_PATH_CELLS = [("multinomial", 2, 64, 41), ("packed", 3, 6, 42), ("packed", 4, 3, 43),
                    ("packed", 3, 7, 50), ("packed", 3, 47, 51), ("packed", 4, 10, 52),
                    ("packed", 5, 3, 53), ("packed", 6, 3, 54)]

# packed cells for r = 2..12: n on both sides of each carry-free block edge (818, 170,
# 73, 31, 14, 6 and 2 trials at r = 6..12), n with and without a part-block for r <= 6,
# the last packed n before the multinomial crossover at r = 2, 3 and 4, and one-trial
# words over several blocks at r = 7
PACKED_CELLS = [(2, 1), (2, 15), (2, 59), (3, 7), (3, 47), (3, 335), (4, 10), (4, 911),
                (5, 199), (5, 200), (6, 100), (6, 101), (6, 818), (6, 819), (6, 820),
                (7, 100), (7, 170), (7, 171), (7, 819), (7, 820), (8, 50),
                (8, 73), (8, 74), (9, 31), (9, 32), (9, 40), (9, 63), (10, 14), (10, 15),
                (11, 6), (11, 7), (12, 2), (12, 3)]


def block_trials(r):
    """Trials per index: the most k with (r!)**k <= 2**16, or 1; 2 at r = 6."""
    if r == 6:
        return 2
    return max([1] + [k for k in range(2, 17) if math.factorial(r) ** k <= 2 ** 16])


def decoded_rows(idx, r):
    """The permutation rows that uniform indices into r! name: a row of the r!
    table for r <= 9, and for 10 <= r <= 12 the (subset, low order, high
    order) triple j = (a h! + p) (r-h)! + q with h = r // 2."""
    if r <= 9:
        return _permutation_table(r)[idx].astype(np.int64)
    h = r // 2
    subsets = np.array(list(combinations(range(r), h)))
    rest = np.array([[c for c in range(r) if c not in s] for s in subsets.tolist()])
    low, q = np.divmod(idx, math.factorial(r - h))
    a, p = np.divmod(low, math.factorial(h))
    rows = np.empty((idx.size, r), dtype=np.int64)
    np.put_along_axis(rows, subsets[a], _permutation_table(h)[p], axis=1)
    np.put_along_axis(rows, rest[a], _permutation_table(r - h)[q] + h, axis=1)
    return rows


@pytest.mark.parametrize("r", range(2, 10))
def test_permutation_table_is_itertools_order(r):
    want = np.array(list(permutations(range(1, r + 1))), dtype=np.int16)
    got = _permutation_table(r)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_split_words_are_a_bijection_at_r10():
    # the 10! indices name 10! (subset, low order, high order) triples, and
    # their words are distinct, so each names a different permutation
    r = 10
    words = _split_words(np.arange(math.factorial(r), dtype=np.int64), r)
    assert words.size == math.factorial(r)
    assert (np.diff(np.sort(words)) > 0).all()
    # every word is a packed permutation: fields 0..r-2, minus 1, all distinct
    bits = 64 // (r - 1)
    fields = (words[::97, None] >> np.arange(0, bits * (r - 1), bits)) & ((1 << bits) - 1)
    assert fields.max() <= r - 1
    assert (np.diff(np.sort(fields, axis=1), axis=1) > 0).all()


@pytest.mark.parametrize("r, seed", [(11, 48), (12, 49)])
def test_split_rows_are_uniform(r, seed):
    draws = 200_000
    rows = uniform_rows(draws, r, RngContract(seed=seed).generator())
    assert (np.sort(rows, axis=1) == np.arange(1, r + 1)).all()
    counts = np.stack([np.bincount(rows[:, c], minlength=r + 1)[1:] for c in range(r)])
    expected = draws / r
    # (column, value) indicators of a uniform permutation have covariance
    # (I - J/r) x (I - J/r) / (r - 1), so this Pearson sum times (r - 1)/r is
    # chi-square with (r - 1)**2 degrees of freedom
    stat = float(np.sum((counts - expected) ** 2 / expected)) * (r - 1) / r
    assert stat <= chisq_upper_quantile((r - 1) ** 2, 1e-6), (r, stat)


def test_block_trials():
    got = [montecarlo._BLOCK_TRIALS.get(r, 1) for r in range(2, 13)]
    assert got == [block_trials(r) for r in range(2, 13)] == [16, 6, 3, 2, 2] + [1] * 6


@pytest.mark.parametrize("r, n", PACKED_CELLS)
def test_packed_column_sums_equal_summed_rows(r, n):
    # the packed path draws one index into (r!)**k per k trials, and the last
    # n mod k trials read one more index modulo (r!)**(n mod k); redraw those
    # indices, decode each into its k (or n mod k) digits in base r!, most
    # significant first, and sum the rows the digits name
    assert _sampler_path(r, n) == "packed"
    size = 300
    key = RngContract(seed=46, stream=r * 1000 + n)
    got = _column_sums(key.generator(), size, n, r)
    perms, k = math.factorial(r), block_trials(r)
    full, rem = divmod(n, k)
    idx = key.generator().integers(perms ** k, size=(size, full + (rem > 0)))
    used = np.ones(idx.shape + (k,), dtype=bool)
    if rem:
        idx[:, -1] %= perms ** rem
        used[:, -1, :k - rem] = False
    digits = idx[..., None] // perms ** np.arange(k - 1, -1, -1) % perms
    rows = decoded_rows(digits[used], r).reshape(size, n, r)
    want = rows.sum(axis=1)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("path, r, n, seed", EXACT_PATH_CELLS)
def test_sampler_path_matches_exact_law(path, r, n, seed):
    # chi-square goodness of fit of the sampled atoms against the exact law
    assert _sampler_path(r, n) == path
    draws = 200_000
    # the sampled keys are |Q|^2 = F_r r(r+1)n/3, integers held exactly in float64
    keys = _sample_statistics(n, r, draws, RngContract(seed=seed))
    assert np.array_equal(keys, np.rint(keys))
    keys = keys.astype(np.int64)
    atoms = exact_f_distribution(n, r)
    atom_keys = []
    for atom, _ in atoms:
        key = atom * r * (r + 1) * n / 3
        assert key.denominator == 1
        atom_keys.append(int(key))
    found, counts = np.unique(keys, return_counts=True)
    assert set(found.tolist()) <= set(atom_keys)
    observed = dict(zip(found.tolist(), counts.tolist()))
    # merge neighbouring atoms until every bin expects at least 5 draws
    bins, exp_acc, obs_acc = [], 0.0, 0
    for key, (_, prob) in zip(atom_keys, atoms):
        exp_acc += float(prob) * draws
        obs_acc += observed.get(key, 0)
        if exp_acc >= 5.0:
            bins.append((obs_acc, exp_acc))
            exp_acc, obs_acc = 0.0, 0
    if exp_acc > 0.0:
        last_obs, last_exp = bins.pop()
        bins.append((last_obs + obs_acc, last_exp + exp_acc))
    assert len(bins) >= 3
    stat = sum((o - e) ** 2 / e for o, e in bins)
    assert stat <= chisq_upper_quantile(len(bins) - 1, 1e-6), (path, r, n, stat, len(bins))


def assert_f_moments(r, n, seed):
    # no exact law: z-tests of E[F_r] = r - 1 and Var(F_r) = 2(r-1)(1-1/n)
    draws = 100_000
    values = exact_law.f_of_key(_sample_statistics(n, r, draws, RngContract(seed=seed)), n, r)
    mean_target = r - 1.0
    var_target = 2.0 * (r - 1) * (1.0 - 1.0 / n)
    mean = float(values.mean())
    assert abs(mean - mean_target) <= 5.0 * math.sqrt(var_target / draws)
    centered = values - mean
    var = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    assert abs(var - var_target) <= 5.0 * math.sqrt((m4 - var ** 2) / draws)


def test_split_path_moments():
    assert _sampler_path(10, 20) == "packed"
    assert_f_moments(10, 20, seed=44)


def test_shuffle_path_moments():
    assert _sampler_path(13, 20) == "shuffle"
    assert_f_moments(13, 20, seed=44)


@pytest.mark.parametrize("r, n", [(2, 20), (2, 64), (3, 6), (3, 50), (4, 3), (5, 199),
                                  (9, 40), (10, 20), (12, 3), (13, 5)])
def test_sampler_paths_thread_invariant(r, n):
    rng = RngContract(seed=45)
    one = _sample_statistics(n, r, 40_000, rng, threads=1)
    two = _sample_statistics(n, r, 40_000, rng, threads=2)
    assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("r, n", [(2, 64), (4, 912), (3, 47), (5, 199), (6, 820), (10, 15),
                                  (12, 3), (13, 5)])
def test_column_sums_do_not_depend_on_the_slab_size(r, n, monkeypatch):
    # a slab's draws continue the generator where the last one stopped, on
    # every path: multinomial, packed (with and without a part-block, split
    # words) and shuffle
    whole = _column_sums(RngContract(seed=47).generator(), 333, n, r)
    monkeypatch.setattr(montecarlo, "_SLAB_WORDS", 50)
    slabs = _column_sums(RngContract(seed=47).generator(), 333, n, r)
    assert whole.tobytes() == slabs.tobytes()


@pytest.mark.parametrize("r, n", [(10, 40), (13, 8)])
def test_a_sample_wider_than_the_slab_draws_the_same_numbers(r, n, monkeypatch):
    # split packed words and shuffled rows, drawn 16 words at a time: each
    # piece continues the generator, so every statistic is the same
    whole = _sample_statistics(n, r, 1000, RngContract(seed=49))
    monkeypatch.setattr(montecarlo, "_SLAB_WORDS", 16)
    assert _sample_statistics(n, r, 1000, RngContract(seed=49)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("r, n", [(10, 1 << 16), (13, 1 << 13)])
def test_a_sample_wider_than_the_slab_is_held_a_piece_at_a_time(r, n, monkeypatch):
    # one sample of 65,536 packed words or 106,496 shuffled entries against
    # a slab of 4,096 words: drawn whole, it peaks at 26-48 slabs of bytes
    whole = _column_sums(RngContract(seed=50).generator(), 4, n, r)
    monkeypatch.setattr(montecarlo, "_SLAB_WORDS", 1 << 12)
    tracemalloc.start()
    try:
        pieces = _column_sums(RngContract(seed=50).generator(), 4, n, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * montecarlo._SLAB_WORDS, peak
    assert pieces.tobytes() == whole.tobytes()


def test_chunk_memory_is_bounded_by_the_slab():
    # one slab of 1000 rows of 40,000 packed words would hold 320 MB
    assert _sampler_path(7, 40_000) == "packed"
    tracemalloc.start()
    try:
        _sample_statistics(40_000, 7, 1000, RngContract(seed=48))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * montecarlo._SLAB_WORDS * 2, peak


def test_worker_memory_is_bounded_per_call(monkeypatch):
    # three chunks on two workers: each draws in slabs of _SLAB_WORDS // 2 words,
    # so the call holds about what one thread holds (two whole slabs would
    # double it, to just under the 64 MB bound)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    peaks = {}
    for threads in (1, 2):
        tracemalloc.start()
        try:
            _sample_statistics(40_000, 7, 3000, RngContract(seed=48), threads=threads)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] < 8 * montecarlo._SLAB_WORDS * 2, peaks
    assert peaks[2] < 1.25 * peaks[1], peaks


def failing_chunks(monkeypatch, failing: set[int]) -> None:
    """Make _column_sums raise ValueError(c) on each chunk c in ``failing``,
    read from the chunk's substream key (stream 0, so chunk c has key 1 + c).
    The lowest of them fails last, after a pause, so that on several workers
    a higher chunk has failed first."""
    real = montecarlo._column_sums

    def column_sums(gen, size, n, r, workers=1):
        chunk = int(gen.bit_generator.state["state"]["key"][1]) - 1
        if chunk in failing:
            if chunk == min(failing) and len(failing) > 1:
                time.sleep(0.3)
            raise ValueError(chunk)
        return real(gen, size, n, r, workers)

    monkeypatch.setattr(montecarlo, "_column_sums", column_sums)


@pytest.mark.parametrize("threads", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("failing, raised", [({2}, 2), ({1, 3}, 1), ({3, 0}, 0)])
def test_a_failed_chunk_raises_after_every_worker_joins(monkeypatch, threads, failing, raised):
    failing_chunks(monkeypatch, failing)
    before = threading.active_count()
    outcome = []

    def call():
        try:
            outcome.append(_sample_statistics(5, 4, 4 * montecarlo._CHUNK, RngContract(seed=49),
                                              threads=threads))
        except ValueError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call)  # so that a hang fails the test instead of the run
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    [exc] = outcome
    assert isinstance(exc, ValueError) and exc.args == (raised,)
    assert threading.active_count() == before  # no worker outlives the call


def test_substream_index_and_stream_bounds():
    top = RngContract(seed=1, stream=2 ** 44 - 1)
    assert top.substream(2 ** 20 - 2).stream == 2 ** 64 - 1
    with pytest.raises(DomainError):
        top.substream(2 ** 20 - 1)  # the key would wrap to 0
    with pytest.raises(DomainError):
        RngContract(seed=1).substream(2 ** 20)
    with pytest.raises(DomainError):
        RngContract(seed=1).substream(-1)
    with pytest.raises(DomainError):
        RngContract(seed=1, stream=2 ** 44).substream(0)
    # seeds and streams are Philox key words: none outside [0, 2**64) aliases one inside
    RngContract(seed=2 ** 64 - 1, stream=2 ** 64 - 1).generator()
    for seed, stream in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)):
        with pytest.raises(DomainError):
            RngContract(seed=seed, stream=stream)


@pytest.mark.parametrize("samples", [2 ** 34 + 1, 2 ** 40])
def test_samples_past_the_substreams_are_refused_before_any_draw(samples, monkeypatch):
    # 2**20 chunks of 2**14 samples is the most one stream holds
    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_column_sums", no_draw)
    with pytest.raises(DomainError, match=f"{samples} samples need {-(-samples // 2 ** 14)} "):
        _sample_statistics(5, 3, samples, RngContract(seed=1))
    with pytest.raises(DomainError, match="over the 2\\*\\*20 of a stream"):
        estimate_kolmogorov(5, 3, samples, RngContract(seed=1))


@pytest.mark.parametrize("samples", [2 ** 26 + 1, 2 ** 34])
def test_samples_past_the_byte_cap_are_refused_before_any_draw(samples, monkeypatch):
    # they fit the 2**20 chunks of a stream, but a sampled law holds every
    # float64 |Q|^2 key: 2**34 of them would be 128 GiB
    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_column_sums", no_draw)
    with pytest.raises(DomainError, match=f"{samples} samples hold {8 * samples} bytes"):
        _sample_statistics(5, 3, samples, RngContract(seed=1))


def test_wasserstein_integral_two_atom_law():
    # the exact F_2 law at n = 2: atoms 0 and 2, mass 1/2 each
    atoms, levels = np.array([0.0, 2.0]), np.array([0.5, 1.0])

    def cdf1(t):
        return math.erf(math.sqrt(t / 2.0))

    def cdf3(t):
        return cdf1(t) - math.sqrt(2.0 * t / math.pi) * math.exp(-t / 2.0)

    def antiderivative(z):  # integral of cdf1 over [0, z]
        return z * cdf1(z) - cdf3(z)

    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if cdf1(mid) < 0.5 else (lo, mid)
    median = (lo + hi) / 2.0
    below = median / 2.0 - antiderivative(median)
    between = antiderivative(2.0) - antiderivative(median) - (2.0 - median) / 2.0
    tail = (1.0 - cdf3(2.0)) - 2.0 * (1.0 - cdf1(2.0))
    assert _l1_distance(atoms, levels, 1) == pytest.approx(below + between + tail, rel=1e-12)


def scipy_l1_distance(atoms, levels, p):
    """The Wasserstein integral as written with scipy's incomplete gamma: G(z) = z F_p - p F_{p+2},
    the crossing t from gammaincinv, clipped to the step."""
    from scipy.special import gammainc, gammaincc, gammaincinv

    def antiderivative(z):
        return z * gammainc(p / 2.0, z / 2.0) - p * gammainc(p / 2.0 + 1.0, z / 2.0)

    a = np.concatenate(([0.0], atoms[:-1]))
    b = atoms
    c = np.concatenate(([0.0], levels[:-1]))
    t = np.clip(2.0 * gammaincinv(p / 2.0, c), a, b)
    steps = (antiderivative(a) + antiderivative(b) - 2.0 * antiderivative(t)
             + c * (2.0 * t - a - b))
    u = atoms[-1]
    tail = p * gammaincc(p / 2.0 + 1.0, u / 2.0) - u * gammaincc(p / 2.0, u / 2.0)
    return float(math.fsum(steps) + tail)


@pytest.mark.parametrize("n", [10, 100, 400])
def test_wasserstein_integral_matches_scipy_formula(n):
    # the reference subtracts numbers of size z in z F_p - p F_{p+2}, so at n = 400 it
    # carries most of the 7e-13 relative difference; its ECDF is built from the draws
    # here, and the sampled law's from the same draws inside distance
    keys = _sample_statistics(n, 2, 100_000, RngContract(seed=n))
    uniq, counts = np.unique(keys, return_counts=True)
    reference = scipy_l1_distance(exact_law.f_of_key(uniq, n, 2), np.cumsum(counts) / keys.size, 1)
    est = distance("wasserstein", n, 2, "mc", 100_000, RngContract(seed=n))
    assert est.value == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 10, 100])
def test_exact_wasserstein_matches_the_binomial_closed_form(n):
    # at r = 2 the first column sum is n + K, K ~ Binomial(n, 1/2), so F_2 = (2K - n)^2 / n;
    # the reference integrates that law against chi-square(1) with scipy
    from scipy.stats import binom

    k = np.arange(n + 1)
    atoms, where = np.unique((2 * k - n) ** 2 / n, return_inverse=True)
    masses = np.bincount(where, weights=binom.pmf(k, n, 0.5))
    reference = scipy_l1_distance(atoms, np.cumsum(masses), 1)
    est = distance("wasserstein", n, 2, "exact")
    assert (est.method, est.half_width, est.samples) == ("exact-enumeration", 0.0, n // 2 + 1)
    assert abs(est.value - reference) <= 1e-12


def test_distance_refuses_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("F_r was sampled")

    monkeypatch.setattr(montecarlo, "_sample_statistics", no_draw)
    rng = RngContract(seed=1)
    refusals = [
        (("total variation", 5, 3), {}, "unknown metric 'total variation'"),
        (("wasserstein", 5, 3), {}, "available for r = 2 only"),
        (("smooth", 5, 3), {}, "h goes with the smooth metric and no other"),
        (("kolmogorov", 5, 3), {"h": cosine(1.0)}, "h goes with the smooth metric and no other"),
        (("wasserstein", 5, 2), {"h": cosine(1.0)}, "h goes with the smooth metric and no other"),
    ]
    for args, kwargs, message in refusals:
        for mode in ("mc", "auto"):
            with pytest.raises(DomainError, match=message):
                distance(*args, mode, 2000, rng, **kwargs)
    with pytest.raises(DomainError, match="unknown mode 'sampled'"):
        distance("kolmogorov", 5, 3, "sampled", 2000, rng)


def test_dkw_half_width_scaling():
    rng = RngContract(seed=5)
    est1 = estimate_kolmogorov(3, 2, 2000, rng)
    est2 = estimate_kolmogorov(3, 2, 4000, rng)
    assert est1.half_width / est2.half_width == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert est1.half_width == pytest.approx(math.sqrt(math.log(200.0) / (2 * 2000)), rel=1e-12)
    with pytest.raises(DomainError):
        estimate_kolmogorov(3, 2, 999, rng)


def test_kolmogorov_exact_two_atom_law():
    # r=2, n=2: F in {0, 2} with probability 1/2 each; d_K = 1/2 at the origin
    est = exact_kolmogorov(2, 2)
    assert est.method == "exact-enumeration"
    assert est.value == pytest.approx(0.5, abs=1e-12)
    mc = estimate_kolmogorov(2, 2, 200_000, RngContract(seed=8))
    assert abs(mc.value - est.value) <= mc.half_width


def test_kolmogorov_threads_do_not_change_result():
    a = estimate_kolmogorov(10, 3, 50_000, RngContract(seed=4), threads=1)
    b = estimate_kolmogorov(10, 3, 50_000, RngContract(seed=4), threads=4)
    assert a.value == b.value


def test_exact_smooth_gap_examples():
    assert distance("smooth", 4, 3, "exact", h=identity()).value == pytest.approx(0.0, abs=1e-12)
    assert distance("smooth", 4, 3, "exact", h=power(2)).value == pytest.approx(1.0, abs=1e-12)
    gap = distance("smooth", 8, 3, "exact", h=cosine(0.01)).value
    target = 0.01 ** 2 * 2 / 8
    assert abs(gap - target) <= 0.25 * target


@pytest.mark.parametrize("alpha,z", [(0.5, 2.0), (2.0, 5.0)])
def test_smooth_gap_without_a_closed_form_integrates_the_chisq_side(alpha, z):
    # the smoothed indicator has no closed form, so the chi-square side is the
    # panel rule: the gap is the exact atom average minus chisq_expectation
    h = smoothing_indicator(alpha, z)
    assert h.chisq_closed_form is None
    values, probs = (np.array([float(v) for v in col])
                     for col in zip(*exact_f_distribution(4, 3)))
    chisq_side = chisq_expectation(ChiSquareLaw(2), h)
    # 1{x <= z - alpha} <= h(x) <= 1{x <= z}
    assert chisq_cdf(ChiSquareLaw(2), z - alpha) < chisq_side < chisq_cdf(ChiSquareLaw(2), z)
    expected = abs(math.fsum(probs * h.fn(values)) - chisq_side)
    assert distance("smooth", 4, 3, "exact", h=h).value == expected
    est = distance("smooth", 4, 3, "auto", 2000, RngContract(seed=1), h=h)
    assert (est.value, est.method) == (expected, "exact-enumeration")


def test_estimate_smooth_gap_brackets_exact():
    exact_gap = distance("smooth", 4, 3, "exact", h=cosine(1.0)).value
    est = estimate_smooth_gap(4, 3, cosine(1.0), 200_000, RngContract(seed=12))
    assert abs(est.value - exact_gap) <= est.half_width + 1e-3


def test_rate_experiment_table():
    rows = rate_experiment(3, [2, 4, 8], power(2), mode="exact")
    assert [row["n_times_gap"] for row in rows] == pytest.approx([4.0, 4.0, 4.0])
    assert all(row["method"] == "exact-enumeration" for row in rows)

    rows = rate_experiment(3, [2, 4, 8], cosine(1.0), mode="exact")
    for row in rows:
        assert row["gap_below_bound"] is True
        assert row["gap"] <= row["bound_compact"]

    rows = rate_experiment(3, [16], power(2), mode="auto")
    assert rows[0]["method"] == "exact-enumeration"  # 6^16 configurations, few states
    assert rows[0]["n_times_gap"] == pytest.approx(4.0, abs=1e-12)
    rows = rate_experiment(6, [8], power(2), mode="auto", samples=50_000,
                           rng=RngContract(seed=3))
    assert rows[0]["method"] == "monte-carlo"  # the exact engine is over budget
    with pytest.raises(BudgetError):
        rate_experiment(6, [8], power(2), mode="exact")


@pytest.mark.parametrize("mode", ["auto", "mc"])
def test_rate_experiment_rows_are_the_single_n_rows_in_the_given_order(mode):
    # rows are built from the largest n down, each from its own substream
    rng = RngContract(seed=4)
    rows = rate_experiment(3, [9, 2, 40], power(2), mode, samples=20_000, rng=rng)
    assert rows == [rate_experiment(3, [n], power(2), mode, samples=20_000, rng=rng)[0]
                    for n in (9, 2, 40)]


def test_exact_rows_report_the_states_summed():
    # samples on an exact row is the engine's sorted column-sum states, not (r!)^n
    assert exact_kolmogorov(5, 4).samples == len(exact_law._sum_counts(4, 5)) == 131
    est = distance("smooth", 4, 3, "exact", h=cosine(1.0))
    assert est.samples == len(exact_law._sum_counts(3, 4))
    rows = rate_experiment(3, [2, 32], power(2))
    assert [row["method"] for row in rows] == ["exact-enumeration"] * 2
    assert [row["samples"] for row in rows] == [len(exact_law._sum_counts(3, n))
                                                for n in (2, 32)] == [5, 545]


@pytest.mark.parametrize("r, n", [(2, 1), (2, 200), (3, 32), (3, 50), (4, 5), (5, 3), (6, 3),
                                  (7, 1)])
def test_exact_row_floats_are_the_rounded_rational_atoms(r, n):
    # the atoms, masses and CDF levels of the exact law every exact row reads are
    # float() of the exact rationals, bit for bit, also where counts pass 2^63
    # (r = 3, n = 32), so the last level is 1.0 (a float running sum of the
    # masses ended at 0.9999999999999992 at r = 3, n = 50); its count is the
    # engine's states
    atoms, masses, levels, count, method = _law(n, r, "exact", None, None)
    exact = exact_f_distribution(n, r)
    assert atoms.tolist() == [float(a) for a, _ in exact]
    assert masses.tolist() == [float(p) for _, p in exact]
    law = exact_law.f_law(n, r)
    prefix = list(accumulate(law.counts))
    assert levels.tolist() == [float(Fraction(c, law.total)) for c in prefix]
    assert levels[-1] == 1.0
    assert (count, method) == (law.states, "exact-enumeration")


@pytest.mark.parametrize("r, n", [(3, 3), (3, 5), (3, 50), (2, 3570)])
def test_exact_kolmogorov_reads_both_sides_at_rounded_prefix_levels(r, n):
    # the CDF just below an atom is the previous prefix over the total, rounded
    # once, not the level minus the mass (one ulp off at 89 of 558 atoms at
    # r = 3, n = 50, which moved d_K in its last digit at r = 3, n = 3 and 5)
    law = exact_law.f_law(n, r)
    atoms = exact_law.law_floats(law, n, r)[0]
    cdf = chisq_cdf_array(ChiSquareLaw(r - 1), atoms)
    levels = [float(Fraction(c, law.total)) for c in accumulate(law.counts, initial=0)]
    gaps = [max(a - g, g - b) for a, b, g in zip(levels[1:], levels, cdf.tolist())]
    assert exact_kolmogorov(n, r).value == max(gaps)


@pytest.mark.parametrize("r, n", [(4, 5), (5, 4), (6, 3), (3, 50), (2, 400)])
def test_every_sampled_atom_is_an_exact_atom_bit_for_bit(r, n):
    # a sampled law and the exact one read their |Q|^2 keys through one float
    # view, so each sampled atom is the exact law's atom of the same key (once
    # 12/(r(r+1)n) times the centered sum of squares put 11 of 45 sampled
    # atoms one ulp off at r = 4, n = 5)
    atoms = _law(n, r, "mc", 200_000, RngContract(seed=r * n))[0]
    exact = exact_law.law_floats(exact_law.f_law(n, r), n, r)[0]
    assert np.isin(atoms.view(np.int64), exact.view(np.int64)).all()
    assert len(atoms) > 10


def test_wasserstein_below_prop_bound():
    est = estimate_wasserstein(400, 100_000, RngContract(seed=21))
    bound = (87 + 48 / math.sqrt(400)) / math.sqrt(400)
    assert bound == pytest.approx(4.47, abs=1e-12)
    assert est.value <= bound


def test_smoothing_function_shape():
    alpha, z = 0.8, 3.0
    h = smoothing_indicator(alpha, z)
    assert h.fn(z - alpha) == 1.0
    assert h.fn(z - alpha - 5.0) == 1.0
    assert h.fn(z) == 0.0
    assert h.fn(z + 2.0) == 0.0
    assert h.norm(1) == pytest.approx(2 / alpha)
    assert h.norm(2) == pytest.approx(8 / alpha ** 2)
    assert h.norm(3) == pytest.approx(32 / alpha ** 3)
    # nonincreasing on a grid
    xs = np.linspace(z - alpha - 1, z + 1, 2000)
    vals = np.array([h.fn(float(x)) for x in xs])
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_smoothing_function_smoothness_at_knots():
    alpha, z = 1.3, 2.0
    h = smoothing_indicator(alpha, z)
    knots = [z - alpha, z - 0.75 * alpha, z - 0.25 * alpha, z]
    eps = 1e-7
    for x in knots:
        # value, first and second one-sided differences agree: h is C^2
        left = h.fn(x - eps)
        right = h.fn(x + eps)
        assert abs(left - right) <= 1e-6
        dl = (h.fn(x) - h.fn(x - eps)) / eps
        dr = (h.fn(x + eps) - h.fn(x)) / eps
        assert abs(dl - dr) <= 1e-5
        d2l = (h.fn(x) - 2 * h.fn(x - eps) + h.fn(x - 2 * eps)) / eps ** 2
        d2r = (h.fn(x + 2 * eps) - 2 * h.fn(x + eps) + h.fn(x)) / eps ** 2
        assert abs(d2l - d2r) <= 1e-2 * max(1.0, h.norm(2))


def test_smoothing_function_exact_knot_values():
    # continuity is exact at the four knots of the core ramp
    h = smoothing_indicator(2.0, 0.0)  # maps x in [-2, 0] onto the core [-1, 1]
    assert h.fn(-2.0) == 1.0
    assert h.fn(-1.5) == pytest.approx(1 - (2 / 3) * (1 / 2) ** 3, abs=1e-12)
    assert h.fn(-1.0) == pytest.approx(0.5, abs=1e-12)
    assert h.fn(-0.5) == pytest.approx((2 / 3) * (1 / 2) ** 3, abs=1e-12)
    assert h.fn(0.0) == 0.0


@pytest.mark.parametrize("h", [cosine(1.5), sine(0.5), identity(), power(3), constant(2.5),
                               smoothing_indicator(1.3, 2.0)], ids=lambda h: h.label)
def test_fn_takes_floats_and_arrays_alike(h):
    xs = np.linspace(0.0, 5.0, 101)
    values = h.fn(xs)
    assert values.shape == xs.shape
    singles = [h.fn(float(x)) for x in xs]
    assert all(np.ndim(v) == 0 for v in singles)
    assert np.allclose(values, singles, rtol=1e-15, atol=0.0)


def test_estimate_below_kolmogorov_bound_small_case():
    est = estimate_kolmogorov(100, 2, 100_000, RngContract(seed=6))
    assert est.value <= min(1.0, bound_kolmogorov(100, 2)) + est.half_width


def test_release_gate_gap_below_every_applicable_bound():
    # zero observed violations across every simultaneously valid smooth bound
    from friedman_bounds import SmoothNorms, bound_r2_special, bound_sharp, bound_compact, bound_trivial

    cases = [(r, n) for r in (2, 3) for n in (2, 4, 8)] + [(4, 2), (4, 3)]
    funcs = [cosine(0.5), cosine(1.0), cosine(2.0)]
    for r, n in cases:
        for h in funcs:
            gap = distance("smooth", n, r, "exact", h=h).value
            norms = SmoothNorms(h.norm(1), h.norm(2), h.norm(3))
            assert gap <= bound_compact(n, r, norms), (r, n, h.label)
            assert gap <= bound_trivial(r, norms.h1), (r, n, h.label)
            if n >= 2:
                assert gap <= bound_sharp(n, r, norms), (r, n, h.label)
            if r == 2:
                assert gap <= bound_r2_special(n, "smooth", norms), (r, n, h.label)
