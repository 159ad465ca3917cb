import bisect
import math
from fractions import Fraction

import numpy as np
import pytest

from padicfrac import base_level, process
from padicfrac.funcspace import BallQuotient
from padicfrac.padic import Level
from padicfrac.measures import levy_log_characteristic, levy_shell_mass
from padicfrac.process import (
    build_jump_law,
    expected_characteristic,
    chi2_sf,
    mc_characteristic,
    poisson_gof_pvalue,
    poisson_pmf,
    poisson_quantile,
    sample_counts,
    sample_endpoints,
)
from padicfrac.tower import resolve_tower

Q2 = base_level(2)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([-2, 0])
W = resolve_tower("factorial:p=2,depth=4").level(4)
Q3 = base_level(3)


def _add_table(quotient):
    """add[i, j] = index of rep_i + rep_j, carried from digit sums."""
    dT = quotient.digit_matrix.T
    sums = (dT[:, :, None] + dT[:, None, :]).reshape(quotient.D, -1)
    return quotient.index_of_digits(sums).reshape(quotient.size, quotient.size)


# ---------------------------------------------------------------------------
# law construction


def test_build_jump_law_validates_exponent(monkeypatch):
    # NaN and infinity fail every comparison but one: each must be refused
    # before a quotient or a coset mass is built
    monkeypatch.setattr(process, "BallQuotient", _no_table)
    monkeypatch.setattr(process, "_jump_coset_masses", _no_table)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            build_jump_law(Q2, alpha, cutoff_valuation=1)


def test_build_jump_law_needs_exactly_one_cutoff():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0)
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0, cutoff_valuation=1, delta=Fraction(1, 2))


def test_build_jump_law_rejects_cutoff_below_first_shell():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0, cutoff_valuation=-1)
    with pytest.raises(ValueError):
        build_jump_law(W, 1.0, cutoff_valuation=3)  # shells start at 4


def test_delta_and_cutoff_valuation_agree():
    by_delta = build_jump_law(Q2, 1.0, delta=Fraction(1, 2))
    by_cut = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    assert by_delta.cutoff == by_cut.cutoff == 1
    assert by_delta.rate == by_cut.rate
    assert by_delta.cutoff == 1 and by_delta.rate == 2.5


@pytest.mark.parametrize(
    "level, alpha, cutoff, delta, rate",
    [
        (Q2, 1.0, 0, Fraction(1), 1.0),
        (Q2, 1.0, 1, Fraction(1, 2), 2.5),
        (Q2, 1.0, 2, Fraction(1, 4), 5.25),
        (Q2, 2.0, 1, Fraction(1, 2), 9.0),
    ],
)
def test_rate_is_the_shell_mass_sum(level, alpha, cutoff, delta, rate):
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    assert abs(law.rate - rate) < 1e-12
    shells = sum(
        levy_shell_mass(level, alpha, w) for w in range(level.s0, cutoff + 1)
    )
    assert abs(law.rate - shells) < 1e-12
    assert abs(law.rate - build_jump_law(level, alpha, delta=delta).rate) < 1e-12


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (U, 3), (E, 1), (W, 4)])
def test_law_quotient_resolves_all_kept_shells(level, cutoff):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    assert law.quotient.lo == level.s0
    assert law.quotient.s == cutoff + 1
    assert law.level is level


def test_coset_probs_are_a_symmetric_distribution():
    for level, cutoff in [(Q2, 2), (E, 2), (W, 4)]:
        law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
        probs = law.coset_probs
        assert probs[0] == 0.0
        assert (probs[1:] > 0).all()
        assert abs(probs.sum() - 1.0) < 1e-12
        # the jump measure is invariant under negation, coset by coset
        neg = law.quotient.index_of_digits(-law.quotient.digit_matrix.T)
        assert (probs == probs[neg]).all()


# ---------------------------------------------------------------------------
# path sampling


BAD_HORIZONS = [0.0, -1.0, -2.0, math.nan, math.inf]


def _no_table(*args, **kwargs):
    raise AssertionError("no sampler table may be built")


def test_sample_endpoints_rejects_bad_horizon(monkeypatch):
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    monkeypatch.setattr(process, "_guide_table", _no_table)
    for t in BAD_HORIZONS:
        with pytest.raises(ValueError, match="positive and finite"):
            sample_endpoints(law, t, 10, seed=1)


@pytest.mark.parametrize(
    "level,cutoff,t,n_paths",
    [
        (Q2, 2, 1.5, 400),
        (E, 2, 1.0, 300),
        (W, 6, 1.0, 200),
        (E, 2, 1.0, 1),
        (W, 6, 1e-9, 50),
        (Q2, 2, 4000.0, 3),  # about 21,000 jumps a path: paths span blocks
        (E, -1, 3.0, 300),  # one jump coset: the sums come from the counts
    ],
)
def test_sample_endpoints_matches_per_path_walk(monkeypatch, level, cutoff, t, n_paths):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    asked = []
    jump_sampler = process._jump_sampler

    def counted(law):
        draw = jump_sampler(law)

        def counted_draw(rng, n):
            asked.append(n)
            return draw(rng, n)

        return counted_draw

    monkeypatch.setattr(process, "_jump_sampler", counted)
    states, counts = sample_endpoints(law, t, n_paths, seed=9, stream=2)
    # the jumps are drawn in blocks of at most _BLOCK_DRAWS, however long a
    # path, and not at all on a law of one jump coset
    if np.count_nonzero(law.coset_probs) == 1:
        assert asked == [] and counts.sum() > 0
    else:
        assert sum(asked) == counts.sum() and max(asked, default=0) <= process._BLOCK_DRAWS
    if t > 1000:
        assert counts.min() > 2 * process._BLOCK_DRAWS
    monkeypatch.undo()
    # the same draws in the same order, folded path by path
    rng = process._rng(9, 2)
    expect_counts = process._count_sampler(law, t)(rng, n_paths)
    jumps = process._jump_sampler(law)(rng, int(expect_counts.sum()))
    add = _add_table(law.quotient)
    expect = []
    pos = 0
    for count in expect_counts:
        state = 0
        for j in jumps[pos : pos + count]:
            state = add[state, j]
        expect.append(state)
        pos += count
    assert (counts == expect_counts).all()
    assert (states == np.array(expect)).all()
    assert states.shape == (n_paths,)
    if t < 1e-6:
        assert (counts == 0).all() and (states == 0).all()


def _decode(probs, rng, n):
    """n draws of the sampler's layout, one at a time: each block of
    _BLOCK_DRAWS draws reads its words, split low chunk first, and then one
    fresh word per draw, in draw order, whose bucket a cdf53 breakpoint
    splits."""
    cdf53, m, _ = process._guide_table(probs)
    cdf53 = cdf53.tolist()
    bits = 16 if m <= 16 else 32
    per_word = 64 // bits
    width = 1 << (53 - m)
    out = []
    for a in range(0, n, process._BLOCK_DRAWS):
        k = min(process._BLOCK_DRAWS, n - a)
        words = rng.bit_generator.random_raw(-(-k // per_word)).tolist()
        chunks = [w >> (bits * j) & ((1 << bits) - 1) for w in words for j in range(per_word)]
        for chunk in chunks[:k]:
            lo = (chunk >> (bits - m)) * width
            g = bisect.bisect_right(cdf53, lo)
            if g != bisect.bisect_right(cdf53, lo + width - 1):
                fresh = int(rng.bit_generator.random_raw())
                g = bisect.bisect_right(cdf53, lo + (fresh >> (11 + m)))
            out.append(g)
    return out


@pytest.mark.parametrize(
    "level, cutoff", [(Q2, 2), (U, 2), (E, 2), (W, 6), (Q3, 1), (Q2, 12)]
)
@pytest.mark.parametrize("n", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_jump_sampler_matches_the_chunk_decoder(level, cutoff, n):
    # 16-bit chunks on the first five laws, 32-bit ones on the 8,192 cosets
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    rng_a, rng_b = process._rng(4, 1), process._rng(4, 1)
    got = process._jump_sampler(law)(rng_a, n)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == _decode(law.coset_probs, rng_b, n)
    # the generator is left where the decoder leaves it
    assert rng_a.bit_generator.random_raw() == rng_b.bit_generator.random_raw()


@pytest.mark.parametrize("cutoff", [11, 12])
def test_jump_draws_pass_a_chi_square_against_the_coset_law(cutoff):
    # 4,096 cosets on 16-bit chunks (m = 16, the whole chunk), and 8,192 on
    # 32-bit chunks
    stats = pytest.importorskip("scipy.stats")
    law = build_jump_law(Q2, 1.0, cutoff_valuation=cutoff)
    _, m, _ = process._guide_table(law.coset_probs)
    assert m == cutoff + 5
    n = 1 << 20
    draws = process._jump_sampler(law)(process._rng(31, 0), n)
    assert draws.min() > 0  # the zero coset is no jump
    # runs of consecutive cosets pooled to about 5 expected hits a bin;
    # Cochran's rule: none expects below 1, at most a fifth below 5
    expected = law.coset_probs[1:] * n
    _, pool = np.unique(np.cumsum(expected) // 5, return_inverse=True)
    expected = np.bincount(pool, weights=expected)
    assert expected.min() >= 1 and (expected < 5).mean() <= 0.2
    observed = np.bincount(pool[draws - 1], minlength=expected.size)
    assert stats.chisquare(observed, expected).pvalue > 0.01


@pytest.mark.parametrize("n", [1, 5, 1000])
def test_raw_words_are_the_uniform_stream(n):
    # Generator.random(n) is (word >> 11) 2^-53 of the next n raw words,
    # also after draws that read other parts of the stream
    rng_a, rng_b = process._rng(8, 2), process._rng(8, 2)
    for rng in (rng_a, rng_b):
        rng.poisson(3.0, size=7)
    words = rng_a.bit_generator.random_raw(n)
    assert ((words >> 11) * 2.0**-53 == rng_b.random(n)).all()
    assert rng_a.random() == rng_b.random()


class _FixedWords:
    """Stands in for a generator: hands out the given raw words in order."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, n):
        out, self.words = self.words[:n], self.words[n:]
        return out


def _cdf(law):
    cdf = law.coset_probs.cumsum()
    return cdf / cdf[-1]


def _tie_uniforms(cdf53):
    """u53 on a cdf53 breakpoint, one step of 2^-53 below one, and the ends:
    draws of probability 2^-53 each."""
    u53 = np.concatenate([cdf53, cdf53 - 1, [0, 2**53 - 1]])
    return np.unique(u53[(u53 >= 0) & (u53 < 2**53)])


def _draw_each(draw, probs, u53):
    """(draws, fresh): draw(stub, 1) at each u53, fed as a chunk word and a
    fresh word, and whether the fresh word was read.  The chunk's top m bits
    are u53's top m bits and the fresh word's top 53 - m bits the rest; every
    bit the sampler must ignore is set on every other draw."""
    _, m, _ = process._guide_table(probs)
    bits = 16 if m <= 16 else 32
    ones = (1 << 64) - 1
    top = ((1 << m) - 1) << (bits - m)
    draws, fresh = [], []
    for k, u in enumerate(u53.tolist()):
        noise = ones if k % 2 else 0
        word = u >> (53 - m) << (bits - m) | noise & ~top
        rest = (u << (11 + m)) & ones | noise & ((1 << (11 + m)) - 1)
        stub = _FixedWords(np.array([word, rest], dtype=np.uint64))
        draws.append(int(draw(stub, 1)[0]))
        fresh.append(stub.words.size == 0)
    return np.array(draws), np.array(fresh)


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (E, 2), (Q3, 1)])
def test_jump_sampler_on_cdf_ties(level, cutoff):
    # the lookup must agree with numpy's searchsorted(cdf, u, side="right")
    # on uniforms where the cdf steps
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    cdf = _cdf(law)
    cdf53, m, guide = process._guide_table(law.coset_probs)
    u53 = _tie_uniforms(cdf53)
    got, fresh = _draw_each(process._jump_sampler(law), law.coset_probs, u53)
    assert (got == cdf.searchsorted(u53 * 2.0**-53, side="right")).all()
    # exactly the draws in buckets that hold no single coset read a fresh
    # word, and the ties fall in some of them
    assert (fresh == (guide[u53 >> (53 - m)] == -1)).all()
    assert fresh[1:-1].any()


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (U, 2), (E, 2), (W, 6), (Q3, 1)])
def test_guide_buckets_are_pure(level, cutoff):
    # a bucket either defers to the search or holds the coset of both of its
    # ends, and so of every word between them
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    cdf = _cdf(law)
    cdf53, m, guide = process._guide_table(law.coset_probs)
    assert guide.size == 1 << m >= 16 * cdf.size
    assert (cdf53 == np.ceil(cdf * 2.0**53)).all()
    width = 2 ** (53 - m)
    first = np.arange(guide.size) * width
    for u53 in (first, first + width - 1):
        want = cdf.searchsorted(u53 * 2.0**-53, side="right")
        assert ((guide == -1) | (guide == want)).all()
    assert (guide >= 0).mean() > 0.9


def _entries(value):
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, (list, tuple)):
        return sum(_entries(v) for v in value)
    return 1


def test_sampling_runs_past_the_old_table_cap():
    # 8,192 cosets: a dense n x n group table would hold 2^26 entries
    level = Level(2)  # a fresh cache, so every table below is built here
    law = build_jump_law(level, 1.0, cutoff_valuation=12)
    quotient = law.quotient
    assert quotient.size == 8192
    t, n_paths = 1.0 / 4096, 3000
    states, counts = sample_endpoints(law, t, n_paths, seed=5)
    assert 0 < counts.sum()
    # the same draws again; chi_b(endpoint) = prod chi_b(jump) for every b
    rng = process._rng(5, 0)
    expect_counts = process._count_sampler(law, t)(rng, n_paths)
    jumps = process._jump_sampler(law)(rng, int(expect_counts.sum()))
    owner = np.repeat(np.arange(n_paths), expect_counts)
    assert (counts == expect_counts).all()
    for b in (1, 1000, 8191):
        phases, kappa = quotient.character_phases(b)
        sums = np.bincount(owner, weights=phases[jumps], minlength=n_paths)
        assert (phases[states] == sums.astype(np.int64) % kappa).all()
    # and by field arithmetic on every path that jumps
    ends = np.cumsum(expect_counts)
    for i in np.flatnonzero(expect_counts):
        state = quotient.representative(0)
        for j in jumps[ends[i] - expect_counts[i] : ends[i]]:
            state = state + quotient.representative(j)
        assert states[i] == quotient.index_of_element(state)
    limit = quotient.size * quotient.D
    assert max(_entries(v) for v in level._cache.values()) <= limit


def test_sample_endpoints_is_reproducible_and_stream_separated():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    s_a, c_a = sample_endpoints(law, 1.0, 500, seed=42)
    s_b, c_b = sample_endpoints(law, 1.0, 500, seed=42)
    assert (s_a == s_b).all() and (c_a == c_b).all()
    s_c, c_c = sample_endpoints(law, 1.0, 500, seed=42, stream=1)
    assert (c_c != c_a).any() or (s_c != s_a).any()
    assert s_a.shape == c_a.shape == (500,)
    assert (s_a >= 0).all() and (s_a < law.quotient.size).all()
    with pytest.raises(ValueError):
        sample_endpoints(law, 0.0, 10, seed=1)


@pytest.mark.parametrize(
    "level,cutoff",
    [(Q2, 0), (Q2, 2), (U, 2), (E, -1), (E, 1), (W, 6), (Q3, 1)],
)
def test_sample_counts_are_the_endpoint_counts(level, cutoff):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    for t, seed, stream in [(0.2, 1, 0), (1.0, 9, 2), (3.5, 42, 7), (1e-9, 3, 1)]:
        counts = sample_counts(law, t, 700, seed, stream)
        _, expect = sample_endpoints(law, t, 700, seed, stream)
        assert counts.dtype == expect.dtype and (counts == expect).all()


def test_sample_counts_refuse_before_any_draw(monkeypatch):
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    monkeypatch.setattr(process, "_guide_table", _no_table)
    monkeypatch.setattr(process, "_rng", _no_table)
    for t in BAD_HORIZONS:
        with pytest.raises(ValueError, match="positive and finite"):
            sample_counts(law, t, 10, seed=1)
    # the counts and a reader's clipped copy: two int64 entries a path
    with pytest.raises(ValueError, match="size budget"):
        sample_counts(law, 1.0, process.MAX_DIGIT_ENTRIES // 2 + 1, seed=1)


def test_check_monte_carlo_pvalues_are_pinned():
    # the Poisson GOF p-values of acceptance.check_monte_carlo, at the bits
    # its counts gave when they were drawn through sample_endpoints
    pinned = [0.34543288882340806, 0.504428841453127, 0.18428113681814318]
    for (alpha, v, t), pval in zip([(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)], pinned):
        law = build_jump_law(Q2, alpha, delta=Fraction(1, 2 ** (-v)))
        counts = sample_counts(law, t, 100_000, 2718)
        assert poisson_gof_pvalue(counts, law.rate * t) == pval


def test_jump_counts_pass_poisson_goodness_of_fit():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    t, n = 1.0, 4000
    _, counts = sample_endpoints(law, t, n, seed=11)
    assert poisson_gof_pvalue(counts, law.rate * t) > 0.01


# the three rates of acceptance.check_monte_carlo, then a grid
POISSON_RATES = [2.5, 2.625, 9.0, 0.01, 0.3, 1.0, 4.7, 17.25, 33.0, 60.0]


# ---------------------------------------------------------------------------
# jump counts by integer inversion


@pytest.mark.parametrize("lam", POISSON_RATES + [1e3, 1e6])
def test_count_table_is_the_poisson_cdf(lam):
    stats = pytest.importorskip("scipy.stats")
    k_lo, probs = process._poisson_table(lam)
    cdf53, _, _ = process._guide_table(probs)
    ks = np.arange(k_lo, k_lo + probs.size)
    # float cumsum rounding, at most one unit per entry; at lam = 1e6
    # scipy's own incomplete gamma is off by up to 4e-11
    atol = probs.size * 2.0**-53 if lam <= 1e3 else 1e-10
    np.testing.assert_allclose(cdf53 * 2.0**-53, stats.poisson.cdf(ks, lam), rtol=0, atol=atol)
    # each tail left out holds less than the cdf's resolution
    assert stats.poisson.cdf(k_lo - 1, lam) < 2.0**-53
    assert stats.poisson.sf(ks[-1], lam) < 2.0**-53
    assert np.isfinite(probs).all() and probs.max() == 1.0
    assert probs.size <= 18 * math.sqrt(lam) + 30


def test_sample_endpoints_refuses_a_count_table_over_budget():
    # rate * t = 2.5e10 needs ~2.7e6 counts, and 16 guide entries each
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    for t in (1e10, 1e300):
        with pytest.raises(ValueError, match="size budget"):
            sample_endpoints(law, t, 10, seed=1)
    assert 16 * len(process._poisson_table(1e9)[1]) <= process.MAX_DIGIT_ENTRIES


def test_path_sums_refuse_paths_over_the_entry_budget(monkeypatch):
    # 2 len(columns) + 5 int64 entries a path, refused before any draw
    law = build_jump_law(Q2, 1.0, cutoff_valuation=2)
    D = law.quotient.D
    monkeypatch.setattr(process, "_guide_table", _no_table)
    with pytest.raises(ValueError, match="size budget"):
        sample_endpoints(law, 1.0, process.MAX_DIGIT_ENTRIES // (2 * D + 5) + 1, seed=1)
    with pytest.raises(ValueError, match="size budget"):
        mc_characteristic(Level(2), 1.0, -1, 1.0, process.MAX_DIGIT_ENTRIES // 7 + 1, seed=1)


@pytest.mark.parametrize("lam", [0.01, 2.5, 60.0, 1e3])
def test_count_sampler_on_cdf_ties(lam):
    # uniforms on a cdf53 breakpoint or one step below it
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    t = lam / law.rate
    k_lo, probs = process._poisson_table(law.rate * t)
    cdf53, _, _ = process._guide_table(probs)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u53 = _tie_uniforms(cdf53)
    got, _ = _draw_each(process._count_sampler(law, t), probs, u53)
    assert (got == cdf.searchsorted(u53 * 2.0**-53, side="right") + k_lo).all()


@pytest.mark.parametrize("lam", [0.05, 2.5, 9.0, 40.0])
def test_sample_endpoints_counts_pass_poisson_goodness_of_fit(lam):
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    t = lam / law.rate
    _, counts = sample_endpoints(law, t, 4000, seed=29)
    assert poisson_gof_pvalue(counts, law.rate * t) > 0.01


def test_samplers_are_built_once_per_law_and_horizon(monkeypatch):
    level = Level(2)  # a fresh cache
    built = []
    guide_table = process._guide_table

    def counted(probs):
        built.append(probs.size)
        return guide_table(probs)

    monkeypatch.setattr(process, "_guide_table", counted)
    first = mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3)
    assert len(built) == 2  # the jump table and the count table
    assert mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=4) != first
    assert mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3) == first
    assert len(built) == 2
    mc_characteristic(level, 1.0, -2, 0.25, 1000, seed=3)
    mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3)
    assert len(built) == 3  # one more count table, the jumps' is kept
    # the kept samplers draw what fresh ones draw
    monkeypatch.undo()
    assert mc_characteristic(Level(2), 1.0, -2, 0.5, 1000, seed=3) == first


@pytest.mark.parametrize("lam", POISSON_RATES)
def test_poisson_pmf_sums_to_one_up_to_the_quantile(lam):
    kmax = poisson_quantile(1 - 1e-6, lam)
    mass = math.fsum(poisson_pmf(k, lam) for k in range(kmax + 1))
    assert 1 - 1e-6 <= mass <= 1 + 1e-12
    assert math.fsum(poisson_pmf(k, lam) for k in range(kmax)) < 1 - 1e-6
    assert abs(math.fsum(poisson_pmf(k, lam) for k in range(kmax + 200)) - 1) < 1e-12


@pytest.mark.parametrize("df", range(1, 41))
def test_chi2_sf_closed_forms(df):
    assert chi2_sf(0.0, df) == 1.0
    xs = [0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 150.0]
    values = [chi2_sf(x, df) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    for x in xs:
        if df == 1:
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
        if df == 2:
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
        # adding two degrees of freedom adds one term: Q(a+1, h) - Q(a, h)
        h, a = x / 2, df / 2
        gap = math.exp(a * math.log(h) - h - math.lgamma(a + 1))
        assert chi2_sf(x, df + 2) - chi2_sf(x, df) == pytest.approx(gap, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("lam", [2.5, 2.625, 9.0])
def test_poisson_gof_of_exact_expected_counts_is_one(lam):
    n = 100_000
    kmax = poisson_quantile(1 - 1e-6, lam)
    hits = [round(n * poisson_pmf(k, lam)) for k in range(kmax + 1)]
    hits[int(lam)] += n - sum(hits)  # the rounding slack goes to the mode
    counts = np.repeat(np.arange(kmax + 1), hits)
    assert poisson_gof_pvalue(counts, lam) > 0.99
    assert poisson_gof_pvalue(counts, 2 * lam) < 1e-6


@pytest.mark.parametrize("lam", POISSON_RATES)
def test_poisson_quantile_and_pmf_match_scipy(lam):
    stats = pytest.importorskip("scipy.stats")
    for q in (0.01, 0.5, 0.99, 1 - 1e-6):
        assert poisson_quantile(q, lam) == int(stats.poisson.ppf(q, lam))
    ks = np.arange(poisson_quantile(1 - 1e-6, lam) + 5)
    mine = np.array([poisson_pmf(int(k), lam) for k in ks])
    np.testing.assert_allclose(mine, stats.poisson.pmf(ks, lam), rtol=1e-12)


def test_poisson_quantile_matches_scipy_on_a_dense_grid():
    stats = pytest.importorskip("scipy.stats")
    lams = np.linspace(0.01, 60.0, 600)
    mine = [poisson_quantile(1 - 1e-6, float(lam)) for lam in lams]
    assert mine == [int(k) for k in stats.poisson.ppf(1 - 1e-6, lams)]


@pytest.mark.parametrize("df", range(1, 41))
def test_chi2_sf_matches_scipy(df):
    stats = pytest.importorskip("scipy.stats")
    xs = np.linspace(0.0, 150.0, 301)
    mine = np.array([chi2_sf(float(x), df) for x in xs])
    np.testing.assert_allclose(mine, stats.chi2.sf(xs, df), rtol=1e-12, atol=1e-300)


def _scipy_poisson_gof(stats, counts, lam):
    """The same test from scipy's pmf, quantile and chisquare."""
    n = counts.size
    kmax = int(stats.poisson.ppf(1 - 1e-6, lam))
    observed = np.bincount(counts, minlength=kmax + 1)[: kmax + 1].astype(float)
    observed[kmax] += (counts > kmax).sum()
    expected = stats.poisson.pmf(np.arange(kmax + 1), lam) * n
    expected[kmax] = n - expected[:kmax].sum()
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected.size > 2 and expected[0] < 5:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    return stats.chisquare(observed, expected).pvalue


def test_poisson_gof_pvalue_matches_scipy_chisquare():
    stats = pytest.importorskip("scipy.stats")
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    lam, n = law.rate, 4000
    _, counts = sample_endpoints(law, 1.0, n, seed=11)
    reference = _scipy_poisson_gof(stats, counts, lam)
    assert poisson_gof_pvalue(counts, lam) == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("lam", [1e3, 1e4])
def test_poisson_gof_pools_both_tails_at_large_rates(lam):
    # exp(-lam) n underflows to 0.0 in the low bins, which must be pooled
    # like the high ones instead of giving 0/0
    for seed in (1, 2):
        counts = np.random.default_rng(seed).poisson(lam, 4000)
        pval = poisson_gof_pvalue(counts, lam)
        assert math.isfinite(pval) and pval > 0.01
        assert poisson_gof_pvalue(counts, 1.05 * lam) < 1e-6
    stats = pytest.importorskip("scipy.stats")
    reference = _scipy_poisson_gof(stats, counts, lam)
    assert pval == pytest.approx(reference, rel=1e-9)


def test_chi2_sf_does_not_underflow_at_large_df():
    # the series used to start at exp(-x/2), which is 0.0 past x of about 1490
    assert chi2_sf(1600.0, 1600) == pytest.approx(0.4952983875783587, rel=1e-10)
    assert chi2_sf(1700.0, 1601) == pytest.approx(0.04213320301247529, rel=1e-10)
    stats = pytest.importorskip("scipy.stats")
    for df in (41, 100, 999, 1000, 2001, 4999, 5000):
        xs = np.linspace(0.0, 2.0 * df, 41)
        mine = np.array([chi2_sf(float(x), df) for x in xs])
        np.testing.assert_allclose(mine, stats.chi2.sf(xs, df), rtol=1e-10, atol=1e-300)


# ---------------------------------------------------------------------------
# characteristic function


@pytest.mark.parametrize(
    "alpha, lam_valuation, t",
    [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)],
)
def test_mc_characteristic_hits_the_closed_form(alpha, lam_valuation, t):
    target = expected_characteristic(Q2, alpha, lam_valuation, t)
    estimate, stderr = mc_characteristic(
        Q2, alpha, lam_valuation, t, n_paths=4000, seed=101
    )
    assert 0 < stderr < 0.03
    assert abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr


@pytest.mark.parametrize(
    "alpha, lam_valuation, t", [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)]
)
def test_mc_z_scores_spread_like_a_standard_normal(alpha, lam_valuation, t):
    # the cases of acceptance.check_monte_carlo over 300 streams: the signed
    # z-scores center on 0 with unit spread (the mean of 300 has sd 0.058)
    target = expected_characteristic(Q2, alpha, lam_valuation, t)
    z = []
    for stream in range(300):
        estimate, stderr = mc_characteristic(
            Q2, alpha, lam_valuation, t, n_paths=4000, seed=2718, stream=stream
        )
        z.append((estimate.real - target) / stderr)
    assert abs(np.mean(z)) <= 0.2 and np.std(z) <= 1.2


def test_mc_characteristic_on_a_wildly_ramified_level():
    target = expected_characteristic(W, 1.0, -1, 1.0)
    assert abs(target - math.exp(-(2.0 ** 0.25))) < 1e-15
    estimate, stderr = mc_characteristic(W, 1.0, -1, 1.0, n_paths=2000, seed=7)
    assert abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr


def test_mc_characteristic_rejects_labels_inside_the_unit_ball():
    with pytest.raises(ValueError):
        mc_characteristic(Q2, 1.0, 0, 1.0, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        mc_characteristic(Q2, 1.0, 2, 1.0, n_paths=10, seed=1)


def test_mc_characteristic_is_reproducible():
    a = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3)
    b = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3)
    assert a == b
    c = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3, stream=1)
    assert c != a


def _mc_oracle(level, alpha, lam_valuation, t, n_paths, seed, stream):
    # the same estimate from path endpoints and the character table, on the
    # law cut at the boundary shell s0 + L - 1
    L = -lam_valuation
    law = build_jump_law(level, alpha, cutoff_valuation=level.s0 + L - 1)
    states, counts = sample_endpoints(law, t, n_paths, seed, stream)
    b = law.quotient.dual().index_of_element(level.uniformizer_pow(-L))
    phases, kappa = law.quotient.character_phases(b)
    z = np.exp((2j * np.pi / kappa) * phases)[states]
    estimate = z.mean()
    stderr = float(
        np.sqrt((np.abs(z - estimate) ** 2).sum() / ((n_paths - 1) * n_paths))
    )
    return (complex(estimate), stderr), int(counts.sum())


@pytest.mark.parametrize(
    "level, alpha, lam_valuation, t, n_paths",
    [
        (Q2, 1.0, -1, 1.0, 2),
        (Q2, 0.5, -3, 1.0, 3000),
        (U, 1.0, -2, 0.5, 1000),
        (E, 2.0, -1, 1.0, 1000),
        (W, 1.0, -1, 1.0, 500),
        (Q3, 2.0, -1, 1.0, 10_000),
        (Q3, 1.0, -1, 1e-9, 300),
    ],
)
def test_mc_characteristic_matches_the_endpoint_oracle(
    level, alpha, lam_valuation, t, n_paths
):
    got = mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed=17, stream=3)
    want, jumps = _mc_oracle(level, alpha, lam_valuation, t, n_paths, 17, 3)
    assert got == want
    if n_paths == 10_000:
        assert jumps > 4 * process._BLOCK_DRAWS  # several path blocks
    if t < 1e-6:
        assert jumps == 0 and got == (1.0, 0.0)


@pytest.mark.parametrize("level", [Q2, U, E, W, Q3], ids=["Q2", "U", "E", "W", "Q3"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_cosets_past_the_boundary_shell_pair_trivially(level, L):
    # the premise of cutting the jump law at s0 + L - 1: on the quotient the
    # law was once cut on, every coset of valuation >= s0 + L has phase 0
    # for the label pi^(-L), so the jumps there are invisible to it, while
    # the boundary shell itself is not
    boundary = level.s0 + L - 1
    quotient = BallQuotient(level, level.s0, max(L, boundary) + 1)
    b = quotient.dual().index_of_element(level.uniformizer_pow(-L))
    phases, _ = quotient.character_phases(b)
    vals = quotient.val_pi_vector
    assert not phases[vals > boundary].any()
    assert phases[vals == boundary].any()
    if level.s0 <= 0:  # the old cutoff drew jumps past the boundary
        assert (vals[1:] > boundary).any()


# the four benchmark cases on Q_2-u2 at seed 1, pinned before the jump law
# was cut at the boundary shell; there s0 = 1, so the cutoff did not move
U_PINS = [
    (1.0, -1, 1.0, 5, "((0.132+5.3149671082995135e-17j), 0.009912992824706084)"),
    (1.0, -2, 0.5, 6, "((0.15510000000000002-0.003499999999999969j), 0.009879419734651897)"),
    (2.0, -1, 1.0, 7, "((0.001+6.11711076174103e-17j), 0.010000495037251856)"),
    (0.5, -3, 1.0, 8, "((0.04685563491861037+0.00027157287525381515j), 0.00998951583486989)"),
]


@pytest.mark.parametrize("alpha, lam_valuation, t, stream, pinned", U_PINS)
def test_mc_characteristic_is_unchanged_where_s0_is_positive(
    alpha, lam_valuation, t, stream, pinned
):
    L = -lam_valuation
    assert max(L, U.s0 + L - 1) == U.s0 + L - 1
    got = mc_characteristic(U, alpha, lam_valuation, t, 10_000, 1, stream)
    assert repr(got) == pinned


def test_mc_characteristic_runs_past_the_table_caps():
    level = Level(2)  # a fresh cache, so every table below is built here
    t = 1.0 / 4096
    estimate, stderr = mc_characteristic(level, 1.0, -12, t, 20_000, seed=23)
    quotient = build_jump_law(level, 1.0, cutoff_valuation=12).quotient
    assert quotient.size == 8192 > 4096
    target = expected_characteristic(level, 1.0, -12, t)
    assert 0 < stderr and abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr
    names = {key[1] for key in level._cache if isinstance(key, tuple)}
    assert not names & {"U", "sub", "neg"}


def test_mc_characteristic_builds_its_law_once(monkeypatch):
    level = Level(2)  # a fresh cache
    laws = []
    make_law = process.JumpLaw

    def counted(**fields):
        laws.append(fields["alpha"])
        return make_law(**fields)

    monkeypatch.setattr(process, "JumpLaw", counted)
    first = mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3)
    assert mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3) == first
    assert laws == [1.0]
    # a direct call with the same (alpha, cutoff) gets the kept law
    assert build_jump_law(level, 1.0, cutoff_valuation=level.s0 + 1) is build_jump_law(
        level, 1.0, cutoff_valuation=level.s0 + 1
    )
    assert laws == [1.0]
    # the cached law draws what a freshly built one draws
    monkeypatch.undo()
    assert mc_characteristic(Level(2), 1.0, -2, 0.5, 1000, seed=3) == first


@pytest.mark.parametrize(
    "p, alpha, lam_valuation, stream, pinned",
    [
        # Q_3 at alpha = 1: the law's two cosets of mass 1/2 put its cdf
        # breakpoint on a guide-table bucket edge
        (3, 1.0, -1, 13, "((0.05259999999999993+0.007101408311032506j), 0.009986403447957756)"),
        # Q_2 at L = 1: one jump coset, so the count draws alone move the bits
        (2, 2.0, -1, 3, "((0.0036000000000000003+6.101190353352114e-17j), 0.010000435234052918)"),
        # Q_2 at L = 3: seven cosets over three shells, whose breakpoints
        # fall inside guide buckets, so the jump draws read fresh words
        (2, 0.5, -3, 4, "((0.06668578643762688-0.005162741699796948j), 0.009978105604656598)"),
    ],
    ids=["Q_3-alpha1", "Q_2-alpha2", "Q_2-alpha0.5"],
)
def test_mc_characteristic_stream_is_pinned(p, alpha, lam_valuation, stream, pinned):
    # cases of the benchmark's first timed cycle at seed 1 (10,000 paths
    # each): a change that moves any draw of the jump or count samplers
    # changes these bits
    got = mc_characteristic(base_level(p), alpha, lam_valuation, 1.0, 10_000, 1, stream)
    assert repr(got) == pinned


def test_one_coset_law_draws_no_jumps(monkeypatch):
    # Q_2 at L = 1: the jump law's one coset, so a path's phase sum is its
    # count times that coset's phase, read with no jump sampler
    def no_jumps(law):
        raise AssertionError("a one-coset law must draw no jumps")

    monkeypatch.setattr(process, "_jump_sampler", no_jumps)
    got = mc_characteristic(Level(2), 2.0, -1, 1.0, 10_000, 1, 3)
    assert repr(got) == "((0.0036000000000000003+6.101190353352114e-17j), 0.010000435234052918)"


@pytest.mark.parametrize(
    "t, n_paths",
    [(1.0, 0), (1.0, 1), (0.0, 10), (-1.0, 10), (math.nan, 10), (math.inf, 10)],
)
def test_mc_characteristic_rejects_bad_paths_and_horizons(monkeypatch, t, n_paths):
    def no_law(*args, **kwargs):
        raise AssertionError("the law must not be built")

    monkeypatch.setattr(process, "build_jump_law", no_law)
    with pytest.raises(ValueError):
        mc_characteristic(Q2, 1.0, -1, t, n_paths, seed=1)


def test_expected_characteristic_values():
    assert expected_characteristic(Q2, 1.0, -1, 1.0) == pytest.approx(
        math.exp(-2.0), abs=1e-15
    )
    assert expected_characteristic(Q2, 2.0, -1, 1.0) == pytest.approx(
        math.exp(-4.0), abs=1e-15
    )
    assert expected_characteristic(E, 1.0, -1, 1.0) == pytest.approx(
        math.exp(-math.sqrt(2.0)), abs=1e-15
    )
    assert expected_characteristic(Q2, 1.0, 0, 5.0) == 1.0
    assert expected_characteristic(Q2, 1.0, 3, 5.0) == 1.0


@pytest.mark.parametrize("level", [Q2, U, E, W])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize(
    "cutoff_of",
    [lambda s0, L: s0 + L - 1, lambda s0, L: max(L, s0 + L - 1)],
    ids=["boundary", "past-boundary"],
)
def test_truncated_log_characteristic_is_exact_past_the_boundary_shell(
    level, alpha, L, cutoff_of
):
    cutoff = cutoff_of(level.s0, L)
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    got = levy_log_characteristic(law.level, law.alpha, -L, 1.5, cutoff=law.cutoff)
    want = -1.5 * float(level.p) ** (L * alpha / level.e)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_truncated_log_characteristic_with_a_short_cutoff():
    # every kept shell lies strictly inside the label's dead zone, so the
    # truncated process only sees the total kept intensity
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    got = levy_log_characteristic(law.level, law.alpha, -3, 1.0, cutoff=law.cutoff)
    assert abs(got + law.rate) < 1e-13
    assert got > -8.0  # the full log-characteristic would be -t * 8


def test_truncated_log_characteristic_inside_the_unit_ball():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=2)
    assert levy_log_characteristic(law.level, law.alpha, 0, 1.0, cutoff=law.cutoff) == 0.0
    assert levy_log_characteristic(law.level, law.alpha, 3, 2.0, cutoff=law.cutoff) == 0.0
