import bisect
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicfrac import base_level, funcspace, padic, process
from padicfrac.cli import DEFAULT_TOWER
from padicfrac.funcspace import BallQuotient
from padicfrac.padic import Level
from padicfrac.measures import (
    heat_shell_masses,
    levy_cutoff_valuation,
    levy_log_characteristic,
    levy_shell_mass,
)
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
from padicfrac.vladimirov import _eigenvalue

from test_funcspace import _character_phases
from test_measures import _coset_masses

Q2 = base_level(2)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([-2, 0])
W = resolve_tower("factorial:p=2,depth=4").level(4)
Q3 = base_level(3)
Q5 = base_level(5)
Q7 = base_level(7)
E5 = Q5.extend_eisenstein([-5, 0])
U7 = Q7.extend_unramified(2)
UE5 = Q5.extend_unramified(2).extend_eisenstein([-5, 0])
# q = 64: its jump laws reach 2^36, 2^60 and 2^72 cosets at 6, 10 and 12 shells
LEVEL3 = resolve_tower(DEFAULT_TOWER).level(3)
# the levels no test built before the phase law had a closed form
ODD_LEVELS = {"Q_5": Q5, "Q_7": Q7, "Q_5-e2": E5, "Q_7-u2": U7, "Q_5-u2-e2": UE5}


def _ranked(counts):
    """The paths in rank order: count descending, ties in draw order."""
    return np.argsort(-np.asarray(counts), kind="stable")


def _owners(counts):
    """The path of each drawn jump, in draw order, when the jumps are dealt
    round by round: round r hands jump r to every path with more than r
    jumps, in rank order."""
    rounds = [_ranked(counts)]
    for r in range(int(np.max(counts, initial=0))):
        rounds.append(rounds[-1][counts[rounds[-1]] > r])
    return np.concatenate([np.empty(0, np.int64), *rounds[1:]])


def _coset_law(law):
    """The law of one jump's coset, from the tests' coset-mass oracle: each
    shell's mass spread evenly over its cosets, divided by their total."""
    probs = _coset_masses(law.quotient, law.alpha)
    return probs / probs.sum()


def _add_table(quotient):
    """add[i, j] = index of rep_i + rep_j, carried from digit sums."""
    dT = quotient.digit_matrix.T
    sums = (dT[:, :, None] + dT[:, None, :]).reshape(quotient.D, -1)
    return quotient.index_of_digits(sums).reshape(quotient.size, quotient.size)


# ---------------------------------------------------------------------------
# law construction


def test_build_jump_law_validates_exponent(monkeypatch):
    # NaN and infinity fail every comparison but one: each must be refused
    # before a quotient or a shell mass is built
    monkeypatch.setattr(process, "BallQuotient", _no_table)
    monkeypatch.setattr(process, "_jump_shell_masses", _no_table)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            build_jump_law(Q2, alpha, cutoff_valuation=1)


def test_build_jump_law_rejects_cutoff_below_first_shell():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0, cutoff_valuation=-1)
    with pytest.raises(ValueError):
        build_jump_law(W, 1.0, cutoff_valuation=3)  # shells start at 4


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
    assert law.rate == math.fsum(law.shell_masses)
    assert levy_cutoff_valuation(level, delta) == cutoff


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (U, 3), (E, 1), (W, 4)])
def test_law_quotient_resolves_all_kept_shells(level, cutoff):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    assert law.quotient.lo == level.s0
    assert law.quotient.s == cutoff + 1
    assert law.level is level


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

        counted_draw.only = draw.only
        return counted_draw

    monkeypatch.setattr(process, "_jump_sampler", counted)
    states, counts = sample_endpoints(law, t, n_paths, seed=9, stream=2)
    # the jumps are drawn in blocks of at most _BLOCK_DRAWS, however long a
    # path, and not at all on a law of one jump coset
    if law.quotient.size == 2:
        assert asked == [] and counts.sum() > 0
    else:
        assert sum(asked) == counts.sum() and max(asked, default=0) <= process._BLOCK_DRAWS
    if t > 1000:
        assert counts.min() > 2 * process._BLOCK_DRAWS
    monkeypatch.undo()
    # the same draws in the same order, dealt round by round and folded
    # path by path
    rng = process._rng(9, 2)
    expect_counts = process._count_sampler(law.level, law.rate * t)(rng, n_paths)
    jumps = process._jump_sampler(law)(rng, int(expect_counts.sum()))
    owner = _owners(expect_counts)
    add = _add_table(law.quotient)
    expect = []
    for i in range(n_paths):
        state = 0
        for j in jumps[owner == i]:
            state = add[state, j]
        expect.append(state)
    assert (counts == expect_counts).all()
    assert (states == np.array(expect)).all()
    assert states.shape == (n_paths,)
    if t < 1e-6:
        assert (counts == 0).all() and (states == 0).all()


_B = process._BLOCK_DRAWS


def _scattered(n, top, huge, seed):
    """n counts up to top, zeros and ties among them, and one count of
    ``huge`` at a random path when it is positive."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, top + 1, n)
    if huge:
        counts[rng.integers(n)] = huge
    return counts.tolist()


# 1 to 3 paths whose counts end in, at or past block edges; then rounds
# wider than a block, with at most one huge count
_COUNTS = st.one_of(
    st.lists(st.one_of(st.integers(0, 3), st.integers(_B - 2, _B + 2), st.integers(0, 2 * _B + 3)),
             min_size=1, max_size=3),
    st.builds(_scattered, st.integers(1, 2 * _B + 3), st.integers(0, 4),
              st.one_of(st.just(0), st.integers(_B, 2 * _B + 3)), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=100, deadline=None)
@given(_COUNTS)
# a round of three paths split by a block edge, and a huge path alone
# past its peers' rounds
@example([_B, _B, _B])
@example([2 * _B + 3, _B - 1, 0])
def test_path_sums_deal_each_round_to_the_ranked_paths(counts):
    # a stub sampler hands out distinct values in draw order; each slot of
    # the sums must hold the rows of its ranked path's values as _owners
    # deals them, drawn in blocks of at most _BLOCK_DRAWS
    counts = np.array(counts, dtype=np.int64)
    total = int(counts.sum())
    values = np.arange(total, dtype=np.int64) * 7919 % 1_000_003
    asked = []

    def draw(rng, n):
        asked.append(n)
        return values[sum(asked) - n : sum(asked)].copy()

    draw.only = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "_count_sampler", lambda level, lam: lambda rng, n: counts.copy())
        sums, got = process._path_sums(Q2, lambda: (1.0, draw), 1.0, counts.size, 1, 0,
                                       lambda v: np.stack([v, v % 5]))
    assert (got == counts).all()
    assert sum(asked) == total and max(asked, default=0) <= _B
    want = np.zeros((2, counts.size), dtype=np.int64)
    owner = _owners(counts)
    np.add.at(want[0], owner, values)
    np.add.at(want[1], owner, values % 5)
    assert (sums == want[:, _ranked(counts)]).all()
    # a law of one value draws nothing, and still hands its sums over in
    # rank order
    draw.only = 7
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "_count_sampler", lambda level, lam: lambda rng, n: counts.copy())
        sums, got = process._path_sums(Q2, lambda: (1.0, draw), 1.0, counts.size, 1, 0,
                                       lambda v: np.stack([v, v % 5]))
    assert (got == counts).all() and sum(asked) == total
    assert (sums == np.array([[7], [2]]) * counts[_ranked(counts)]).all()


# a label of valuation -1 on Q_3 at t = 5 10^6, and endpoints of a Q_2 law
# at a comparable mean: two paths of about 10^7 jumps each
_HUGE_MEAN = """
import json, time
from padicfrac import base_level, process

seen = []
path_sums = process._path_sums

def kept(*args):
    seen.append(path_sums(*args))
    return seen[-1]

process._path_sums = kept
Q2, Q3 = base_level(2), base_level(3)
start = time.perf_counter()
process.mc_characteristic(Q3, 1.0, -1, 5e6, 2, seed=1, stream=1)
mc_s = time.perf_counter() - start
law = process.build_jump_law(Q2, 1.0, cutoff_valuation=1)
start = time.perf_counter()
_, counts = process.sample_endpoints(law, 2e6, 2, seed=1, stream=1)
endpoints_s = time.perf_counter() - start
mc_counts = seen[0][1]
print(json.dumps({
    "mc_s": mc_s, "endpoints_s": endpoints_s,
    "mc_counts": mc_counts.tolist(), "endpoint_counts": counts.tolist(),
    "mc_expect": process.sample_counts(process.build_jump_law(Q3, 1.0, 0), 5e6, 2, 1, 1).tolist(),
    "endpoint_expect": process.sample_counts(law, 2e6, 2, 1, 1).tolist(),
}))
"""


def test_few_paths_at_a_huge_poisson_mean_run_within_limits():
    # nothing is sized by or loops over the largest count: the rounds are
    # walked as runs between distinct counts, under a 1.5 GiB address space
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_MEAN], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["mc_s"] < 2.0 and doc["endpoints_s"] < 2.0
    assert doc["mc_counts"] == doc["mc_expect"] and doc["endpoint_counts"] == doc["endpoint_expect"]
    assert min(doc["mc_counts"]) > 9 * 10**6 and min(doc["endpoint_counts"]) > 4 * 10**6


def _decode(probs, rng, n):
    """n draws of the sampler's layout, one at a time: each block of
    _BLOCK_DRAWS draws reads its words, split low chunk first, and then one
    fresh word per draw, in draw order, whose bucket a cdf53 breakpoint
    splits."""
    cdf53, m, _ = process._guide_table(probs, np.arange(probs.size))
    cdf53 = cdf53.tolist()
    width = 1 << (53 - m)
    out = []
    for a in range(0, n, process._BLOCK_DRAWS):
        k = min(process._BLOCK_DRAWS, n - a)
        words = rng.bit_generator.random_raw(-(-k // 4)).tolist()
        chunks = [w >> (16 * j) & 0xFFFF for w in words for j in range(4)]
        for chunk in chunks[:k]:
            lo = (chunk >> (16 - m)) * width
            g = bisect.bisect_right(cdf53, lo)
            if g != bisect.bisect_right(cdf53, lo + width - 1):
                fresh = int(rng.bit_generator.random_raw())
                g = bisect.bisect_right(cdf53, lo + (fresh >> (11 + m)))
            out.append(g)
    return out


@pytest.mark.parametrize(
    "level, cutoff", [(Q2, 2), (U, 2), (E, 2), (W, 6), (Q3, 1), (Q2, 12), (Q2, 15)]
)
@pytest.mark.parametrize("n", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_jump_sampler_matches_the_chunk_decoder(level, cutoff, n):
    # ``_sampler`` on the coset law of each jump law, the largest tables it
    # is tested on: 16-bit chunks on every law; the 8,192 and 2^16 cosets of
    # the last two get the capped guide of m = 16 bits, the whole chunk
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    probs = _coset_law(law)
    _, m, _ = process._guide_table(probs, np.arange(probs.size))
    assert m == min((16 * probs.size - 1).bit_length(), 16)
    assert (m == 16) == (cutoff >= 11)
    rng_a, rng_b = process._rng(4, 1), process._rng(4, 1)
    got = process._sampler(probs, np.arange(probs.size))(rng_a, n)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == _decode(probs, rng_b, n)
    # the generator is left where the decoder leaves it
    assert rng_a.bit_generator.random_raw() == rng_b.bit_generator.random_raw()


@pytest.mark.parametrize("cutoff", [11, 12])
def test_jump_draws_pass_a_chi_square_against_the_coset_law(cutoff):
    # 4,096 and 8,192 cosets, drawn shell first: every coset against the
    # oracle's coset law
    stats = pytest.importorskip("scipy.stats")
    law = build_jump_law(Q2, 1.0, cutoff_valuation=cutoff)
    n = 1 << 20
    draws = process._jump_sampler(law)(process._rng(31, 0), n)
    assert draws.min() > 0  # the zero coset is no jump
    # runs of consecutive cosets pooled to about 5 expected hits a bin;
    # Cochran's rule: none expects below 1, at most a fifth below 5
    expected = _coset_law(law)[1:] * n
    _, pool = np.unique(np.cumsum(expected) // 5, return_inverse=True)
    expected = np.bincount(pool, weights=expected)
    assert expected.min() >= 1 and (expected < 5).mean() <= 0.2
    observed = np.bincount(pool[draws - 1], minlength=expected.size)
    assert stats.chisquare(observed, expected).pvalue > 0.01


def _decode_jumps(law, rng, n):
    """n jumps of the shell-first layout, block by block: each block of
    _BLOCK_DRAWS jumps decodes its shells from the chunks of the shell
    masses' sampler, then draws one uniform index in each drawn shell's
    run [q^k, q^(k+1)), k = cutoff - shell."""
    q, J = law.quotient.q, law.quotient.J
    probs = np.array(law.shell_masses)
    out = []
    for a in range(0, n, process._BLOCK_DRAWS):
        shells = _decode(probs, rng, min(process._BLOCK_DRAWS, n - a))
        starts = np.array([q ** (J - 1 - i) for i in shells], dtype=np.int64)
        out += rng.integers(starts, starts * q).tolist()
    return out


@pytest.mark.parametrize(
    "level, cutoff",
    [(Q2, 2), (U, 2), (E, 2), (W, 6), (Q3, 1), (Q2, 15), (LEVEL3, LEVEL3.s0 + 9)],
    ids=["Q_2-2", "Q_2-u2", "Q_2-e2", "W", "Q_3", "Q_2-15", "level3-2^60"],
)
@pytest.mark.parametrize("n", [0, 1, process._BLOCK_DRAWS, 2 * process._BLOCK_DRAWS + 3])
def test_jump_sampler_draws_shells_then_offsets(level, cutoff, n):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    draw = process._jump_sampler(law)
    rng_a, rng_b, rng_c = process._rng(4, 1), process._rng(4, 1), process._rng(4, 1)
    got = draw(rng_a, n)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == _decode_jumps(law, rng_b, n)
    # one call reads what one call a block reads
    B = process._BLOCK_DRAWS
    blocks = [draw(rng_c, min(B, n - a)) for a in range(0, n, B)]
    assert got.tolist() == np.concatenate([np.empty(0, np.int64), *blocks]).tolist()
    words = [rng.bit_generator.random_raw() for rng in (rng_a, rng_b, rng_c)]
    assert words[0] == words[1] == words[2]
    assert n == 0 or 0 < got.min() and got.max() < law.quotient.size


def _pooled_pvalue(observed, expected):
    """Pearson chi-square p-value, consecutive bins pooled until each
    expects at least 5 hits (a short remainder joins the last pool)."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for x, y in zip(observed, expected):
        o, e = o + x, e + y
        if e >= 5:
            obs.append(o)
            exp.append(e)
            o, e = 0.0, 0.0
    obs[-1] += o
    exp[-1] += e
    obs, exp = np.array(obs), np.array(exp)
    return chi2_sf(float(((obs - exp) ** 2 / exp).sum()), exp.size - 1)


def _run_index(quotient, g):
    """k with q^k <= g < q^(k+1): the shell of valuation s - 1 - k; -1 for
    the zero coset."""
    starts = quotient.q ** np.arange(quotient.J)
    return starts.searchsorted(g, side="right") - 1


@pytest.mark.parametrize(
    "level, cutoff",
    [(Q2, 12), (Q3, 5), (U, 4), (E, 6), (W, 7), (LEVEL3, 6), (LEVEL3, 10)],
    ids=["Q_2", "Q_3", "Q_2-u2", "Q_2-e2", "W", "level3-2^36", "level3-2^60"],
)
def test_jump_draws_pass_chi_squares_against_the_shell_masses(level, cutoff):
    # the shells drawn against the shell masses, then the offsets within
    # each shell against the uniform law on its run, in B equal bins, B the
    # largest divisor of the run's length up to 64
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    q, J = law.quotient.q, law.quotient.J
    n = 1 << 18
    draws = process._jump_sampler(law)(process._rng(37, 0), n)
    assert 0 < draws.min() and draws.max() < law.quotient.size
    k = _run_index(law.quotient, draws)
    observed = np.bincount(J - 1 - k, minlength=J)  # shell s0 + i at i = J - 1 - k
    assert _pooled_pvalue(observed, n * np.array(law.shell_masses) / law.rate) > 0.01
    stat, df = 0.0, 0
    for run in range(J):
        length = (q - 1) * q**run
        bins = max(b for b in range(1, 65) if length % b == 0)
        offsets = draws[k == run] - q**run
        if bins < 2 or offsets.size < 5 * bins:
            continue
        hits = np.bincount(offsets // (length // bins), minlength=bins)
        stat += float(((hits - offsets.size / bins) ** 2).sum() / (offsets.size / bins))
        df += bins - 1
    assert df > 0 and chi2_sf(stat, df) > 0.01


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


def _cdf(probs):
    cdf = probs.cumsum()
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
    _, m, _ = process._guide_table(probs, np.arange(probs.size))
    ones = (1 << 64) - 1
    top = ((1 << m) - 1) << (16 - m)
    draws, fresh = [], []
    for k, u in enumerate(u53.tolist()):
        noise = ones if k % 2 else 0
        word = u >> (53 - m) << (16 - m) | noise & ~top
        rest = (u << (11 + m)) & ones | noise & ((1 << (11 + m)) - 1)
        stub = _FixedWords(np.array([word, rest], dtype=np.uint64))
        draws.append(int(draw(stub, 1)[0]))
        fresh.append(stub.words.size == 0)
    return np.array(draws), np.array(fresh)


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (E, 2), (Q3, 1)])
def test_jump_sampler_on_cdf_ties(level, cutoff):
    # the lookup of ``_sampler`` on a coset law must agree with numpy's
    # searchsorted(cdf, u, side="right") on uniforms where the cdf steps
    probs = _coset_law(build_jump_law(level, 1.0, cutoff_valuation=cutoff))
    cdf = _cdf(probs)
    cdf53, m, guide = process._guide_table(probs, np.arange(probs.size))
    u53 = _tie_uniforms(cdf53)
    got, fresh = _draw_each(process._sampler(probs, np.arange(probs.size)), probs, u53)
    assert (got == cdf.searchsorted(u53 * 2.0**-53, side="right")).all()
    # exactly the draws in buckets that hold no single coset read a fresh
    # word, and the ties fall in some of them
    assert (fresh == (guide[u53 >> (53 - m)] == -1)).all()
    assert fresh[1:-1].any()


def _label_phases(law):
    """(phases, kappa) of the label pi^(-L) whose boundary shell is the
    law's cutoff, found by field arithmetic, on every coset of the law."""
    level = law.level
    L = law.cutoff - level.s0 + 1
    b = law.quotient.dual().index_of_element(level.uniformizer_pow(-L))
    return _character_phases(law.quotient, b)


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (U, 2), (E, 2), (W, 6), (Q3, 1)])
def test_guide_buckets_are_pure(level, cutoff):
    # a bucket either defers to the search or holds the coset of both of its
    # ends, and so of every word between them
    probs = _coset_law(build_jump_law(level, 1.0, cutoff_valuation=cutoff))
    cdf = _cdf(probs)
    cdf53, m, guide = process._guide_table(probs, np.arange(probs.size))
    assert guide.size == 1 << m >= 16 * cdf.size
    assert (cdf53 == np.ceil(cdf * 2.0**53)).all()
    width = 2 ** (53 - m)
    first = np.arange(guide.size) * width
    for u53 in (first, first + width - 1):
        want = cdf.searchsorted(u53 * 2.0**-53, side="right")
        assert ((guide == -1) | (guide == want)).all()
    assert (guide >= 0).mean() > 0.9


def _searchsorted_guide(probs):
    """(cdf53, m, index guide) by searching the cdf breakpoints at each
    bucket's first and last u53: the index both ends draw, or -1 where they
    differ."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf53 = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
    m = min((16 * cdf.size - 1).bit_length(), 16)
    width = 1 << (53 - m)
    starts = np.arange(0, 1 << 53, width, dtype=np.int64)
    guide = cdf53.searchsorted(starts, side="right")
    guide[guide != cdf53.searchsorted(starts + (width - 1), side="right")] = -1
    return cdf53, m, guide


def _oracle_laws():
    """(name, law) for 84 jump laws, each cut at its label's boundary shell."""
    for name, level in [("Q2", Q2), ("Q3", Q3), ("Q2-u2", U), ("Q2-e2", E)]:
        for alpha in (0.5, 1.0, 2.0):
            for L in range(1, 8):
                law = build_jump_law(level, alpha, cutoff_valuation=level.s0 + L - 1)
                yield f"{name} alpha={alpha} L={L}", law


def _oracle_tables():
    """(name, probs, values) for jump laws with their label's phases as
    values, Poisson count tables, weights with zeros and a one-entry law."""
    for name, law in _oracle_laws():
        yield name, _coset_law(law), _label_phases(law)[0]
    for lam in (0.5, 3.0, 60.0, 1e4):
        probs, ks = process._poisson_table(lam)
        yield f"poisson {lam}", probs, ks
    zeros = {"start": [0, 0, 3, 1, 2], "middle": [1, 0, 0, 2, 0, 5], "end": [2, 7, 1, 0, 0]}
    for where, weights in zeros.items():
        probs = np.array(weights, dtype=float)
        yield f"zeros at the {where}", probs, np.arange(probs.size)[::-1].copy()
    yield "one entry", np.array([0.25]), np.array([7])


def test_guide_tables_equal_the_searchsorted_builder():
    # a value fills the buckets between its breakpoints: the guide of the
    # indices is the bucket search's, and of any other values its remap
    tables = list(_oracle_tables())
    assert len(tables) == 92
    for name, probs, values in tables:
        want_cdf53, want_m, index = _searchsorted_guide(probs)
        for vals in (np.arange(probs.size), values):
            cdf53, m, guide = process._guide_table(probs, vals)
            assert m == want_m and (cdf53 == want_cdf53).all(), name
            want = np.where(index < 0, -1, vals.take(index))
            assert guide.dtype == np.int64 and (guide == want).all(), name


def test_guide_table_holds_no_second_guide_sized_array():
    # 4,096 cosets, M = 16 |G| = 2^16 buckets: the guide is the only M-long array
    probs = _coset_law(build_jump_law(Q2, 1.0, cutoff_valuation=11))
    values = np.arange(probs.size)
    assert probs.size == 1 << 12
    tracemalloc.start()
    try:
        _, m, guide = process._guide_table(probs, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert guide.size == 1 << m == 1 << 16
    assert peak < 2 * guide.nbytes


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
    expect_counts = process._count_sampler(law.level, law.rate * t)(rng, n_paths)
    jumps = process._jump_sampler(law)(rng, int(expect_counts.sum()))
    owner = _owners(expect_counts)
    assert (counts == expect_counts).all()
    for b in (1, 1000, 8191):
        phases, kappa = _character_phases(quotient, b)
        sums = np.bincount(owner, weights=phases[jumps], minlength=n_paths)
        assert (phases[states] == sums.astype(np.int64) % kappa).all()
    # and by field arithmetic on every path that jumps
    for i in np.flatnonzero(expect_counts):
        state = quotient.representative(0)
        for j in jumps[owner == i]:
            state = state + quotient.representative(j)
        assert states[i] == quotient.index_of_element(state)
    limit = quotient.size * quotient.D
    assert max(_entries(v) for v in level._cache.values()) <= limit


@pytest.mark.parametrize(
    "level, cutoff, t",
    [
        (Q2, 7, 0.03),
        (Q3, 4, 0.02),
        (E, 6, 0.1),
        (U, 4, 0.05),
        (LEVEL3, LEVEL3.s0 + 5, 0.02),
        (LEVEL3, LEVEL3.s0 + 9, 0.002),
    ],
    ids=["Q_2", "Q_3", "Q_2-e2", "Q_2-u2", "level3-2^36", "level3-2^60"],
)
def test_endpoint_shells_follow_the_heat_measure(level, cutoff, t):
    # the jumps past the cutoff stay in the zero coset of the law's
    # quotient, so the endpoint coset has exactly the heat measure's law
    # pushed to that quotient, whose shell masses are heat_shell_masses
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    quotient, n = law.quotient, 100_000
    if quotient.size <= 1 << 16:
        # the run index reads the valuation off the index, as block order lays it out
        cosets = np.arange(quotient.size)
        assert (quotient.s - 1 - _run_index(quotient, cosets) == quotient.val_pi_vector).all()
    states, _ = sample_endpoints(law, t, n, seed=3)
    # shell s0 + i at i = J - 1 - k, the zero coset (k = -1) last
    observed = np.bincount(quotient.J - 1 - _run_index(quotient, states), minlength=quotient.J + 1)
    expected = n * np.array(heat_shell_masses(quotient, 1.0, t))
    assert _pooled_pvalue(observed, expected) > 0.01


# sample_endpoints on the 2^60-coset law of level 3 of the default tower,
# then the largest number of entries any cache entry of the level holds;
# a sampler's entries are those its closure holds
_CAPPED_ENDPOINTS = """
import json, numpy as np
from padicfrac import process
from padicfrac.cli import DEFAULT_TOWER
from padicfrac.tower import resolve_tower

def entries(value):
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, (list, tuple)):
        return sum(map(entries, value))
    if callable(value) and getattr(value, "__closure__", None):
        return sum(entries(cell.cell_contents) for cell in value.__closure__)
    return 1

level = resolve_tower(DEFAULT_TOWER).level(3)
law = process.build_jump_law(level, 1.0, level.s0 + 9)
states, counts = process.sample_endpoints(law, 0.002, 100_000, seed=3)
print(json.dumps({"size": law.quotient.size, "jumps": int(counts.sum()),
                  "largest": max(map(entries, level._cache.values()))}))
"""


def test_a_2_60_coset_law_samples_within_a_memory_limit():
    # no |G|-sized array: the shell sampler's guide of at most 2^16 buckets
    # is the largest table, under a 1.5 GiB address-space limit
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_ENDPOINTS], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["size"] == 1 << 60 and doc["jumps"] > 100_000
    assert doc["largest"] <= 1 << 16


def test_sample_endpoints_refuses_indices_past_int64(monkeypatch):
    # 2^72 cosets at level 3, and 2^63 on Q_2, whose indices and carries
    # could wrap int64: refused before any digit power, table or draw
    monkeypatch.setattr(process, "_path_sums", _no_table)
    monkeypatch.setattr(process, "_jump_sampler", _no_table)
    for law in (build_jump_law(LEVEL3, 1.0, LEVEL3.s0 + 11), build_jump_law(Q2, 1.0, 62)):
        with pytest.raises(ValueError, match="overflow int64"):
            sample_endpoints(law, 1.0, 10, seed=1)
    monkeypatch.undo()
    # 2^62 cosets run
    states, counts = sample_endpoints(build_jump_law(Q2, 1.0, 61), 1e-18, 10, seed=1)
    assert states.shape == counts.shape == (10,)


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
        law = build_jump_law(Q2, alpha, levy_cutoff_valuation(Q2, Fraction(1, 2 ** (-v))))
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
    probs, ks = process._poisson_table(lam)
    cdf53, _, _ = process._guide_table(probs, np.arange(probs.size))
    k_lo = ks[0]
    assert (ks == np.arange(k_lo, k_lo + probs.size)).all()
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
    assert 16 * len(process._poisson_table(1e9)[0]) <= process.MAX_DIGIT_ENTRIES


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
    probs, ks = process._poisson_table(law.rate * t)
    cdf53, _, _ = process._guide_table(probs, np.arange(probs.size))
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u53 = _tie_uniforms(cdf53)
    got, _ = _draw_each(process._count_sampler(law.level, law.rate * t), probs, u53)
    assert (got == cdf.searchsorted(u53 * 2.0**-53, side="right") + ks[0]).all()


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

    def counted(probs, values):
        built.append(probs.size)
        return guide_table(probs, values)

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


@pytest.mark.parametrize("level", [Q2, *ODD_LEVELS.values()], ids=["Q_2", *ODD_LEVELS])
@pytest.mark.parametrize(
    "alpha, lam_valuation, t",
    [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)],
)
def test_mc_characteristic_hits_the_closed_form(level, alpha, lam_valuation, t):
    target = expected_characteristic(level, alpha, lam_valuation, t)
    estimate, stderr = mc_characteristic(
        level, alpha, lam_valuation, t, n_paths=4000, seed=101
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


def _fresh(level):
    """The same level with an empty cache (its parent's is shared)."""
    return Level(level.p, level.steps, parent=level.parent)


def _residue_probs(monkeypatch, level, alpha, L):
    """(rate, probs, kappa): the phase law of a label of valuation -L, as
    the weights ``_residue_law`` hands its sampler on a fresh copy of the
    level."""
    kappa = level.p ** -(-L // level.e)
    seen = []
    sampler = process._sampler

    def kept(probs, values):
        seen.append(probs.copy())
        return sampler(probs, values)

    with monkeypatch.context() as patch:
        patch.setattr(process, "_sampler", kept)
        rate, _ = process._residue_law(_fresh(level), alpha, L, kappa)
    (probs,) = seen
    return rate, probs, kappa


def _prototype_laws():
    """(name, level, alpha, L) for every phase law whose coset law has at
    most 2^14 cosets, over 18 levels, alpha in {0.5, 1, 2} and L = 1..7."""
    levels = {}
    for p in (2, 3, 5, 7):
        base = base_level(p)
        levels[f"Q_{p}"] = base
        levels[f"Q_{p}-u2"] = base.extend_unramified(2)
        levels[f"Q_{p}-e2"] = base.extend_eisenstein([-p, 0])
    levels["Q_2-u2-e2"] = U.extend_eisenstein([-2, 0])
    levels["Q_2-e3"] = Q2.extend_eisenstein([-2, 0, 0])
    levels["factorial:p=2 level 4"] = W
    levels["factorial:p=3 level 3"] = resolve_tower("factorial:p=3,depth=3").level(3)
    for name, level in levels.items():
        for alpha in (0.5, 1.0, 2.0):
            for L in range(1, 8):
                if level.q**L <= 1 << 14:
                    yield f"{name} alpha={alpha} L={L}", level, alpha, L


def test_phase_law_is_the_push_forward_of_the_coset_law(monkeypatch):
    # the closed form against the coset law pushed through the label's
    # character row, found by field arithmetic, each residue's mass an fsum
    laws = list(_prototype_laws())
    assert len(laws) == 276
    for name, level, alpha, L in laws:
        rate, probs, kappa = _residue_probs(monkeypatch, level, alpha, L)
        law = build_jump_law(level, alpha, cutoff_valuation=level.s0 + L - 1)
        phases, label_kappa = _label_phases(law)
        assert kappa == label_kappa == law.quotient._pairing()[1], name
        order = np.argsort(phases, kind="stable")
        starts = np.searchsorted(phases[order], np.arange(kappa + 1))
        runs = zip(starts, starts[1:])
        coset_law = _coset_law(law)
        want = np.array([math.fsum(coset_law[order[a:b]]) for a, b in runs])
        got = probs / math.fsum(probs)
        assert ((got == 0) == (want == 0)).all(), name
        hit = want > 0
        assert (abs(got[hit] - want[hit]) <= 1e-14 * want[hit]).all(), name
        assert abs(rate - law.rate) <= 1e-14 * law.rate, name


DEEP_LEVELS = {
    # the default simulate's level, q = 2^24, and q = 2^1458
    "default-top": resolve_tower(DEFAULT_TOWER).horizon,
    "q=2^1458": resolve_tower("unramified:p=2,f=1-2-6-18-54-162-486-1458").level(8),
}


@pytest.mark.parametrize(
    "level",
    [Q2, Q3, U, E, W, *ODD_LEVELS.values(), *DEEP_LEVELS.values()],
    ids=["Q_2", "Q_3", "Q_2-u2", "Q_2-e2", "W", *ODD_LEVELS, *DEEP_LEVELS],
)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_phase_law_gives_the_log_characteristic(monkeypatch, level, alpha):
    # rate (E omega^phase - 1) is the log characteristic of the process at
    # the label, by the shell bookkeeping of levy_log_characteristic; at any
    # depth, as no quotient is formed
    for L in range(1, 8):
        rate, probs, kappa = _residue_probs(monkeypatch, level, alpha, L)
        mean = (probs / math.fsum(probs)) @ np.exp((2j * np.pi / kappa) * np.arange(kappa))
        want = levy_log_characteristic(level, alpha, -L)
        assert abs(rate * (mean - 1) - want) <= 1e-13 * abs(want), L
        if kappa > 4096:
            continue
        # at frequency j the label is j times pi^(-L), of valuation
        # -(L - e v_p(j)): rate (phi(j) - 1) = -lambda_(L - e v_p(j)), with
        # lambda_k = 0 for k <= 0; phi(j) = sum_r P(r) omega^(r j)
        phi = np.conj(np.fft.fft(probs / math.fsum(probs)))
        for j in range(1, kappa):
            v = 0
            while j % level.p**(v + 1) == 0:
                v += 1
            k = L - level.e * v
            want = -_eigenvalue(level, alpha, k) if k > 0 else 0.0
            assert abs(rate * (phi[j] - 1) - want) <= 1e-13 * rate, (L, j)


@pytest.mark.parametrize(
    "level",
    [Level(2), E, W, UE5, *DEEP_LEVELS.values()],
    ids=["Q_2", "Q_2-e2", "W", "Q_5-u2-e2", *DEEP_LEVELS],
)
def test_a_cold_mc_characteristic_forms_no_quotient(monkeypatch, level):
    # the phase law needs no field arithmetic: no pairing angle, no
    # quotient table and no coset law in the level's cache
    def no_pairing(*args):
        raise AssertionError("no pairing angle may be formed")

    monkeypatch.setattr(padic, "pairing_angle", no_pairing)
    monkeypatch.setattr(funcspace, "pairing_angle", no_pairing)
    level = _fresh(level)
    for alpha in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            mc_characteristic(level, alpha, -2, 1.0, 100, seed=1)
    assert not level._cache
    target = expected_characteristic(level, 1.0, -2, 0.5)
    estimate, stderr = mc_characteristic(level, 1.0, -2, 0.5, 4000, seed=5)
    assert abs(estimate.real - target) <= 4 * stderr and abs(estimate.imag) <= 4 * stderr
    kinds = {key[0] for key in level._cache if isinstance(key, tuple)}
    assert kinds == {"residue_law", "count_sampler"}


def test_count_tables_are_keyed_by_their_poisson_mean():
    # a jump law and the phase law of the same shells both fsum the same
    # shell masses, so they share the count table of their one rate; a
    # horizon that changes the mean gets a table of its own
    level = Level(3)
    law = build_jump_law(level, 0.5, cutoff_valuation=2)
    sample_counts(law, 1.0, 10, seed=1)
    mc_characteristic(level, 0.5, -3, 1.0, 10, seed=1)
    rate, _ = process._residue_law(level, 0.5, 3, 27)
    assert rate == law.rate
    sample_counts(law, 0.5, 10, seed=1)
    means = {key[1] for key in level._cache if key[0] == "count_sampler"}
    assert means == {law.rate, law.rate * 0.5}


def _histogram(residues, kappa):
    """(estimate, stderr) of the mean of omega^residue, read from the
    kappa-bin histogram of the residues."""
    n = residues.size
    h = np.bincount(residues, minlength=kappa)
    (residues,) = np.nonzero(h)
    hits = h[residues]
    z = np.exp((2j * np.pi / kappa) * residues)
    estimate = (hits @ z) / n
    stderr = float(np.sqrt((hits @ (np.abs(z - estimate) ** 2)) / ((n - 1) * n)))
    return complex(estimate), stderr


def _mc_oracle(level, alpha, lam_valuation, t, n_paths, seed, stream):
    # the estimate from path endpoints and the label's character row, on
    # the coset law cut at the boundary shell s0 + L - 1
    L = -lam_valuation
    law = build_jump_law(level, alpha, cutoff_valuation=level.s0 + L - 1)
    states, counts = sample_endpoints(law, t, n_paths, seed, stream)
    phases, kappa = _label_phases(law)
    return _histogram(phases[states], kappa), int(counts.sum())


def _residue_totals(level, alpha, L, t, n_paths, seed, stream):
    """(totals, counts): the counts and phases mc_characteristic draws,
    from its samplers, and the phases dealt round by round and summed path
    by path in a plain loop; both in draw order."""
    rate, draw = process._residue_law(level, alpha, L, level.p ** -(-L // level.e))
    rng = process._rng(seed, stream)
    counts = process._count_sampler(level, rate * t)(rng, n_paths)
    if draw.only is not None:
        return counts * draw.only, counts
    phases = draw(rng, int(counts.sum())).tolist()
    totals = [0] * n_paths
    for path, phase in zip(_owners(counts).tolist(), phases):
        totals[path] += phase
    return np.array(totals, dtype=np.int64), counts


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
    # the estimate is the histogram of its phase totals, and it agrees in
    # law with the endpoint route, which draws other words: within four
    # standard errors of the difference
    got = mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed=17, stream=3)
    kappa = level.p ** -(lam_valuation // level.e)  # p^ceil(L / e)
    totals, counts = _residue_totals(level, alpha, -lam_valuation, t, n_paths, 17, 3)
    assert got == _histogram(totals % kappa, kappa)
    want, jumps = _mc_oracle(level, alpha, lam_valuation, t, n_paths, 17, 3)
    if n_paths >= 300:
        gap = 4 * math.hypot(got[1], want[1])
        assert abs(got[0].real - want[0].real) <= gap
        assert abs(got[0].imag - want[0].imag) <= gap
    if n_paths == 10_000:
        assert counts.sum() > 4 * process._BLOCK_DRAWS  # several path blocks
    if t < 1e-6:
        assert jumps == counts.sum() == 0 and got == want == (1.0, 0.0)


BENCH_LEVELS = {"Q_2": Q2, "Q_2-u2": U, "Q_2-e2": E, "Q_3": Q3}
BENCH_CASES = [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0), (0.5, -3, 1.0)]
LAW_CASES = (
    # the monte_carlo benchmark's 16 cases, on its first cycle's streams
    [
        pytest.param(BENCH_LEVELS[name], *case, 10_000, 1, 1 + 4 * i + j, id=f"{name}-{j}")
        for i, name in enumerate(BENCH_LEVELS)
        for j, case in enumerate(BENCH_CASES)
    ]
    # acceptance.check_monte_carlo's three
    + [
        pytest.param(Q2, *case, 100_000, 2718, 0, id=f"check-{j}")
        for j, case in enumerate(BENCH_CASES[:3])
    ]
)
HISTOGRAM_CASES = (
    LAW_CASES
    + [
        # a zero-jump horizon: every total is 0
        pytest.param(Q3, 1.0, -1, 1e-9, 300, 17, 3, id="no-jumps"),
        # kappa = 2^19, past the bincount bound: the totals are taken mod kappa
        pytest.param(None, 1.0, -19, 1e-5, 2000, 1, 1, id="kappa-2^19"),
    ]
)


@pytest.mark.parametrize("level, alpha, lam_valuation, t, n_paths, seed, stream", HISTOGRAM_CASES)
def test_histogram_estimate_is_the_per_path_formula(
    monkeypatch, level, alpha, lam_valuation, t, n_paths, seed, stream
):
    level = level or Level(2)  # a fresh cache for the 2^19-residue law
    seen = []
    estimate_of = process._histogram_estimate

    def kept(total, kappa):
        seen.append((total.copy(), kappa))
        return estimate_of(total, kappa)

    binned = []
    bincount = np.bincount

    def counted(x, *args, **kwargs):
        binned.append(x.copy())
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(process, "_histogram_estimate", kept)
    monkeypatch.setattr(np, "bincount", counted)
    got = mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream)
    monkeypatch.setattr(np, "bincount", bincount)
    ((total, kappa),) = seen
    # the totals are the phase draws dealt round by round and summed path
    # by path, in rank order, mod the kappa of the pairing table of the
    # quotient the coset law would need
    L = -lam_valuation
    assert kappa == BallQuotient(level, level.s0, level.s0 + L)._pairing()[1]
    want, counts = _residue_totals(level, alpha, L, t, n_paths, seed, stream)
    assert (total == want[_ranked(counts)]).all()
    if t < 1e-6:
        assert not total.any() and got == (1.0, 0.0)
    # both folds run: the bincount of the totals themselves, and past the
    # bound that of their residues; it is the last bincount, after the one
    # of the counts that lays out the rounds
    folded = binned[-1]
    assert (total.max() < n_paths + kappa) == (kappa < 1 << 19)
    assert (folded == (total if kappa < 1 << 19 else total % kappa)).all()
    assert (folded == total).all() == (kappa < 1 << 19)
    # the per-path values and formulas, to within 4 ulp of 1.0
    z = np.exp((2j * np.pi / kappa) * np.arange(kappa)).take(total % kappa)
    estimate = z.mean()
    stderr = np.sqrt((np.abs(z - estimate) ** 2).sum() / ((n_paths - 1) * n_paths))
    tol = 4 * np.spacing(1.0)
    assert abs(got[0].real - estimate.real) <= tol
    assert abs(got[0].imag - estimate.imag) <= tol
    assert abs(got[1] - stderr) <= tol


def _total_law(level, alpha, L, t):
    """The exact law of a path's phase total mod kappa = p^ceil(L / e):
    P(r) = (1 / kappa) sum_j omega^(-r j) exp(-t lambda_(L - e v_p(j))),
    lambda_k = 0 for k <= 0, as at frequency j the label is j times
    pi^(-L), of valuation -(L - e v_p(j))."""
    n = -(-L // level.e)
    kappa = level.p**n
    j = np.arange(kappa)
    v = sum((j % level.p**i == 0).astype(int) for i in range(1, n + 1))  # v_p(j), n at 0
    decay = [math.exp(-t * _eigenvalue(level, alpha, L - level.e * i)) if L > level.e * i else 1.0
             for i in range(n + 1)]
    return np.fft.fft(np.array(decay)[v]).real / kappa


@pytest.mark.parametrize("level, alpha, lam_valuation, t, n_paths, seed, stream", LAW_CASES)
def test_histogram_follows_the_exact_law_of_the_totals(
    monkeypatch, level, alpha, lam_valuation, t, n_paths, seed, stream
):
    # the whole kappa-bin histogram, not only the mean of omega^r that the
    # z-gate reads: a chi-square at the 1 % level against the exact law
    seen = []
    estimate_of = process._histogram_estimate

    def kept(total, kappa):
        seen.append((total, kappa))
        return estimate_of(total, kappa)

    monkeypatch.setattr(process, "_histogram_estimate", kept)
    mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream)
    ((total, kappa),) = seen
    law = _total_law(level, alpha, -lam_valuation, t)
    assert law.size == kappa and abs(math.fsum(law) - 1) <= 1e-15
    omega = np.exp((2j * np.pi / kappa) * np.arange(kappa))
    assert abs(law @ omega - expected_characteristic(level, alpha, lam_valuation, t)) <= 1e-15
    observed = np.bincount(total % kappa, minlength=kappa)
    assert _pooled_pvalue(observed, n_paths * law) > 0.01


def test_the_chi_square_refuses_a_law_the_z_gate_passes():
    # at kappa = 8 (Q_2, L = 3), equal mass moved from residues 0 and 4 to
    # residues 2 and 6 keeps the mean of omega^r, as omega^0 + omega^4 =
    # omega^2 + omega^6 = 0, but not the law: totals drawn from it pass the
    # z-gate of check_monte_carlo and fail the chi-square
    alpha, L, t, n = 0.5, 3, 1.0, 10_000
    law = _total_law(Q2, alpha, L, t)
    assert law.size == 8
    planted = law + min(law[0], law[4]) / 2 * np.array([-1, 0, 1, 0, -1, 0, 1, 0])
    omega = np.exp((2j * np.pi / 8) * np.arange(8))
    assert abs(planted @ omega - law @ omega) <= 1e-15
    total = process._sampler(planted, np.arange(8))(process._rng(1, 4), n)
    estimate, stderr = process._histogram_estimate(total, 8)
    target = expected_characteristic(Q2, alpha, -L, t)
    assert abs(estimate.real - target) <= 3 * stderr and abs(estimate.imag) <= 3 * stderr
    assert _pooled_pvalue(np.bincount(total, minlength=8), n * law) < 0.01


@pytest.mark.parametrize(
    "level", [Q2, U, E, W, Q3, *ODD_LEVELS.values()], ids=["Q2", "U", "E", "W", "Q3", *ODD_LEVELS]
)
@pytest.mark.parametrize("L", [1, 2, 3])
def test_cosets_past_the_boundary_shell_pair_trivially(level, L):
    # the premise of cutting the jump law at s0 + L - 1: on the quotient the
    # law was once cut on, every coset of valuation >= s0 + L has phase 0
    # for the label pi^(-L), so the jumps there are invisible to it, while
    # the boundary shell itself is not
    boundary = level.s0 + L - 1
    quotient = BallQuotient(level, level.s0, max(L, boundary) + 1)
    b = quotient.dual().index_of_element(level.uniformizer_pow(-L))
    # the cosets of valuation >= boundary, whose digits above its row are 0:
    # all the assertions read, so the quotient itself need not be enumerable
    inner = BallQuotient(level, boundary, quotient.s)
    dig = np.zeros((inner.size, quotient.D), dtype=np.int64)
    dig[:, quotient.D - inner.D :] = inner.digit_matrix
    phases, _ = _character_phases(quotient, b, dig)
    vals = inner.val_pi_vector
    assert not phases[vals > boundary].any()
    assert phases[vals == boundary].any()
    if level.s0 <= 0:  # the old cutoff drew jumps past the boundary
        assert (vals[1:] > boundary).any()


# the four benchmark cases on Q_2-u2 at seed 1: there s0 = 1, so the
# boundary shell s0 + L - 1 was the old cutoff max(L, s0 + L - 1) too; the
# bits are those of the phase law's draws, dealt to the paths round by round
U_PINS = [
    (1.0, -1, 1.0, 5, "((0.1306+5.323539635893545e-17j), 0.009914847170755681)"),
    (1.0, -2, 0.5, 6, "((0.13019999999999998-0.0013999999999999774j), 0.009915363404492259)"),
    (2.0, -1, 1.0, 7, "((0.028200000000000003+5.95055879705699e-17j), 0.009996522847815869)"),
    (0.5, -3, 1.0, 8, "((0.04814730880654185-0.018248528137423843j), 0.009987234716040162)"),
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
    # a label of valuation -20 on Q_2: the coset law it once needed has 2^20
    # cosets of 20 digits, past the digit-matrix budget; its phase law has
    # kappa = 2^20 residues, at the edge of the budget
    level = Level(2)  # a fresh cache, so every table below is built here
    with pytest.raises(ValueError, match="too large to enumerate"):
        BallQuotient(level, level.s0, level.s0 + 20).check_enumerable()
    t = 2.0**-20
    estimate, stderr = mc_characteristic(level, 1.0, -20, t, 20_000, seed=23)
    target = expected_characteristic(level, 1.0, -20, t)
    assert 0 < stderr and abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr
    kinds = {key[0] for key in level._cache if isinstance(key, tuple)}
    assert kinds == {"residue_law", "count_sampler"}
    with pytest.raises(ValueError, match="phase table exceeds the size budget"):
        mc_characteristic(level, 1.0, -21, t, 20_000, seed=23)
    # 3^(10^9) would take minutes to form: the refusal forms no such power
    with pytest.raises(ValueError, match="phase table exceeds the size budget"):
        mc_characteristic(Level(3), 1e-9, -10**9, t, 20_000, seed=23)


def test_mc_characteristic_builds_its_law_once(monkeypatch):
    level = Level(2)  # a fresh cache
    built = []
    masses_of = process._jump_shell_masses

    def counted(level, alpha, valuations):
        built.append(alpha)
        return masses_of(level, alpha, valuations)

    monkeypatch.setattr(process, "_jump_shell_masses", counted)
    first = mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3)
    assert mc_characteristic(level, 1.0, -2, 0.5, 1000, seed=3) == first
    # a new horizon draws on a new count table from the same law
    assert mc_characteristic(level, 1.0, -2, 0.25, 1000, seed=3) != first
    assert built == [1.0] and ("residue_law", 1.0, 2) in level._cache
    mc_characteristic(level, 2.0, -2, 0.5, 1000, seed=3)
    assert built == [1.0, 2.0]
    # the cached law draws what a freshly built one draws
    monkeypatch.undo()
    assert mc_characteristic(Level(2), 1.0, -2, 0.5, 1000, seed=3) == first


@pytest.mark.parametrize(
    "p, alpha, lam_valuation, stream, pinned",
    [
        # Q_3 at alpha = 1: phases 1 and 2 of mass 1/2 each put the cdf
        # breakpoint on a guide-table bucket edge
        (3, 1.0, -1, 13, "((0.06399999999999996+0.008140638795573805j), 0.009979665944972172)"),
        # Q_2 at L = 1: one phase, so the count draws alone move the bits
        (2, 2.0, -1, 3, "((0.0036000000000000003+6.101190353352114e-17j), 0.010000435234052918)"),
        # Q_2 at L = 3: phases over three shells, whose breakpoints fall
        # inside guide buckets, so the phase draws read fresh words
        (2, 0.5, -3, 4, "((0.06181213203435593-0.0038535533905932656j), 0.009981302704874347)"),
    ],
    ids=["Q_3-alpha1", "Q_2-alpha2", "Q_2-alpha0.5"],
)
def test_mc_characteristic_stream_is_pinned(p, alpha, lam_valuation, stream, pinned):
    # cases of the benchmark's first timed cycle at seed 1 (10,000 paths
    # each): a change that moves any draw of the phase or count samplers,
    # or the path a draw is dealt to, changes these bits
    got = mc_characteristic(base_level(p), alpha, lam_valuation, 1.0, 10_000, 1, stream)
    assert repr(got) == pinned


def test_one_coset_law_draws_no_jumps(monkeypatch):
    # Q_2 at L = 1: the jump law's one coset, of phase 1 mod 2, so a path's
    # endpoint is its count mod 2 and its phase total its count, read with no
    # jump drawn
    def no_draws(draw):
        def no_jumps(rng, n):
            raise AssertionError("a law of one value must draw no jumps")

        no_jumps.only = draw.only
        return no_jumps

    jump_sampler, residue_law = process._jump_sampler, process._residue_law

    def residue_law_without_draws(*args):
        rate, draw = residue_law(*args)
        return rate, no_draws(draw)

    monkeypatch.setattr(process, "_jump_sampler", lambda law: no_draws(jump_sampler(law)))
    monkeypatch.setattr(process, "_residue_law", residue_law_without_draws)
    level = Level(2)
    law = build_jump_law(level, 2.0, cutoff_valuation=0)
    states, counts = sample_endpoints(law, 1.0, 1000, seed=1)
    assert (states == counts % 2).all() and counts.any()
    got = mc_characteristic(level, 2.0, -1, 1.0, 10_000, 1, 3)
    assert repr(got) == "((0.0036000000000000003+6.101190353352114e-17j), 0.010000435234052918)"


@pytest.mark.parametrize(
    "t, n_paths",
    [(1.0, 0), (1.0, 1), (0.0, 10), (-1.0, 10), (math.nan, 10), (math.inf, 10)],
)
def test_mc_characteristic_rejects_bad_paths_and_horizons(monkeypatch, t, n_paths):
    def no_law(*args, **kwargs):
        raise AssertionError("no law may be built")

    monkeypatch.setattr(process, "_residue_law", no_law)
    monkeypatch.setattr(process, "_count_sampler", no_law)
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
