"""Simulation of the jump process generated by the operator.

Truncating the jump measure at a finite size threshold leaves a finite
total rate, and the process restricted to those jumps is compound Poisson:
exponential inter-arrival times, jump values drawn shell by shell from the
truncated measure.  Everything a character can see of the running sum lives
in a finite ball quotient, so paths are simulated exactly as coset indices.
The digit system is linear, so ``sample_endpoints`` finds a path's endpoint
as the carry normalisation of the summed digit vectors of its jumps.  The
characteristic function needs no states: a character is a homomorphism,
chi_b(sum of jumps) = prod chi_b(jump), so ``mc_characteristic`` sums the
jumps' exact integer phases mod kappa along each path and reads its root of
unity from a kappa-entry table.  Both samplers share one block loop,
``_path_sums``.  A law with a single jump coset g needs no jump draws: a
path of N jumps sums to N times g's column, so its sums are read from the
counts alone.  ``sample_counts`` draws only the counts, the first draws of
the stream ``_path_sums`` reads, so a reader of the counts alone (the
Poisson test) gets the same counts with no jump drawn and no endpoint
formed.

Jump cosets, and the per-path jump counts of ``_path_sums``, come from one
integer inverse-cdf sampler, ``_sampler``: a draw reads a 16-bit chunk of a
raw Philox word (a 32-bit one on laws of more than 4,096 entries), so a
word serves four draws (or two), and only the draws whose chunk falls in a
bucket of the guide table that holds a cdf breakpoint read a fresh word for
the rest of their 53-bit uniform.  The law is exactly that of inverting the
cdf rounded up to multiples of 2^-53, as ``Generator.choice`` does; the
stream is the sampler's own.  The counts are drawn on a Poisson(rate * t)
table.  A law, its jump sampler and its only jump coset are kept in the
cache of its level under (alpha, cutoff), and its count samplers under
(alpha, cutoff, t): each is built once.

The truncation is also exact in law for characteristic-function purposes:
a label of valuation -L pairs trivially with every shell past s0 + L - 1,
so once the cutoff covers that shell the truncated process has exactly the
characteristic function exp(-t ||label||^alpha) of the full one.
``mc_characteristic`` keeps only the shells the label can see, s0 through
that boundary shell: the jumps past it are an independent Poisson process
of phase 0 (Kingman 1993, 5.1), so dropping them leaves every path's phase
sum unchanged in law.

The jump counts of a path are Poisson(rate * t); ``poisson_gof_pvalue``
tests them with a chi-square statistic, its Poisson and chi-square laws
written with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox  # numpy loads numpy.random lazily: pay it at import

from .funcspace import MAX_DIGIT_ENTRIES, BallQuotient
from .measures import levy_cutoff_valuation
from .vladimirov import _eigenvalue, _jump_coset_masses

__all__ = [
    "JumpLaw",
    "build_jump_law",
    "sample_endpoints",
    "sample_counts",
    "mc_characteristic",
    "expected_characteristic",
    "poisson_pmf",
    "poisson_quantile",
    "chi2_sf",
    "poisson_gof_pvalue",
]

# draws made and jumps reduced per block; a block's 64 KiB temporaries stay
# under malloc's mmap threshold, so the heap reuses them instead of mapping
# and page-faulting fresh pages for every block; a block of draws reads a
# quarter (or half) as many raw words
_BLOCK_DRAWS = 1 << 13


@dataclass(frozen=True)
class JumpLaw:
    """Truncated jump distribution on a ball quotient.

    ``quotient`` resolves the group down to pi^(cutoff+1), so every kept
    shell splits into whole cosets; ``coset_probs[g]`` is the probability
    that a single jump lands in coset g (zero for the zero coset), and
    ``rate`` is the total jump intensity.  The samplers built on the law
    (``_jump_sampler``, ``_count_sampler``) and its only jump coset, when it
    has one (``_single_coset``), are kept in its level's cache, keyed by
    ``(alpha, cutoff)`` as the law itself is, and the count samplers by
    the horizon t too.
    """

    alpha: float
    cutoff: int
    quotient: BallQuotient
    rate: float
    coset_probs: np.ndarray = field(repr=False)

    @property
    def level(self):
        return self.quotient.level


def build_jump_law(level, alpha, cutoff_valuation=None, delta=None):
    """Truncate the jump measure of the operator to shells of valuation
    at most ``cutoff_valuation`` (equivalently, jumps of size >= ``delta``).

    Exactly one of the two cutoffs must be given; the resulting law keeps
    the shells s0 .. cutoff and errors out when the cutoff excludes even
    the outermost shell.  The law is built once per (alpha, cutoff) and
    kept in the level's cache.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("the operator exponent must be positive and finite")
    if (cutoff_valuation is None) == (delta is None):
        raise ValueError("give exactly one of cutoff_valuation and delta")
    if delta is not None:
        cutoff_valuation = levy_cutoff_valuation(level, delta)
    cutoff_valuation = int(cutoff_valuation)
    if cutoff_valuation < level.s0:
        raise ValueError(
            f"cutoff valuation {cutoff_valuation} excludes every jump shell "
            f"(shells start at {level.s0})"
        )

    def build():
        quotient = BallQuotient(level, level.s0, cutoff_valuation + 1)
        # the zero coset, the only one of valuation s, is no jump
        probs = quotient.from_shells(_jump_coset_masses(quotient, alpha) + [0.0])
        rate = probs.sum()
        probs /= rate
        probs.flags.writeable = False  # every caller shares the kept law
        return JumpLaw(
            alpha=float(alpha),
            cutoff=cutoff_valuation,
            quotient=quotient,
            rate=float(rate),
            coset_probs=probs,
        )

    return level._memo(("jump_law", float(alpha), cutoff_valuation), build)


def _rng(seed, stream):
    return Generator(Philox(key=[int(seed), int(stream)]))


def _check_horizon(t):
    if not 0.0 < t < math.inf:
        raise ValueError("time horizon must be positive and finite")


def _guide_table(probs):
    """(cdf53, m, guide): integer inverse-cdf tables of the law with
    weights ``probs``.

    A 53-bit uniform u53 (u = u53 2^-53, as numpy's ``choice`` makes it from
    a raw word) draws index g when cdf[g - 1] <= u < cdf[g].  Scaling by 2^53
    is exact, so cdf[g] <= u exactly when cdf53[g] <= u53 for cdf53 =
    ceil(cdf 2^53).  ``guide`` is an indexed search table (Chen & Asau 1974,
    Devroye 1986 III.2.4) on M = 2^m >= 16 len(probs) buckets keyed by the
    top m bits of u53: bucket k holds the index of every u53 in it when no
    cdf53 breakpoint falls inside, and -1 otherwise.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf53 = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
    m = (16 * cdf.size - 1).bit_length()
    width = 1 << (53 - m)  # values of u53 per bucket
    starts = np.arange(0, 1 << 53, width, dtype=np.int64)
    guide = cdf53.searchsorted(starts, side="right")
    guide[guide != cdf53.searchsorted(starts + (width - 1), side="right")] = -1
    return cdf53, m, guide


def _sampler(probs, offset=0):
    """draw(rng, n): offset + n indices drawn with weights ``probs``, exactly
    P(g) = (cdf53[g] - cdf53[g-1]) 2^-53 each.

    A draw reads one 16-bit chunk of a raw word, or one 32-bit chunk when
    the guide has m > 16 bits, so a word serves four draws (or two).  Each
    block of ``_BLOCK_DRAWS`` draws takes its words first and splits them
    low chunk first; the chunks left over in its last word are dropped.  A
    chunk's top m bits pick a bucket of ``_guide_table``, and a pure bucket
    gives its index.  A draw in a -1 bucket then takes one fresh word f, in
    draw order: its uniform u53 = (bucket << (53 - m)) | (f >> (11 + m))
    is searched in cdf53.
    """
    cdf53, m, guide = _guide_table(probs)
    bits = 16 if m <= 16 else 32
    per_word = 64 // bits
    chunk = f"<u{bits // 8}"  # little-endian, so the split is the same on any host

    def draw(rng, n):
        raw = rng.bit_generator.random_raw
        out = np.empty(n, dtype=np.int64)
        for a in range(0, n, _BLOCK_DRAWS):
            k = min(_BLOCK_DRAWS, n - a)
            w = raw(-(-k // per_word))
            bucket = w.astype("<u8", copy=False).view(chunk)[:k] >> (bits - m)
            g = guide.take(bucket)
            tied = np.flatnonzero(g < 0)
            u53 = (bucket[tied].astype(np.uint64) << (53 - m)) | (raw(tied.size) >> (11 + m))
            g[tied] = cdf53.searchsorted(u53.view(np.int64), side="right")
            out[a : a + k] = g
        if offset:
            out += offset
        return out

    return draw


def _jump_sampler(law):
    """The law's jump sampler, ``_sampler(law.coset_probs)``, built once."""
    return law.level._memo(
        ("jump_sampler", law.alpha, law.cutoff), lambda: _sampler(law.coset_probs)
    )


def _single_coset(law):
    """The law's only jump coset, or None when it has several; found once."""

    def build():
        (cosets,) = np.nonzero(law.coset_probs)
        return int(cosets[0]) if cosets.size == 1 else None

    return law.level._memo(("single_coset", law.alpha, law.cutoff), build)


def _poisson_table(lam):
    """(k_lo, probs): the Poisson(lam) law on the counts k_lo..k_hi, scaled
    to 1 at the mode.  Each tail left out holds < 2^-53 of the mass by
    Bennett's bounds P(N >= lam + x) <= exp(-x^2 / (2 (lam + x/3))) and
    P(N <= lam - x) <= exp(-x^2 / (2 lam)), so the table has O(sqrt lam)
    entries.  The log-probabilities are summed outward from the mode, so no
    entry underflows however large lam is.  Its guide table, 16 entries per
    count, is held to the digit-matrix budget."""
    c = 53 * math.log(2.0)
    below = math.sqrt(2.0 * c * lam)
    above = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * lam)
    if 16 * (below + above + 2) > MAX_DIGIT_ENTRIES:
        raise ValueError("rate * t too large: its jump count table exceeds the size budget")
    k_lo = max(0, math.floor(lam - below))
    k_hi = math.ceil(lam + above)
    mode = math.floor(lam) - k_lo  # the mode's position in the table
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    logs = np.zeros(ks.size)
    # log p(k) - log p(k - 1) = log(lam / k), summed away from the mode
    np.cumsum(np.log(lam / ks[mode + 1 :]), out=logs[mode + 1 :])
    np.cumsum(np.log(ks[1 : mode + 1][::-1] / lam), out=logs[:mode][::-1])
    return k_lo, np.exp(logs)


def _count_sampler(law, t):
    """The law's sampler of Poisson(rate * t) jump counts, built once per
    horizon: ``_sampler`` on the table of ``_poisson_table`` shifted by k_lo."""

    def build():
        k_lo, probs = _poisson_table(law.rate * t)
        return _sampler(probs, k_lo)

    return law.level._memo(("count_sampler", law.alpha, law.cutoff, t), build)


def _check_paths(n_paths, per_path):
    if n_paths * per_path > MAX_DIGIT_ENTRIES:
        raise ValueError("n_paths too large: its per-path arrays exceed the size budget")


def _path_sums(law, t, n_paths, seed, stream, columns):
    """(sums, counts) for n_paths paths of the law on [0, t]: counts are
    the Poisson(rate * t) jump counts and sums[:, i] the sum of
    columns[:, j] over path i's jumps j.  Both come from the law's cached
    samplers on one stream: first the n_paths counts, then the jumps in
    path order, in blocks of ``_BLOCK_DRAWS`` jumps however the paths fall.
    A block's prefix sums are read at every path end it holds, and a path's
    sum is the difference between its end and the previous path's, which
    may lie in an earlier block.  A law with a single jump coset g draws no
    jumps: sums[:, i] is counts[i] times columns[:, g].

    The per-path arrays peak at 2 len(columns) + 5 int64 entries a path:
    the counts, their ends, the sums and the path ends of a block here,
    then what the callers add, a copy of the sums in ``index_of_digits``
    or the totals mod kappa, z and its temporaries.  An n_paths whose peak
    exceeds the entry budget is refused before any draw."""
    _check_paths(n_paths, 2 * len(columns) + 5)
    rng = _rng(seed, stream)
    counts = _count_sampler(law, t)(rng, n_paths)
    g = _single_coset(law)
    if g is not None:
        return columns[:, g : g + 1] * counts, counts
    draw = _jump_sampler(law)
    ends = np.cumsum(counts)
    total = int(counts.sum())
    # acc[1 + j] sums a column through jump j of the block, and last[r] is
    # the latest path end on that scale, carried from block to block;
    # int64 wraparound in them cancels in the differences
    sums = np.zeros((len(columns), n_paths), dtype=np.int64)
    acc = np.zeros(min(_BLOCK_DRAWS, total) + 1, dtype=np.int64)
    last = np.zeros((len(columns), 1), dtype=np.int64)
    i0 = 0
    for a in range(0, total, _BLOCK_DRAWS):
        jumps = draw(rng, min(_BLOCK_DRAWS, total - a))
        i1 = int(ends.searchsorted(a + jumps.size, side="right"))
        end = ends[i0:i1] - a
        for row, column, prev in zip(sums, columns, last):
            np.cumsum(column.take(jumps), out=acc[1 : jumps.size + 1])
            at = np.concatenate([prev, acc[end]])
            np.subtract(at[1:], at[:-1], out=row[i0:i1])
            np.subtract(at[-1:], acc[jumps.size], out=prev)
        i0 = i1
    return sums, counts


def sample_endpoints(law, t, n_paths, seed, stream=0):
    """Endpoints of n_paths independent trajectories at time t.

    Returns (states, counts): the final coset index of each path and its
    jump count.  Jump counts are Poisson(rate * t); endpoints are the
    group sums of the jumps, one digit-sum normalisation per path.
    """
    _check_horizon(t)
    quotient = law.quotient
    columns = np.ascontiguousarray(quotient.digit_matrix.T)
    sums, counts = _path_sums(law, t, n_paths, seed, stream, columns)
    return quotient.index_of_digits(sums), counts


def sample_counts(law, t, n_paths, seed, stream=0):
    """The Poisson(rate * t) jump counts of n_paths independent
    trajectories on [0, t]: the counts ``sample_endpoints`` returns on the
    same (seed, stream), bit for bit, as they are the first draws of its
    stream; no jump is drawn and no endpoint formed.  The per-path arrays
    are the counts and a reader's copy of them (``poisson_gof_pvalue``
    clips one), held to the entry budget before any draw."""
    _check_horizon(t)
    _check_paths(n_paths, 2)
    return _count_sampler(law, t)(_rng(seed, stream), n_paths)


def mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream=0):
    """Monte Carlo estimate of the characteristic function at a label of
    the given pi-valuation.

    The cutoff is the boundary shell s0 + L - 1, the last one the label
    pairs nontrivially with, so the truncation is exact in law and the
    estimate targets exp(-t ||label||^alpha) with no truncation bias.
    Returns (estimate, stderr).  The draws are those of ``sample_endpoints``
    through the shared ``_path_sums``, and each path's value is
    chi_b(endpoint), computed as the sum of its jumps' integer phases mod
    kappa: a path's own sum stays exact, as kappa divides |G| <= 2^24.
    The law is kept in the level's cache, keyed by (alpha, cutoff), and the
    label's dual index by the cutoff, which grows with L, so it fixes the
    label.
    """
    lam_valuation = int(lam_valuation)
    if lam_valuation >= 0:
        raise ValueError("label must lie outside the unit ball")
    _check_horizon(t)
    if n_paths < 2:
        raise ValueError("a standard error needs at least two paths")
    L = -lam_valuation
    cutoff = level.s0 + L - 1
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    b = level._memo(
        ("label", cutoff),
        lambda: law.quotient.dual().index_of_element(level.uniformizer_pow(-L)),
    )
    phases, kappa = law.quotient.character_phases(b)
    (total,), _ = _path_sums(law, t, n_paths, seed, stream, phases[None, :])
    z = np.exp((2j * np.pi / kappa) * np.arange(kappa)).take(total % kappa)
    estimate = z.mean()
    stderr = float(
        np.sqrt((np.abs(z - estimate) ** 2).sum() / ((n_paths - 1) * n_paths))
    )
    return complex(estimate), stderr


def expected_characteristic(level, alpha, lam_valuation, t):
    """exp(-t ||label||^alpha) for a label of the given pi-valuation (1.0
    inside the unit ball)."""
    if lam_valuation >= 0:
        return 1.0
    return float(np.exp(-float(t) * _eigenvalue(level, alpha, -lam_valuation)))


def poisson_pmf(k, lam):
    """P(N = k) for N ~ Poisson(lam), lam > 0."""
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_quantile(q, lam):
    """Smallest k with P(N <= k) >= q for N ~ Poisson(lam)."""
    terms, running = [], 0.0
    while True:
        terms.append(poisson_pmf(len(terms), lam))
        running += terms[-1]
        # below 10^6 terms the running sum is within 1e-9 of fsum: O(k) fsum only near q
        if running >= q - 1e-9 and math.fsum(terms) >= q:
            return len(terms) - 1


def chi2_sf(x, df):
    """P(X >= x) for X ~ chi-square with a positive integer df: the
    regularised upper incomplete gamma Q(df/2, x/2), a finite sum built by
    Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1) from Q(0, h) = 0 or
    Q(1/2, h) = erfc(sqrt h) (Abramowitz & Stegun 26.4.4-26.4.5).  Each
    term is formed in log space, so none underflows where e^-h alone does."""
    if x <= 0:
        return 1.0
    h = x / 2.0
    a, total = (0.0, 0.0) if df % 2 == 0 else (0.5, math.erfc(math.sqrt(h)))
    while a < df / 2.0:
        total += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return total


def poisson_gof_pvalue(counts, lam):
    """Chi-square goodness-of-fit p-value of integer counts against
    Poisson(lam).  The bins are 0..k for k the 1 - 1e-6 quantile, the last
    taking the whole upper tail; sparse bins at either end are then pooled
    until each end bin expects at least 5 hits, and df is the bin count - 1."""
    counts = np.asarray(counts)
    n = counts.size
    kmax = poisson_quantile(1.0 - 1e-6, lam)
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
    expected = np.array([poisson_pmf(k, lam) for k in range(kmax + 1)]) * n
    expected[kmax] = n - expected[:kmax].sum()
    for end, inner in ((-1, -2), (0, 1)):
        while expected.size > 2 and expected[end] < 5:
            expected[inner] += expected[end]
            observed[inner] += observed[end]
            expected, observed = np.delete(expected, end), np.delete(observed, end)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return chi2_sf(stat, expected.size - 1)

