"""Simulation of the jump process generated by the operator.

Truncating the jump measure at a finite size threshold leaves a finite
total rate, and the process restricted to those jumps is compound Poisson:
exponential inter-arrival times, jump values drawn shell by shell from the
truncated measure.  Everything a character can see of the running sum lives
in a finite ball quotient, so paths are simulated exactly as coset indices.
The truncated measure is radial, so a jump is drawn shell first: its shell
from the shell masses, then a uniform coset of that shell, which in block
order is a uniform integer in the shell's index run.  No per-coset array is
formed.  The digit system is linear, so ``sample_endpoints`` finds a path's
endpoint as the carry normalisation of the summed digit vectors of its
jumps, each read off the jump's index in base p.

The characteristic function needs no states and no quotient.  A character
is a homomorphism, chi_b(sum of jumps) = prod chi_b(jump), so
``mc_characteristic`` needs only the law of one jump's phase for its label
b of valuation -L, and that law has a closed form.  pi^(-d) O is the
inverse different, so the trace maps pi^j O onto p^floor((j + d) / e) Z_p,
and the averaged trace T = Tr / m, with v_p(m) = c, maps it onto
p^floor((j - s0) / e) Z_p, s0 = e c - d.  A surjective homomorphism of
compact groups pushes Haar measure forward to Haar measure, so b x, x a
uniform point of pi^(s0 + k) O, has a phase uniform on the subgroup H_k of
order p^ceil((L - k) / e) of Z / kappa, kappa = p^ceil(L / e).  A shell is its
ball less the next one, so a uniform point of the shell of valuation
s0 + k has the phase law (q U_k - U_{k+1}) / (q - 1), U_k uniform on H_k.
``_residue_law`` mixes the L shell laws s0 .. s0 + L - 1 by their jump
masses into one kappa-entry law with exact rational weights, and
``mc_characteristic`` draws each jump as its phase from it, sums the
phases along each path, and forms its estimate from the kappa-bin
histogram of the path totals mod kappa: O(n) integer work and complex
work on at most kappa residues.  Both samplers share one block loop,
``_path_sums``, driven by the law's sampler.  It deals the drawn jumps
round by round: the paths are ranked by count, largest first, ties in
draw order, and round r hands jump r to every path with more than r jumps,
so the paths of a round are a prefix of the ranked slots and each path
total is a run of contiguous slice adds, with no prefix sum.  The counts
and the jumps are independent and the jumps exchangeable (Kingman 1993,
ch. 5), so this assignment, blind to the values drawn, gives each path its
compound-Poisson law.  ``mc_characteristic`` reads the totals in rank
order, as its histogram ignores order; ``sample_endpoints`` returns the
states in draw order, beside their counts, put back with one stable
argsort of the counts.  A law with a single value needs no jump draws: a
path of N jumps sums to N times that value, so its sums are read from the
counts alone.  ``sample_counts`` draws only the counts, the first draws of
the stream ``_path_sums`` reads, so a reader of the counts alone (the
Poisson test) gets the same counts with no jump drawn and no endpoint
formed.

Jump shells, jump phases and the per-path jump counts come from one
integer inverse-cdf sampler, ``_sampler``, whose guide table holds the
drawn values themselves (a shell's first coset index, a phase, or a
count), so a draw needs no lookup after it.  The cdf breakpoints alone fix
that table: each value fills the run of buckets between its breakpoints,
one ``np.repeat``, and a bucket that a breakpoint splits is marked for the
search.  A guide has at most 2^16 buckets, so a draw reads a 16-bit chunk
of a raw Philox word and a word serves four draws; only the draws whose
chunk falls in a marked bucket read a fresh word for the rest of their
53-bit uniform.  The law is exactly that of inverting the cdf rounded up to
multiples of 2^-53, as ``Generator.choice`` does; the stream is the
sampler's own, and the same whichever values it hands out.  The counts are
drawn on a Poisson(rate * t) table.  A jump law and its jump sampler are
kept in the cache of its level under (alpha, cutoff), a phase law under
(alpha, L), and a count sampler under the Poisson mean rate * t it draws
from: each is built once, and two laws whose rates differ in the last bits
never share a count table.

The truncation is also exact in law for characteristic-function purposes:
a label of valuation -L pairs trivially with every shell past s0 + L - 1
(its phase subgroup H_L is trivial), so once the cutoff covers that shell
the truncated process has exactly the characteristic function
exp(-t ||label||^alpha) of the full one.  ``mc_characteristic`` keeps only
the shells the label can see, s0 through that boundary shell: the jumps
past it are an independent Poisson process of phase 0 (Kingman 1993, 5.1),
so dropping them leaves every path's phase sum unchanged in law.

The jump counts of a path are Poisson(rate * t); ``poisson_gof_pvalue``
tests them with a chi-square statistic, its Poisson and chi-square laws
written with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox  # numpy loads numpy.random lazily: pay it at import

from .funcspace import MAX_DIGIT_ENTRIES, BallQuotient
from .vladimirov import _eigenvalue, _jump_shell_masses

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
# quarter as many raw words
_BLOCK_DRAWS = 1 << 13


@dataclass(frozen=True)
class JumpLaw:
    """Truncated jump distribution on a ball quotient.

    ``quotient`` resolves the group down to pi^(cutoff+1), so every kept
    shell splits into whole cosets.  ``shell_masses`` holds the jump masses
    of the shells s0 .. cutoff, and ``rate``, their fsum, is the total jump
    intensity: a jump lands in a shell with probability its mass over the
    rate, and then on a uniform coset of that shell.  Its jump sampler
    (``_jump_sampler``) draws it so, shell first, and is kept in its
    level's cache, keyed by ``(alpha, cutoff)`` as the law itself is, and
    its count samplers by their Poisson mean rate * t.
    """

    alpha: float
    cutoff: int
    quotient: BallQuotient
    rate: float
    shell_masses: tuple = field(repr=False)

    @property
    def level(self):
        return self.quotient.level


def build_jump_law(level, alpha, cutoff_valuation):
    """Truncate the jump measure of the operator to shells of valuation
    at most ``cutoff_valuation``.

    The law keeps the shells s0 .. cutoff and errors out when the cutoff
    excludes even the outermost shell.  It holds the J shell masses and no
    per-coset array, and is built once per (alpha, cutoff) and kept in the
    level's cache.
    """
    _check_positive(alpha, "the operator exponent")
    cutoff_valuation = int(cutoff_valuation)
    if cutoff_valuation < level.s0:
        raise ValueError(
            f"cutoff valuation {cutoff_valuation} excludes every jump shell "
            f"(shells start at {level.s0})"
        )

    def build():
        quotient = BallQuotient(level, level.s0, cutoff_valuation + 1)
        masses = tuple(_jump_shell_masses(level, alpha, range(level.s0, cutoff_valuation + 1)))
        return JumpLaw(float(alpha), cutoff_valuation, quotient, math.fsum(masses), masses)

    return level._memo(("jump_law", float(alpha), cutoff_valuation), build)


def _rng(seed, stream):
    return Generator(Philox(key=[int(seed), int(stream)]))


def _check_positive(value, name):
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _guide_table(probs, values):
    """(cdf53, m, guide): integer inverse-cdf tables of the law with
    weights ``probs``, whose guide holds ``values``, one per weight.

    A 53-bit uniform u53 (u = u53 2^-53, as numpy's ``choice`` makes it from
    a raw word) draws index g when cdf[g - 1] <= u < cdf[g].  Scaling by 2^53
    is exact, so cdf[g] <= u exactly when cdf53[g] <= u53 for cdf53 =
    ceil(cdf 2^53).  ``guide`` is an indexed search table (Chen & Asau 1974,
    Devroye 1986 III.2.4) on M = 2^m = min(2^16, the least power of two
    >= 16 len(probs)) buckets keyed by the top m bits of u53, the only array
    here that is M long.  The breakpoints alone fix it: with W = 2^(53 - m)
    values of u53 a bucket, ``values[g]`` fills the run of buckets
    ceil(cdf53[g - 1] / W) .. ceil(cdf53[g] / W) - 1 (cdf53[-1] read as 0),
    and each breakpoint b that W does not divide then marks its bucket
    b >> (53 - m) as -1, as two entries share it.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf53 = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
    m = min((16 * cdf.size - 1).bit_length(), 16)
    shift = 53 - m
    ends = -(-cdf53 >> shift)  # ceil(cdf53 / W): the bucket after each value's run
    guide = np.repeat(values, np.diff(ends, prepend=0))
    guide[cdf53[cdf53 & ((1 << shift) - 1) != 0] >> shift] = -1
    return cdf53, m, guide


def _sampler(probs, values):
    """draw(rng, n): n draws of ``values``, value g with weight ``probs[g]``,
    exactly P(g) = (cdf53[g] - cdf53[g-1]) 2^-53 each; ``values`` are
    nonnegative int64s, one per weight.  ``draw.only`` is the value of the
    one nonzero weight, when there is just one, and None otherwise.

    A draw reads one 16-bit chunk of a raw word, so a word serves four
    draws.  Each block of ``_BLOCK_DRAWS`` draws takes its words first and
    splits them low chunk first; the chunks left over in its last word are
    dropped.  A chunk's top m <= 16 bits pick a bucket of the M-long guide of
    ``_guide_table``, which holds the values themselves, so a bucket that
    one value fills gives that value with no lookup.  A draw in a -1 bucket
    then takes one fresh word f, in draw order: its uniform
    u53 = (bucket << (53 - m)) | (f >> (11 + m)) is searched in cdf53, and
    gives the value at the index found.  The words read, and so the stream,
    do not depend on ``values``.
    """
    cdf53, m, guide = _guide_table(probs, values)

    def draw(rng, n):
        raw = rng.bit_generator.random_raw
        out = np.empty(n, dtype=np.int64)
        for a in range(0, n, _BLOCK_DRAWS):
            k = min(_BLOCK_DRAWS, n - a)
            # little-endian, so the split is the same on any host
            bucket = raw(-(-k // 4)).astype("<u8", copy=False).view("<u2")[:k] >> (16 - m)
            g = guide.take(bucket)
            tied = np.flatnonzero(g < 0)
            u53 = (bucket[tied].astype(np.uint64) << (53 - m)) | (raw(tied.size) >> (11 + m))
            g[tied] = values.take(cdf53.searchsorted(u53.view(np.int64), side="right"))
            out[a : a + k] = g
        return out

    draw.only = int(values[probs.nonzero()[0][0]]) if np.count_nonzero(probs) == 1 else None
    return draw


def _jump_sampler(law):
    """The law's sampler of jump coset indices, built once.

    In block order the shell of valuation cutoff - k is the index run
    [q^k, q^(k+1)).  So each block of ``_BLOCK_DRAWS`` jumps draws its
    shells first, through ``_sampler`` on the shell masses with the run
    starts q^k as values, and then one uniform integer in each drawn run.
    A block reads the same words whether ``draw`` is called once or once a
    block.  ``draw.only`` is 1 on the law of one coset (q = 2, one shell)."""

    def build():
        q, J = law.quotient.q, law.quotient.J
        shell = _sampler(np.array(law.shell_masses), np.array([q**k for k in range(J)][::-1]))

        def draw(rng, n):
            out = np.empty(n, dtype=np.int64)
            for a in range(0, n, _BLOCK_DRAWS):
                start = shell(rng, min(_BLOCK_DRAWS, n - a))
                out[a : a + start.size] = rng.integers(start, start * q)
            return out

        draw.only = 1 if law.quotient.size == 2 else None
        return draw

    return law.level._memo(("jump_sampler", law.alpha, law.cutoff), build)


def _residue_law(level, alpha, L, kappa):
    """(rate, draw): the total rate of the jump shells s0 .. s0 + L - 1
    and a sampler of one jump's phase for a label of valuation -L, an
    integer mod kappa = p^n, n = ceil(L / e).  Built once per (alpha, L).

    The phases of the ball pi^(s0 + k) O are uniform on H_k, the multiples
    of p^a_k, a_k = n + floor((k - L) / e), so its shell's phase law
    (q U_k - U_{k+1}) / (q - 1) (see the module docstring) gives a residue
    of p-valuation i (i = n for 0) the exact weight
    (q p^a_k [i >= a_k] - p^a_{k+1} [i >= a_{k+1}]) / ((q - 1) kappa).
    None is negative, as a_{k+1} <= a_k + 1 and p <= q, so a residue's
    probability, the fsum of the shell masses times their weights, suffers
    no cancellation, and is exactly 0 where every weight is."""

    def build():
        p, q, n = level.p, level.q, -(-L // level.e)
        masses = _jump_shell_masses(level, alpha, range(level.s0, level.s0 + L))
        a = [n + (k - L) // level.e for k in range(L + 1)]
        probs = np.empty(kappa)
        for i in range(n + 1):  # the multiples of p^i; those of p^(i+1) are overwritten next
            probs[:: p**i] = math.fsum(
                m * float(Fraction(q * p**lo * (i >= lo) - p**hi * (i >= hi), (q - 1) * kappa))
                for m, lo, hi in zip(masses, a, a[1:])
            )
        return math.fsum(masses), _sampler(probs, np.arange(kappa))

    return level._memo(("residue_law", float(alpha), L), build)


def _poisson_table(lam):
    """(probs, counts): the Poisson(lam) law on the counts k_lo..k_hi,
    scaled to 1 at the mode.  Each tail left out holds < 2^-53 of the mass by
    Bennett's bounds P(N >= lam + x) <= exp(-x^2 / (2 (lam + x/3))) and
    P(N <= lam - x) <= exp(-x^2 / (2 lam)), so the table has O(sqrt lam)
    entries.  The log-probabilities are summed outward from the mode, so no
    entry underflows however large lam is.  The table is held to 1/16 of
    the digit-matrix budget; its guide has at most 2^16 buckets."""
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
    return np.exp(logs), ks.astype(np.int64)


def _count_sampler(level, lam):
    """The sampler of Poisson(lam) jump counts, lam = rate * t, built once
    per mean and kept in the level's cache under lam itself: ``_sampler``
    on the table of ``_poisson_table``, whose values are the counts."""
    return level._memo(("count_sampler", lam), lambda: _sampler(*_poisson_table(lam)))


def _check_paths(n_paths, per_path):
    if n_paths * per_path > MAX_DIGIT_ENTRIES:
        raise ValueError("n_paths too large: its per-path arrays exceed the size budget")


def _path_sums(level, law_of, t, n_paths, seed, stream, rows):
    """(sums, counts) for n_paths paths on [0, t] of the law that
    ``law_of()`` builds or finds in the cache of ``level`` as (rate, draw):
    counts are the Poisson(rate * t) jump counts of the paths in draw
    order, and sums[:, i] sums the rows of the values drawn for the path
    of rank i, the paths ranked by count, largest first, ties in draw
    order.  Both come from one stream: first the n_paths counts from the
    count sampler of the mean rate * t, then every jump from ``draw``, in
    blocks of ``_BLOCK_DRAWS`` jumps however the paths fall.  The two
    readers draw different values: ``sample_endpoints`` a coset index per
    jump, drawn shell first by ``_jump_sampler`` and summed as the D
    base-p digit rows of the index, and ``mc_characteristic`` a phase per
    jump from the closed-form phase law of ``_residue_law``, one row, whose
    path sum mod kappa has the law of the endpoint's phase, as the
    character is a homomorphism and a jump's phase law is the Haar
    push-forward of its shell.  ``rows(values)`` gives the R x k array of
    summand rows of a block of k drawn values.

    The jumps are laid out round by round: round r holds jump r of every
    path with more than r jumps, in rank order, so the paths of a round
    are the first slots and each path total is built from contiguous
    slice adds.  Counts and jumps are independent and the jumps
    exchangeable, so any assignment blind to the drawn values gives the
    paths the same law.  The rounds between two consecutive distinct
    counts have one width, the number of paths whose count reaches the
    larger, so the rounds are walked as runs read off a bincount over
    [min count, max count], inside the count table's support: a block's
    draws in a run are a partial round at each end and the whole rounds
    between, summed as one (rounds x width) array.  The Python steps are
    O(blocks + distinct counts), whatever the largest count.  A sampler
    whose law has a single value (``draw.only``) draws no jumps: the slot
    of rank i sums its count times that value's rows.

    The per-path arrays stay within 2 R + 5 int64 entries a path: here
    the counts, their shifted copy for the bincount and the R rows of
    sums; then what the readers add, in
    ``sample_endpoints`` a copy of the sums, the indices and a carry row
    in ``index_of_digits``, then the argsort of the counts that puts the
    states back in draw order, its key and the states, or in
    ``mc_characteristic`` the histogram fold (the totals mod kappa, or a
    bincount at most n_paths + kappa long).  An n_paths whose peak exceeds
    the entry budget is refused before any draw or table is built."""
    n_rows = len(rows(np.empty(0, dtype=np.int64)))
    _check_paths(n_paths, 2 * n_rows + 5)
    rate, draw = law_of()
    rng = _rng(seed, stream)
    counts = _count_sampler(level, rate * t)(rng, n_paths)
    if draw.only is not None:
        # the slot of rank i holds the i-th largest count times the value's
        # rows, which are nonnegative, so each row sorts as the counts do;
        # sorted descending in place, with no second per-path array
        sums = rows(np.array([draw.only])) * counts
        np.negative(sums, out=sums)
        sums.sort(axis=1)
        return np.negative(sums, out=sums), counts
    sums = np.zeros((n_rows, n_paths), dtype=np.int64)
    total = int(counts.sum())
    if not total:
        return sums, counts
    # (width, jumps) of each run: the rounds from the previous distinct
    # count up to the next, as wide as the paths whose count reaches it
    low = int(counts.min())
    hits = np.bincount(counts - low)
    (tops,) = np.nonzero(hits)
    runs, reach, below = [], n_paths, 0
    for top, paths in zip((tops + low).tolist(), hits[tops].tolist()):
        runs.append((reach, reach * (top - below)))
        reach -= paths
        below = top
    runs = iter(runs)
    width = left = slot = 0  # the run being filled, its jumps still to come, the next slot
    for a in range(0, total, _BLOCK_DRAWS):
        k = min(_BLOCK_DRAWS, total - a)
        values = rows(draw(rng, k))
        j = 0
        while j < k:
            while not left:
                width, left = next(runs)
            m = min(k - j, left)
            # the rest of the current round, then whole rounds, then a partial one
            first = min(width - slot, m)
            sums[:, slot : slot + first] += values[:, j : j + first]
            whole, tail = divmod(m - first, width)
            j += first
            if whole:
                # einsum sums over the rounds at a few ns a value however
                # narrow the run; sum(axis=1) takes 10 ns at width 2
                rounds = values[:, j : j + whole * width].reshape(n_rows, whole, width)
                sums[:, :width] += np.einsum("rwk->rk", rounds)
                j += whole * width
            if tail:
                sums[:, :tail] += values[:, j : j + tail]
                j += tail
            left -= m
            slot = (slot + m) % width
    return sums, counts


def sample_endpoints(law, t, n_paths, seed, stream=0):
    """Endpoints of n_paths independent trajectories at time t.

    Returns (states, counts): the final coset index of each path and its
    jump count, both in draw order.  Jump counts are Poisson(rate * t);
    endpoints are the group sums of the jumps, one digit-sum normalisation
    per path, with digit t of a jump's index g read as g // p^(D-1-t) mod
    p.  ``_path_sums`` hands the sums over in rank order, and one stable
    argsort of the counts, largest first, puts the states back.  A law
    whose coset indices overflow int64 is refused before anything is drawn.
    """
    _check_positive(t, "time horizon")
    quotient, p = law.quotient, law.quotient.p
    if quotient.size + p >= 1 << 63:
        raise ValueError("jump law too large: its coset indices overflow int64")
    powers = p ** np.arange(quotient.D - 1, -1, -1, dtype=np.int64)[:, None]
    sums, counts = _path_sums(law.level, lambda: (law.rate, _jump_sampler(law)), t, n_paths,
                              seed, stream, lambda g: g // powers % p)
    states = np.empty(n_paths, dtype=np.int64)
    states[np.argsort(-counts, kind="stable")] = quotient.index_of_digits(sums)
    return states, counts


def sample_counts(law, t, n_paths, seed, stream=0):
    """The Poisson(rate * t) jump counts of n_paths independent
    trajectories on [0, t]: the counts ``sample_endpoints`` returns on the
    same (seed, stream), bit for bit, as they are the first draws of its
    stream; no jump is drawn and no endpoint formed.  The per-path arrays
    are the counts and a reader's copy of them (``poisson_gof_pvalue``
    clips one), held to the entry budget before any draw."""
    _check_positive(t, "time horizon")
    _check_paths(n_paths, 2)
    return _count_sampler(law.level, law.rate * t)(_rng(seed, stream), n_paths)


def mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream=0):
    """Monte Carlo estimate of the characteristic function at a label of
    the given pi-valuation -L.

    The jumps are those of the shells s0 .. s0 + L - 1, out to the boundary
    shell, the last one the label pairs nontrivially with, so the
    truncation is exact in law and the estimate targets
    exp(-t ||label||^alpha) with no truncation bias.  Returns (estimate,
    stderr).  Each jump is drawn as its phase for the label, an integer
    mod kappa = p^ceil(L / e), from the closed-form law of ``_residue_law``:
    the Haar push-forward of each shell through the pairing, which the
    different fixes.  So no quotient, no pairing table and no per-coset
    array is formed.  The counts and the phases come from the shared
    ``_path_sums``, and the estimate and its standard error from the
    kappa-bin histogram of the path totals (``_histogram_estimate``).  The
    law is kept in the level's cache under (alpha, L), and is charged 16
    entries per residue against the size budget before anything is built.
    """
    L = -int(lam_valuation)
    if L <= 0:
        raise ValueError("label must lie outside the unit ball")
    _check_positive(alpha, "the operator exponent")
    _check_positive(t, "time horizon")
    if n_paths < 2:
        raise ValueError("a standard error needs at least two paths")
    # p^ceil(L / e), its exponent capped where every p >= 2 is refused
    # anyway, so a deep label forms no huge power before it is refused
    kappa = level.p ** min(-(-L // level.e), MAX_DIGIT_ENTRIES.bit_length())
    if 16 * kappa > MAX_DIGIT_ENTRIES:
        raise ValueError("label too deep: its phase table exceeds the size budget")
    (total,), _ = _path_sums(level, lambda: _residue_law(level, alpha, L, kappa), t, n_paths,
                             seed, stream, lambda v: v[None])
    return _histogram_estimate(total, kappa)


def _histogram_estimate(total, kappa):
    """(estimate, stderr) of the mean of omega^total over n paths, omega =
    exp(2 pi i / kappa), from the paths' nonnegative integer phase totals.

    A path's value depends only on its total mod kappa, so the totals are
    folded into a kappa-bin histogram h: estimate = sum_r h_r omega^r / n
    and stderr = sqrt(sum_r h_r |omega^r - estimate|^2 / ((n - 1) n)), the
    per-path formulas with each value counted once per residue.  Where
    the largest total keeps the bincount of the totals themselves at most
    n + kappa long, its rows of kappa are summed, with no per-path
    division; otherwise the totals are taken mod kappa first.  O(n)
    integer work, then complex work on the residues that occur.
    """
    n = total.size
    top = int(total.max())
    if top < n + kappa:
        rows = top // kappa + 1
        h = np.bincount(total, minlength=rows * kappa).reshape(rows, kappa).sum(axis=0)
    else:
        h = np.bincount(total % kappa, minlength=kappa)
    (residues,) = np.nonzero(h)
    hits = h[residues]
    z = np.exp((2j * np.pi / kappa) * residues)
    estimate = (hits @ z) / n
    stderr = float(np.sqrt((hits @ (np.abs(z - estimate) ** 2)) / ((n - 1) * n)))
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

