"""Simulation of the jump process generated by the operator.

Truncating the jump measure at a finite size threshold leaves a finite
total rate, and the process restricted to those jumps is compound Poisson:
exponential inter-arrival times, jump values drawn shell by shell from the
truncated measure.  Everything a character can see of the running sum lives
in a finite ball quotient, so paths are simulated exactly as coset indices.
The digit system is linear, so a path state is the carry normalisation of
the summed digit vectors of its jumps: ``simulate_path`` normalises prefix
sums, ``sample_endpoints`` one digit sum per path.  The characteristic
function needs no states: a character is a homomorphism, chi_b(sum of
jumps) = prod chi_b(jump), so ``mc_characteristic`` sums the jumps' exact
integer phases mod kappa along each path and takes one exponential per
path.  Both samplers share one block loop, ``_path_sums``.

The truncation is also exact in law for characteristic-function purposes:
a label of valuation -L pairs trivially with every shell past s0 + L - 1,
so once the cutoff covers that shell the truncated process has exactly the
characteristic function exp(-t ||label||^alpha) of the full one.

The jump counts of a path are Poisson(rate * t); ``poisson_gof_pvalue``
tests them with a chi-square statistic, its Poisson and chi-square laws
written with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox  # numpy loads numpy.random lazily: pay it at import

from .funcspace import BallQuotient
from .measures import (
    levy_cutoff_valuation,
    levy_log_characteristic,
    levy_quotient_vector,
)

__all__ = [
    "JumpLaw",
    "PathSample",
    "build_jump_law",
    "simulate_path",
    "sample_endpoints",
    "mc_characteristic",
    "expected_characteristic",
    "poisson_pmf",
    "poisson_quantile",
    "chi2_sf",
    "poisson_gof_pvalue",
    "truncated_log_characteristic",
]

_BLOCK_DRAWS = 1 << 16            # jumps drawn and reduced per block


@dataclass(frozen=True)
class JumpLaw:
    """Truncated jump distribution on a ball quotient.

    ``quotient`` resolves the group down to pi^(cutoff+1), so every kept
    shell splits into whole cosets; ``coset_probs[g]`` is the probability
    that a single jump lands in coset g (zero for the zero coset), and
    ``rate`` is the total jump intensity.
    """

    alpha: float
    cutoff: int
    quotient: BallQuotient
    rate: float
    coset_probs: np.ndarray = field(repr=False)

    @property
    def level(self):
        return self.quotient.level


@dataclass(frozen=True)
class PathSample:
    """One trajectory: arrival times, jump cosets, and the running state."""

    horizon: float
    times: np.ndarray
    jumps: np.ndarray
    states: np.ndarray

    @property
    def final_index(self):
        return int(self.states[-1]) if self.states.size else 0


def build_jump_law(level, alpha, cutoff_valuation=None, delta=None):
    """Truncate the jump measure of the operator to shells of valuation
    at most ``cutoff_valuation`` (equivalently, jumps of size >= ``delta``).

    Exactly one of the two cutoffs must be given; the resulting law keeps
    the shells s0 .. cutoff and errors out when the cutoff excludes even
    the outermost shell.
    """
    if alpha <= 0:
        raise ValueError("the operator exponent must be positive")
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
    quotient = BallQuotient(level, level.s0, cutoff_valuation + 1)
    masses = levy_quotient_vector(quotient, alpha)
    probs = np.zeros_like(masses)
    probs[1:] = masses[1:]
    rate = probs.sum()
    probs /= rate
    return JumpLaw(
        alpha=float(alpha),
        cutoff=cutoff_valuation,
        quotient=quotient,
        rate=float(rate),
        coset_probs=probs,
    )


def _rng(seed, stream):
    return Generator(Philox(key=[int(seed), int(stream)]))


def _jump_sampler(law):
    """draw(rng, n): n jump cosets of the law, equal element for element to
    ``rng.choice(size, n, p=law.coset_probs)`` and leaving the generator in
    the same state.

    Same cdf and the same uniforms as numpy, but the inverse-cdf lookup uses
    a guide table (indexed search; Chen & Asau 1974, Devroye 1986 III.2.4):
    guide[k] is the answer for u = k / M, and u * M is exact for a power of
    two M, so guide[floor(u * M)] is a lower bound that a few steps finish.
    """
    cdf = law.coset_probs.cumsum()
    cdf /= cdf[-1]
    M = 1 << (16 * cdf.size - 1).bit_length()
    guide = cdf.searchsorted(np.arange(M) / M, side="right")

    def draw(rng, n):
        out = np.empty(n, dtype=np.int64)
        for a in range(0, n, _BLOCK_DRAWS):
            u = rng.random(min(_BLOCK_DRAWS, n - a))
            g = guide[(u * M).astype(np.intp)]
            live = np.flatnonzero(cdf[g] <= u)
            while live.size:
                g[live] += 1
                live = live[cdf[g[live]] <= u[live]]
            out[a : a + u.size] = g
        return out

    return draw


def simulate_path(law, t, seed, stream=0):
    """Draw one trajectory on [0, t]: exponential inter-arrival times at the
    law's rate, jump cosets from the truncated measure, states by group
    addition.  Reproducible: (seed, stream) keys a counter-based generator.

    Inter-arrival times are drawn in blocks of about rate * t plus three
    standard deviations, accumulated and cut at t, until a block crosses t.
    The arrival times are those of one draw per jump, but the draws past
    the crossing are spent, so the jumps come from a later point of the
    stream than one draw per jump would leave it at: the law of the path is
    the same, the path of a given (seed, stream) is not.
    """
    if t <= 0:
        raise ValueError("time horizon must be positive")
    rng = _rng(seed, stream)
    mean = law.rate * t
    block = int(mean + 3.0 * math.sqrt(mean)) + 1
    chunks = []
    clock = 0.0
    while True:
        arrivals = rng.exponential(1.0 / law.rate, size=block)
        arrivals[0] += clock
        np.cumsum(arrivals, out=arrivals)
        cut = int(arrivals.searchsorted(t, side="right"))
        chunks.append(arrivals[:cut])
        if cut < block:
            break
        clock = arrivals[-1]
    times = np.concatenate(chunks)
    jumps = _jump_sampler(law)(rng, times.size)
    quotient = law.quotient
    states = quotient.index_of_digits(quotient.digit_matrix[jumps].cumsum(axis=0).T)
    return PathSample(horizon=float(t), times=times, jumps=jumps, states=states)


def _path_sums(law, t, n_paths, seed, stream, columns):
    """(sums, counts) for n_paths paths of the law on [0, t]: counts are
    the Poisson jump counts and sums[:, i] the sum of columns[:, j] over
    path i's jumps j, drawn in order in blocks of whole paths holding at
    most ``_BLOCK_DRAWS`` jumps (or one path all of its own)."""
    rng = _rng(seed, stream)
    counts = rng.poisson(law.rate * t, size=n_paths)
    draw = _jump_sampler(law)
    ends = np.cumsum(counts)
    sums = np.empty((len(columns), n_paths), dtype=np.int64)
    i0 = 0
    while i0 < n_paths:
        base = ends[i0] - counts[i0]
        i1 = max(i0 + 1, int(ends.searchsorted(base + _BLOCK_DRAWS, side="right")))
        jumps = draw(rng, int(ends[i1 - 1] - base))
        end = ends[i0:i1] - base
        acc = np.zeros(jumps.size + 1, dtype=np.int64)
        for row, column in zip(sums, columns):
            # int64 wraparound in acc cancels in the differences
            np.cumsum(column[jumps], out=acc[1:])
            row[i0:i1] = acc[end] - acc[end - counts[i0:i1]]
        i0 = i1
    return sums, counts


def sample_endpoints(law, t, n_paths, seed, stream=0):
    """Endpoints of n_paths independent trajectories at time t.

    Returns (states, counts): the final coset index of each path and its
    jump count.  Jump counts are Poisson(rate * t); endpoints are the
    group sums of the jumps, one digit-sum normalisation per path.
    """
    if t <= 0:
        raise ValueError("time horizon must be positive")
    quotient = law.quotient
    columns = np.ascontiguousarray(quotient.digit_matrix.T)
    sums, counts = _path_sums(law, t, n_paths, seed, stream, columns)
    return quotient.index_of_digits(sums), counts


def mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream=0):
    """Monte Carlo estimate of the characteristic function at a label of
    the given pi-valuation.

    The cutoff is chosen so the truncation is exact in law (it covers both
    the label's size threshold and the last nontrivially-paired shell), so
    the estimate targets exp(-t ||label||^alpha) with no truncation bias.
    Returns (estimate, stderr).  The draws are those of ``sample_endpoints``
    through the shared ``_path_sums``, and each path's value is
    chi_b(endpoint), computed as the sum of its jumps' integer phases mod
    kappa: a path's own sum stays exact, as kappa divides |G| <= 2^24.
    """
    lam_valuation = int(lam_valuation)
    if lam_valuation >= 0:
        raise ValueError("label must lie outside the unit ball")
    if t <= 0:
        raise ValueError("time horizon must be positive")
    if n_paths < 2:
        raise ValueError("a standard error needs at least two paths")
    L = -lam_valuation
    cutoff = max(L, level.s0 + L - 1)
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    b = law.quotient.dual().index_of_element(level.uniformizer_pow(-L))
    phases, kappa = law.quotient.character_phases(b)
    (total,), _ = _path_sums(law, t, n_paths, seed, stream, phases[None, :])
    z = np.exp((2j * np.pi / kappa) * (total % kappa))
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
    L = -lam_valuation
    return float(np.exp(-float(t) * float(level.p) ** (L * float(alpha) / level.e)))


def poisson_pmf(k, lam):
    """P(N = k) for N ~ Poisson(lam), lam > 0."""
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_quantile(q, lam):
    """Smallest k with P(N <= k) >= q for N ~ Poisson(lam)."""
    terms = []
    while True:
        terms.append(poisson_pmf(len(terms), lam))
        if math.fsum(terms) >= q:
            return len(terms) - 1


def chi2_sf(x, df):
    """P(X >= x) for X ~ chi-square with a positive integer df: the
    regularised upper incomplete gamma Q(df/2, x/2), a finite sum built by
    Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1) from Q(0, h) = 0 or
    Q(1/2, h) = erfc(sqrt h) (Abramowitz & Stegun 26.4.4-26.4.5)."""
    if x <= 0:
        return 1.0
    h = x / 2.0
    if df % 2 == 0:
        a, total, term = 0.0, 0.0, math.exp(-h)
    else:
        a, total = 0.5, math.erfc(math.sqrt(h))
        term = 2.0 * math.sqrt(h / math.pi) * math.exp(-h)  # h^(1/2) e^-h / Gamma(3/2)
    while a < df / 2.0:
        total += term
        a += 1.0
        term *= h / a
    return total


def poisson_gof_pvalue(counts, lam):
    """Chi-square goodness-of-fit p-value of integer counts against
    Poisson(lam).  The bins are 0..k for k the 1 - 1e-6 quantile, the last
    taking the whole upper tail; the sparse upper bins are then pooled until
    the last expects at least 5 hits, and df is the bin count - 1."""
    counts = np.asarray(counts)
    n = counts.size
    kmax = poisson_quantile(1.0 - 1e-6, lam)
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
    expected = np.array([poisson_pmf(k, lam) for k in range(kmax + 1)]) * n
    expected[kmax] = n - expected[:kmax].sum()
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    return chi2_sf(stat, expected.size - 1)


def truncated_log_characteristic(law, lam_valuation, t):
    """Exact log-characteristic of the truncated process at a label of the
    given pi-valuation: the shell sum of (character average - 1) against
    the kept shell masses.  Coincides with -t ||label||^alpha once the
    cutoff covers the boundary shell s0 + L - 1.
    """
    return levy_log_characteristic(law.level, law.alpha, lam_valuation, t, cutoff=law.cutoff)
