"""Simulation of the jump process generated by the operator.

Truncating the jump measure at a finite size threshold leaves a finite
total rate, and the process restricted to those jumps is compound Poisson:
exponential inter-arrival times, jump values drawn shell by shell from the
truncated measure.  Everything a character can see of the running sum lives
in a finite ball quotient, so paths are simulated exactly as coset indices.
Path states (``simulate_path``, ``sample_endpoints``) fold the jumps by
group addition, one table lookup per jump.  The characteristic function
needs no states: a character is a homomorphism, chi_b(sum of jumps) =
prod chi_b(jump), so ``mc_characteristic`` sums the jumps' exact integer
phases mod kappa along each path and takes one exponential per path.

The truncation is also exact in law for characteristic-function purposes:
a label of valuation -L pairs trivially with every shell past s0 + L - 1,
so once the cutoff covers that shell the truncated process has exactly the
characteristic function exp(-t ||label||^alpha) of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .funcspace import BallQuotient
from .measures import (
    levy_cutoff_valuation,
    levy_quotient_vector,
    levy_shell_mass,
)

__all__ = [
    "JumpLaw",
    "PathSample",
    "build_jump_law",
    "simulate_path",
    "sample_endpoints",
    "mc_characteristic",
    "expected_characteristic",
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
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


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


def _add_table(quotient):
    # group addition from the cached tables: i + j = i - (-j)
    return quotient.sub_table[:, quotient.neg_table]


def _fold(add, jumps):
    state = 0
    out = np.empty(len(jumps), dtype=np.int64)
    for k, j in enumerate(jumps):
        state = add[state, j]
        out[k] = state
    return out


def simulate_path(law, t, seed, stream=0):
    """Draw one trajectory on [0, t]: exponential inter-arrival times at the
    law's rate, jump cosets from the truncated measure, states by group
    addition.  Reproducible: (seed, stream) keys a counter-based generator.
    """
    if t <= 0:
        raise ValueError("time horizon must be positive")
    rng = _rng(seed, stream)
    times = []
    clock = 0.0
    while True:
        clock += rng.exponential(1.0 / law.rate)
        if clock > t:
            break
        times.append(clock)
    times = np.asarray(times, dtype=np.float64)
    jumps = _jump_sampler(law)(rng, times.size)
    states = _fold(_add_table(law.quotient), jumps)
    return PathSample(horizon=float(t), times=times, jumps=jumps, states=states)


def sample_endpoints(law, t, n_paths, seed, stream=0):
    """Endpoints of n_paths independent trajectories at time t.

    Returns (states, counts): the final coset index of each path and its
    jump count.  Jump counts are Poisson(rate * t); endpoints are the
    group sums of the jumps.
    """
    if t <= 0:
        raise ValueError("time horizon must be positive")
    rng = _rng(seed, stream)
    counts = rng.poisson(law.rate * t, size=n_paths)
    jumps = _jump_sampler(law)(rng, int(counts.sum()))
    add = _add_table(law.quotient)
    states = np.zeros(n_paths, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    # one vectorised step per jump rank k over the paths with more than k
    # jumps, adding each path's jumps in drawing order
    for k in range(int(counts.max(initial=0))):
        live = np.flatnonzero(counts > k)
        states[live] = add[states[live], jumps[starts[live] + k]]
    return states, counts


def mc_characteristic(level, alpha, lam_valuation, t, n_paths, seed, stream=0):
    """Monte Carlo estimate of the characteristic function at a label of
    the given pi-valuation.

    The cutoff is chosen so the truncation is exact in law (it covers both
    the label's size threshold and the last nontrivially-paired shell), so
    the estimate targets exp(-t ||label||^alpha) with no truncation bias.
    Returns (estimate, stderr).  The draws are those of ``sample_endpoints``
    and each path's value is chi_b(endpoint), computed as the sum of its
    jumps' integer phases mod kappa, whole paths at a time in blocks of
    about ``_BLOCK_DRAWS`` jumps.
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
    rng = _rng(seed, stream)
    counts = rng.poisson(law.rate * t, size=n_paths)
    draw = _jump_sampler(law)
    ends = np.cumsum(counts)
    total = np.empty(n_paths, dtype=np.int64)
    i0 = 0
    while i0 < n_paths:
        # paths i0 .. i1-1 hold at most _BLOCK_DRAWS jumps, or one path all
        # of its own.  int64 wraparound in acc cancels in the differences,
        # and a path's own sum stays exact: kappa divides |G| <= 2^24
        base = ends[i0] - counts[i0]
        i1 = max(i0 + 1, int(ends.searchsorted(base + _BLOCK_DRAWS, side="right")))
        jumps = draw(rng, int(ends[i1 - 1] - base))
        acc = np.zeros(jumps.size + 1, dtype=np.int64)
        np.cumsum(phases[jumps], out=acc[1:])
        end = ends[i0:i1] - base
        total[i0:i1] = acc[end] - acc[end - counts[i0:i1]]
        i0 = i1
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


def truncated_log_characteristic(law, lam_valuation, t):
    """Exact log-characteristic of the truncated process at a label of the
    given pi-valuation: the shell sum of (character average - 1) against
    the kept shell masses.  Coincides with -t ||label||^alpha once the
    cutoff covers the boundary shell s0 + L - 1.
    """
    if lam_valuation >= 0:
        lam_boundary = None
    else:
        lam_boundary = law.level.s0 - lam_valuation - 1
    q = float(law.level.q)
    acc = 0.0
    for w in range(law.level.s0, law.cutoff + 1):
        if lam_boundary is None or w > lam_boundary:
            avg = 1.0
        elif w == lam_boundary:
            avg = -1.0 / (q - 1.0)
        else:
            avg = 0.0
        acc += (avg - 1.0) * levy_shell_mass(law.level, law.alpha, w)
    return float(t) * acc
