"""Closed forms for the three measures attached to the operator.

Three measures drive everything here:

* **mu** -- the translation-invariant reference measure, normalized to give
  the standard ball of each level total mass 1; its ball and cylinder
  masses are exact rationals.
* **the heat measures** -- the transition measures of the semigroup
  exp(-t D); their level marginals have a radial density given by a finite
  shell sum, from which ball, cylinder, and coset masses follow in closed
  form.
* **the jump measure** -- the symmetric Levy measure of the associated
  process; radial again, with an explicit shell mass combining a power of
  the shell radius with the finite-mass correction kappa.

A level's heat marginal is naturally expressed in the scaled coordinate
zeta = y / m, where y is the normalized-trace projection coordinate: under
the plain trace character the scaled marginal has Fourier transform
exp(-t * symbol).  The projection-coordinate density at pi-valuation w is
q**(e c) * heat_density(level, alpha, t, w - e c); its support starts at
w = s0, the valuation of the standard ball.

Cylinder sets of index N >= 1 are the pullbacks, through the projection to
a level, of pi^(N e) times the standard ball; their mu-masses q**(-N e)
shrink with the level degree while their heat masses stay bounded below,
which is the sense in which the heat measures are singular with respect to
mu on the full tower.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .vladimirov import apply_spectral, kernel_constant, kernel_kappa

__all__ = [
    "mu_ball_mass",
    "mu_cylinder_mass",
    "heat_density",
    "heat_ball_mass",
    "heat_cylinder_mass",
    "heat_cylinder_mass_shells",
    "heat_shell_masses",
    "heat_coset_vector",
    "heat_lower_bound",
    "singularity_report",
    "levy_shell_mass",
    "levy_cutoff_valuation",
    "levy_tail_mass",
    "levy_quotient_vector",
    "levy_integral",
    "levy_integral_spectral",
    "levy_log_characteristic",
]


# ---------------------------------------------------------------------------
# the reference measure


def mu_ball_mass(level, v0):
    """Exact mass of the ball {v_pi >= v0} under the normalized measure
    (standard ball mass 1); saturates at 1 below the standard radius."""
    if v0 <= level.s0:
        return Fraction(1)
    return Fraction(1, level.q ** (v0 - level.s0))


def mu_cylinder_mass(level, N):
    """Exact mass of the index-N cylinder over this level: q**(-N e)."""
    if N < 0:
        raise ValueError("cylinder index must be nonnegative")
    return Fraction(1, level.q ** (N * level.e))


# ---------------------------------------------------------------------------
# heat measures


def _decay(level, alpha, t, j):
    # exp(-t lambda_j) for the eigenvalue attached to dual shell j; 0.0 for
    # t > 0 once lambda_j is past float range
    try:
        lam = float(level.q) ** (j * float(alpha) / level.m)
    except OverflowError:
        lam = math.inf
    return math.exp(-float(t) * lam)


def _heat_prefix(level, alpha, t, k):
    """(u, A) for j = 0..k: u[j] = exp(-t lambda_j) and the prefix sums
    A[j] = 1 + (1 - 1/q) sum_{i=1}^{j} q^i u_i, added in index order."""
    q = float(level.q)
    u = [_decay(level, alpha, t, j) for j in range(k + 1)]
    prefix = [1.0]
    for j in range(1, k + 1):
        # a decay factor of 0.0 adds nothing, and q**j may be past float range
        prefix.append(prefix[-1] + (1.0 - 1.0 / q) * q**j * u[j] if u[j] else prefix[-1])
    return u, prefix


def heat_density(level, alpha, t, w):
    """Radial density of the scaled heat marginal at pi-valuation w.

    With respect to additive Haar measure normalized by vol(O) = 1, in the
    scaled coordinate zeta (see the module docstring):

        q^{-d} [ 1 + (1 - 1/q) sum_{j=1}^{w+d} q^j u_j - q^{w+d} u_{w+d+1} ]

    with u_j = exp(-t q^(j alpha / m)); zero for w < -d.  The density is
    nondecreasing in w and integrates to exactly 1.
    """
    q = float(level.q)
    d = level.d
    if w < -d:
        return 0.0
    _, prefix = _heat_prefix(level, alpha, t, w + d)
    u_next = _decay(level, alpha, t, w + d + 1)
    acc = prefix[-1] - q ** (w + d) * u_next if u_next else prefix[-1]
    return q ** (-d) * acc


def heat_ball_mass(level, alpha, t, v0):
    """Heat mass of the scaled-coordinate ball {v_pi >= v0}:

        q^{-k0} [ 1 + (1 - 1/q) sum_{j=1}^{k0} q^j u_j ],   k0 = v0 + d,

    equal to 1 for v0 <= -d (the support fills the dual of O)."""
    q = float(level.q)
    k0 = v0 + level.d
    if k0 <= 0:
        return 1.0
    _, prefix = _heat_prefix(level, alpha, t, k0)
    return q ** (-k0) * prefix[-1]


def heat_cylinder_mass(level, alpha, t, N):
    """Heat mass of the index-N cylinder over this level (closed form)."""
    if N < 0:
        raise ValueError("cylinder index must be nonnegative")
    return heat_ball_mass(level, alpha, t, N * level.e - level.d)


def heat_cylinder_mass_shells(level, alpha, t, N, tol=1e-12):
    """Heat mass of the index-N cylinder by direct shell summation.

    Accumulates density * shell volume over scaled-coordinate shells from
    the cylinder boundary outward, stopping once the geometric tail bound
    (the density is bounded by its limit value, shells shrink by 1/q)
    drops below tol.  Slower than the closed form but shares no algebra
    with it beyond the density itself.
    """
    q = float(level.q)
    d = level.d
    # limit of the density as w -> +inf: the telescoped term dies and the
    # series converges double-exponentially
    lim = 1.0
    j = 1
    while True:
        term = (1.0 - 1.0 / q) * q**j * _decay(level, alpha, t, j)
        lim += term
        if term < 1e-18 * lim:
            break
        j += 1
    lim *= q ** float(-d)

    acc = 0.0
    w = N * level.e - d
    while lim * q ** float(-w) >= tol:
        acc += heat_density(level, alpha, t, w) * (1.0 - 1.0 / q) * q ** float(-w)
        w += 1
    return acc


def heat_shell_masses(quotient, alpha, t, whole_shells=False):
    """Heat mass of one coset on each shell of a quotient, in
    ``shell_sizes`` order: valuation lo..s-1, then the zero coset.  With
    ``whole_shells``, the mass of each whole shell, formed without the coset
    count or the per-coset mass, which may be past float range.

    Cosets are given in the projection coordinate, so the scaled density
    enters shifted by e*c; the zero coset collects the whole ball mass
    {v_pi >= s}.  For lo <= s0, sum(shell_sizes() x masses) is 1.
    """
    lvl = quotient.level
    q = float(lvl.q)
    d, ec = lvl.d, lvl.e * lvl.c
    cell = q ** float(-quotient.s)
    # the density at w is q^-d (A[k] - q^k u_{k+1}) with k = w + d, and the
    # ball mass of {v_pi >= v0} is q^-k0 A[k0] with k0 = v0 + d
    k0 = quotient.s - ec + d
    u, prefix = _heat_prefix(lvl, alpha, t, k0)
    per_shell = []
    for w in range(quotient.lo, quotient.s):
        k = w - ec + d
        tail = q**k * u[k + 1] if k >= 0 and u[k + 1] else 0.0
        density = q ** (-d) * (prefix[k] - tail) if k >= 0 else 0.0
        scale = (1.0 - 1.0 / q) * q ** float(-w) if whole_shells else cell
        per_shell.append(q**ec * density * scale)
    per_shell.append(q ** (-k0) * prefix[k0] if k0 > 0 else 1.0)
    return per_shell


def heat_coset_vector(quotient, alpha, t):
    """Heat mass of every coset, in index order: ``heat_shell_masses`` gathered."""
    return quotient.from_shells(heat_shell_masses(quotient, alpha, t))


def heat_lower_bound(level, alpha, t, N):
    """Keep only the outermost shell of the cylinder mass:

        (1 - 1/q) exp(-t p^(alpha N)),

    a level-uniform floor under heat_cylinder_mass."""
    return (1.0 - 1.0 / float(level.q)) * math.exp(
        -float(t) * float(level.p) ** (float(alpha) * N)
    )


def singularity_report(tower, alpha, t, N):
    """Per-level comparison of cylinder masses under mu and under heat.

    Returns a list of dicts with the exact mu mass, the heat mass, the
    shell lower bound, and the mass ratio; the ratio grows without bound
    along any tower whose degrees go to infinity, while the mu masses
    vanish -- the two measures separate.
    """
    rows = []
    for n, lvl in enumerate(tower, start=1):
        mu = mu_cylinder_mass(lvl, N)
        pi = heat_cylinder_mass(lvl, alpha, t, N)
        if not float(mu):  # q^(-N e) below float range puts the ratio past it
            raise OverflowError(f"the invariant cylinder mass of level {n} underflows")
        ratio = pi / float(mu)
        rows.append(
            {
                "n": n,
                "degree": lvl.m,
                "mu": mu,
                "heat": pi,
                "lower_bound": heat_lower_bound(lvl, alpha, t, N),
                "ratio": ratio,
                "log10_ratio": math.log10(ratio),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# the jump measure


def levy_shell_mass(level, alpha, w):
    """Jump-measure mass of the shell {v_pi = w} in projection coordinates:

        -C (1 - 1/q) [ q^((w - ec) alpha / m) + kappa q^(ec - w) ],

    zero below the standard-ball radius s0.  The total over w >= s0
    diverges: small jumps accumulate, only tails are finite.
    """
    lvl = level
    if w < lvl.s0:
        return 0.0
    q = float(lvl.q)
    ec = lvl.e * lvl.c
    a_m = float(alpha) / lvl.m
    return (
        -kernel_constant(lvl, alpha)
        * (1.0 - 1.0 / q)
        * (q ** ((w - ec) * a_m) + kernel_kappa(lvl, alpha) * q ** float(ec - w))
    )


def levy_cutoff_valuation(level, delta):
    """Largest valuation w with delta <= p^(-w/e), i.e. the innermost shell
    still counted as a jump of size >= delta.  Exact rational comparison;
    delta must lie in (0, 1]."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("cutoff must lie in (0, 1]")
    num, den = (delta**level.e).as_integer_ratio()
    w = 0
    while num * level.p ** (w + 1) <= den:
        w += 1
    return w


def levy_tail_mass(level, alpha, delta):
    """Total jump-measure mass of {size >= delta}: the finite shell sum
    from s0 up to the cutoff valuation (0.0 when the cutoff lies inside
    the smallest shell)."""
    w_max = levy_cutoff_valuation(level, delta)
    return sum(levy_shell_mass(level, alpha, w) for w in range(level.s0, w_max + 1))


def levy_quotient_vector(quotient, alpha):
    """Jump-measure mass of every nonzero coset of a quotient.

    Shell mass splits evenly over the (q - 1) q^(s - w - 1) cosets of the
    shell.  The zero coset aggregates all jumps smaller than the quotient
    resolution, whose total mass diverges: its entry is +inf.
    """
    lvl = quotient.level
    q = float(lvl.q)
    per_shell = [
        levy_shell_mass(lvl, alpha, w) * q ** float(w - quotient.s) / (1.0 - 1.0 / q)
        for w in range(quotient.lo, quotient.s)
    ]
    # the zero coset is the only one of valuation s
    per_shell.append(np.inf)
    return quotient.from_shells(per_shell)


def _require_zero_at_origin(values):
    values = np.asarray(values)
    if values[0] != 0:
        raise ValueError("integrand must vanish on the zero coset")
    return values


def levy_integral(quotient, alpha, values):
    """Integrate a quotient function vanishing at the origin against the
    jump measure, coset by coset."""
    values = _require_zero_at_origin(values)
    vec = levy_quotient_vector(quotient, alpha)
    return complex(np.dot(values[1:], vec[1:]))


def levy_integral_spectral(quotient, alpha, values):
    """Same integral through the Fourier side: minus the multiplier-weighted
    sum of coefficients, -sum_b lambda_b c_b = -(D phi)(0).  Needs the
    integrand to vanish at the origin, so that its coefficients sum to
    zero."""
    values = _require_zero_at_origin(values)
    return complex(-apply_spectral(quotient, values, alpha)[0])


def levy_log_characteristic(level, alpha, lam_valuation, t=1.0, cutoff=None):
    """Log of the jump part of the characteristic function at a label of
    the given pi-valuation, by exact shell bookkeeping; with a ``cutoff``,
    of the process that keeps only the shells of valuation <= cutoff.

    Shell averages of the pairing character telescope: shells far inside
    the label's conductor average to 1, the boundary shell to -1/(q-1),
    everything outside to 0.  The result is exactly 0.0 for labels of
    nonnegative valuation and matches -t ||label||**alpha on the rest once
    the cutoff (if any) covers the boundary shell s0 + L - 1.
    """
    if lam_valuation >= 0:
        return 0.0
    L = -lam_valuation
    q = float(level.q)
    s0 = level.s0
    boundary = s0 + L - 1
    if cutoff is None:
        cutoff = boundary
    acc = sum(levy_shell_mass(level, alpha, w) for w in range(s0, min(boundary, cutoff + 1)))
    if boundary <= cutoff:
        acc += q / (q - 1.0) * levy_shell_mass(level, alpha, boundary)
    return -float(t) * acc
