"""Closed forms for the three measures attached to the operator.

Three measures drive everything here:

* **mu** -- the translation-invariant reference measure, normalized to give
  the standard ball of each level total mass 1; its ball and cylinder
  masses are exact rationals.
* **the heat measures** -- the transition measures of the semigroup
  exp(-t D); their level marginals are radial, with closed-form masses.
* **the jump measure** -- the symmetric Levy measure of the associated
  process; radial again, with an explicit shell mass in the eigenvalues
  and the exact 1/q, as the heat masses are.  It is the kernel of the
  operator's Levy-Khintchine form, so its shell masses are written once,
  in ``vladimirov._jump_shell_masses``, which the kernel route reads too.

A level's heat marginal is naturally expressed in the scaled coordinate
zeta = y / m, where y is the normalized-trace projection coordinate: under
the plain trace character the scaled marginal has Fourier transform
exp(-t * symbol).  Its ball masses follow one recurrence inside [0, 1]
(``_heat_balls``), so no power of q is formed however large q is.  In
projection coordinates the support starts at w = s0, the valuation of the
standard ball.

Cylinder sets of index N >= 1 are the pullbacks, through the projection to
a level, of pi^(N e) times the standard ball; their mu-masses q**(-N e)
shrink with the level degree while their heat masses stay bounded below.
The unbounded mass ratio shows that the heat measure is not absolutely
continuous with respect to mu on the full tower; it does not show that
the two are mutually singular.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .funcspace import _row_dots
from .vladimirov import _eigenvalue, _jump_coset_masses, _jump_shell_masses, _spectral_coeffs

__all__ = [
    "mu_ball_mass",
    "mu_cylinder_mass",
    "heat_density",
    "heat_ball_mass",
    "heat_cylinder_mass",
    "heat_shell_masses",
    "heat_coset_vector",
    "heat_lower_bound",
    "singularity_report",
    "levy_shell_mass",
    "levy_cutoff_valuation",
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
    # exp(-t lambda_j) with lambda_j = p^(j alpha / e), the eigenvalue attached
    # to dual shell j; 0.0 for t > 0 once lambda_j is past float range
    try:
        lam = _eigenvalue(level, alpha, j)
    except OverflowError:
        lam = math.inf
    return math.exp(-float(t) * lam)


def _heat_balls(level, alpha, t, k):
    """(u, B) for j = 0..k: the decay factors u[j] = exp(-t lambda_j),
    lambda_j = p^(j alpha / e), and the heat masses B[j] of the scaled balls
    {v_pi >= j - d}, each a convex combination of the last and u[j]:

        B[0] = 1,   B[j] = B[j-1] / q + (1 - 1/q) u[j].

    The scaled shell {v_pi = j - d} carries B[j] - B[j+1], that is
    (1 - 1/q)(B[j] - u[j+1]); every term lies in [0, 1]."""
    r = 1 / level.q
    keep = 1 - r
    u = [_decay(level, alpha, t, j) for j in range(k + 1)]
    balls = [1.0]
    for j in range(1, k + 1):
        balls.append(balls[-1] * r + keep * u[j])
    return u, balls


def heat_density(level, alpha, t, w):
    """Radial density of the scaled heat marginal at pi-valuation w.

    With respect to additive Haar measure normalized by vol(O) = 1, in the
    scaled coordinate zeta (see the module docstring):

        q^{-d} [ 1 + (1 - 1/q) sum_{j=1}^{w+d} q^j u_j - q^{w+d} u_{w+d+1} ]

    with u_j = exp(-t p^(j alpha / e)); zero for w < -d.  The density is
    nondecreasing in w and integrates to exactly 1.  Kept in density units
    as the oracle the ball masses are tested against.
    """
    # q stays an int: only a product q^j u past float range raises
    q, d = level.q, level.d
    if w < -d:
        return 0.0
    k = w + d
    acc = 1.0
    for j in range(1, k + 1):
        u = _decay(level, alpha, t, j)
        # a decay factor of 0.0 adds nothing, and q**j may be past float range
        if u:
            acc += (1 - 1 / q) * q**j * u
    u = _decay(level, alpha, t, k + 1)
    if u:
        acc -= q**k * u
    return 1 / q**d * acc


def heat_ball_mass(level, alpha, t, v0):
    """Heat mass of the scaled-coordinate ball {v_pi >= v0}: B[v0 + d] of
    the ball-mass recurrence (see ``_heat_balls``), and 1 for v0 <= -d (the
    support fills the dual of O)."""
    return _heat_balls(level, alpha, t, max(v0 + level.d, 0))[1][-1]


def heat_cylinder_mass(level, alpha, t, N):
    """Heat mass of the index-N cylinder over this level (closed form)."""
    if N < 0:
        raise ValueError("cylinder index must be nonnegative")
    return heat_ball_mass(level, alpha, t, N * level.e - level.d)


def heat_shell_masses(quotient, alpha, t):
    """Heat mass of each whole shell of a quotient, in ``shell_sizes``
    order: valuation lo..s-1, then the zero coset.

    In projection coordinates the shell of valuation w is the scaled shell
    k = w - s0 of ``_heat_balls`` (empty for k < 0), and the zero coset
    collects the ball mass B[s - s0].  For lo <= s0 the masses sum to 1.
    """
    lvl, s0 = quotient.level, quotient.level.s0
    keep = 1 - 1 / lvl.q
    u, balls = _heat_balls(lvl, alpha, t, max(quotient.s - s0, 0))
    per_shell = [
        keep * (balls[k] - u[k + 1]) if k >= 0 else 0.0
        for k in range(quotient.lo - s0, quotient.s - s0)
    ]
    per_shell.append(balls[-1])
    return per_shell


def heat_coset_vector(quotient, alpha, t):
    """Heat mass of every coset, in index order; the per-coset masses of
    each shell are built once per (quotient, alpha, t)."""
    per_shell = quotient._cache(
        ("heat", float(alpha), float(t)),
        lambda: quotient.per_coset(heat_shell_masses(quotient, alpha, t)),
    )
    return quotient.from_shells(per_shell)


def heat_lower_bound(level, alpha, t, N):
    """Keep only the outermost shell of the cylinder mass:

        (1 - 1/q) exp(-t p^(alpha N)),

    a level-uniform floor under heat_cylinder_mass.  Where p^(alpha N) is
    past float range, exp(-t p^(alpha N)) is 0.0, and so is the floor."""
    try:
        power = float(level.p) ** (float(alpha) * N)
    except OverflowError:
        return 0.0
    return (1 - 1 / level.q) * math.exp(-float(t) * power)


def _reciprocal_underflows(q, k):
    """Whether float(Fraction(1, q**k)) is 0.0, that is q**k >= 2**1075.
    Read from the bit length b of q, as 2^((b-1) k) <= q^k < 2^(b k); q**k
    is formed only where those bounds leave it open, below 2^(1075 + k)."""
    b = q.bit_length()
    if (b - 1) * k >= 1075:
        return True
    if b * k <= 1075:
        return False
    return q**k >= 1 << 1075


def singularity_report(tower, alpha, t, N):
    """Per-level comparison of cylinder masses under mu and under heat.

    Returns a list of dicts with the exact mu mass, the heat mass, the
    shell lower bound, and the mass ratio.  Along any tower whose degrees
    go to infinity the mu masses vanish while the heat masses stay above
    the lower bound, so the ratio grows without bound: the heat measure is
    not absolutely continuous with respect to mu.  That does not make the
    two measures mutually singular.
    """
    rows = []
    for n, lvl in enumerate(tower, start=1):
        # q^(-N e) below float range puts the ratio past it; decided before
        # either mass is formed, as the heat mass's cost grows with N e
        if _reciprocal_underflows(lvl.q, N * lvl.e):
            raise OverflowError(f"the invariant cylinder mass of level {n} underflows")
        mu = mu_cylinder_mass(lvl, N)
        pi = heat_cylinder_mass(lvl, alpha, t, N)
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
    """Jump-measure mass of the shell {v_pi = w} in projection coordinates,
    in float range for every q (see ``vladimirov._jump_shell_masses``), zero
    below the standard-ball radius s0.  The total over w >= s0 diverges:
    small jumps accumulate, only tails are finite.
    """
    if w < level.s0:
        return 0.0
    (mass,) = _jump_shell_masses(level, alpha, [w])
    return mass


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


def _require_zero_at_origin(values):
    values = np.asarray(values)
    if np.count_nonzero(values[..., 0]):
        raise ValueError("integrand must vanish on the zero coset")
    return values


def levy_integral(quotient, alpha, values):
    """Integrate a quotient function vanishing at the origin against the
    jump measure.  The measure is radial, so the integral is the jump mass
    of one coset of each shell times the sum of the values over that shell,
    a (J + 1)-term sum once the shell sums are formed (the zero coset's
    mass is 0.0).

    ``values`` is one function or a stack of them along its last axis,
    each vanishing at the origin: a complex for one, an array over the
    leading axes for a stack, each entry the integral of its row alone."""
    values = _require_zero_at_origin(values)
    return _row_dots(quotient.shell_sums(values), _jump_coset_masses(quotient, alpha))


def levy_integral_spectral(quotient, alpha, values):
    """Same integral through the Fourier side: minus the multiplier-weighted
    sum of coefficients, -sum_b lambda_b c_b = -(D phi)(0), with (D phi)(0)
    read off the ball sums around the origin.  Needs the integrand to
    vanish at the origin, so that its coefficients sum to zero.  Takes and
    returns stacks along the last axis as ``levy_integral`` does."""
    values = _require_zero_at_origin(values)
    return -quotient.radial_at_zero(values, *_spectral_coeffs(quotient, alpha))


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
    s0 = level.s0
    boundary = s0 + L - 1
    if cutoff is None:
        cutoff = boundary
    # shells s0..boundary, or s0..cutoff when the cutoff comes first
    masses = _jump_shell_masses(level, alpha, range(s0, min(boundary, cutoff) + 1))
    acc = sum(masses[: boundary - s0])
    if boundary <= cutoff:
        acc += masses[-1] / (1 - 1 / level.q)
    return -float(t) * acc
