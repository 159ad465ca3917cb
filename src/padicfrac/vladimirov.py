"""The fractional diffusion operator on a level: multiplier and kernel forms.

The operator of exponent alpha is radial, so on a BallQuotient it is a short
sum of ball averages, sum_k c_k P_k phi, where P_k averages phi over each
coset of pi^k O (``BallQuotient.radial_apply``).  Two independent formulas
give the coefficients:

* **spectral route** -- the labels of radius k (valuation s0 - k) have
  eigenvalue lambda_k = p^((k - s0) alpha / e) for k > s0, and 0 for k <= s0
  (they annihilate the standard ball).  P_k projects onto the labels of
  radius <= k, so c_k = lambda_k - lambda_{k+1} for k = s0..s, with
  lambda_{s0} = lambda_{s+1} = 0.  The semigroup puts exp(-t lambda_k) in
  place of lambda_k.
* **kernel route** -- the Levy-Khintchine form of the operator,
  D phi(z) = integral of (phi(z) - phi(z - x)) nu(dx), where the kernel nu
  is the jump measure of the process (Kochubei, *Pseudo-Differential
  Equations and Stochastic Processes over Non-Archimedean Fields*, 2001).
  nu is radial: its shell {v_pi(x) = v} carries the mass M_v of
  ``_jump_shell_masses``, the one place the kernel is written, spread
  evenly over the shell's cosets; only the shells s0 <= v < s of the
  standard ball pi^{s0} O carry mass.  The values of phi on the shell of
  valuation v around z average to (q P_v phi - P_{v+1} phi) / (q - 1), so
  D phi = sum_v M_v [phi - (q P_v phi - P_{v+1} phi) / (q - 1)].

Their agreement on every function is the discrete form of the classical
identity between the multiplier and its hypersingular kernel (the Haar
wavelet diagonalisation of Vladimirov-type operators).  The shell masses
are written, like the heat masses, in the eigenvalues lambda_k and the
exact 1/q, so no power of q is formed however large q is.

Both routes reduce to at most s - s0 + 1 coefficients, which depend only
on the quotient and alpha (and t, for the semigroup).  They are built once
per (quotient, alpha[, t]) and kept in the level cache, so a warm route is
one dict lookup and then its pass over the values: one ``radial_apply``
cascade: block sums by one matrix-vector product per radius, then from the
coarsest radius down a scaled copy of each level's sums plus the coarser
level repeated over its q sub-blocks, O(|G|) in all.  A single entry of a
route needs less: ``radial_at_zero`` reads the value at the zero coset off
the J + 1 shell sums.

Every route acts along the last axis of ``values``, which must hold |G|
entries: a (..., |G|) stack of functions costs one cascade, and each row
of the result is byte for byte the route applied to that row alone.

All routes work on a BallQuotient with lo <= s0 <= s, which is exactly the
condition for the ball convolution to stay inside the quotient.
"""

from __future__ import annotations

import math

import numpy as np

from .funcspace import _transform

__all__ = [
    "apply_spectral",
    "apply_hypersingular",
    "eigenvalue_estimates",
    "semigroup_apply",
]


def _check_domain(quotient):
    """The level's s0, once the quotient is known to satisfy lo <= s0 <= s."""
    s0 = quotient.level.s0
    if not (quotient.lo <= s0 <= quotient.s):
        raise ValueError(
            "operator needs a quotient with lo <= s0 <= s "
            f"(got lo={quotient.lo}, s0={s0}, s={quotient.s})"
        )
    return s0


def _eigenvalue(level, alpha, k):
    """lambda_k = p^(k alpha / e), the eigenvalue on labels of radius k
    past the standard ball, as a plain float."""
    return float(level.p) ** (k * float(alpha) / level.e)


def _jump_shell_masses(level, alpha, valuations):
    """Jump-measure mass M_w of each shell {v_pi = w}, w in valuations, in
    projection coordinates, for w at or past the standard-ball radius s0
    (the measure puts no mass below it).  With r = 1/q and k = w - s0,

        M_w = (1 - r) / (1 - r / lambda_1) [(lambda_1 - 1) lambda_k + (1 - r) r^k],

    where lambda_k = p^(k alpha / e) is the eigenvalue of ``_eigenvalue``.
    This is the kernel -C (1 - 1/q) [q^((w - ec) alpha / m) + kappa q^(ec - w)]
    of the Levy-Khintchine form, with normalizing constant C = q^(d alpha / m)
    (1 - q^(alpha/m)) / (1 - q^(-1-alpha/m)) and finite-mass correction
    kappa = (1 - 1/q) / (q^(alpha/m) - 1) q^(-d (1 + alpha/m)), written with
    q^(alpha/m) = lambda_1 and s0 = ec - d: C's factor 1 - q^(alpha/m)
    cancels kappa's denominator.  So no power of q is formed, as in the heat
    masses, and lambda_1 - 1 comes from expm1 at a small alpha.  The total
    over w >= s0 diverges: small jumps accumulate, only tails are finite.
    A mass past float range raises OverflowError, as ``_eigenvalue`` does.
    """
    # no shell, no lambda_1: an empty range cannot overflow at a large alpha
    if not valuations:
        return []
    r = 1 / level.q
    keep = 1 - r
    lam1 = _eigenvalue(level, alpha, 1)
    # lam1 - 1 loses digits only where lam1 < 2; past that expm1 would add
    # the rounding of its argument, a relative error of alpha ln(p) / e ulps
    lift = lam1 - 1 if lam1 >= 2 else math.expm1(math.log(level.p) * float(alpha) / level.e)
    scale = keep / (1 - r / lam1)
    s0 = level.s0
    masses = [
        scale * (lift * _eigenvalue(level, alpha, w - s0) + keep * r ** (w - s0))
        for w in valuations
    ]
    # lift * lambda_k overflows to inf where lambda_k alone stays in range
    if not all(map(math.isfinite, masses)):
        raise OverflowError(f"a jump shell mass at alpha = {alpha} is past float range")
    return masses


def _jump_coset_masses(quotient, alpha):
    """Jump-measure mass of one coset of each shell, in ``shell_sizes``
    order: each whole-shell mass split by ``per_coset``, 0.0 on the shells
    below s0 and on the zero coset, which is no jump.  Built once per
    (quotient, alpha), as a read-only float64 array that every reader
    shares."""

    def build():
        lvl, s = quotient.level, quotient.s
        start = min(max(quotient.lo, lvl.s0), s)
        shells = _jump_shell_masses(lvl, alpha, range(start, s))
        masses = np.array(quotient.per_coset([0.0] * (start - quotient.lo) + shells + [0.0]))
        masses.flags.writeable = False
        return masses

    return quotient._cache(("jump_cosets", float(alpha)), build)


def _radius_eigenvalues(quotient, alpha):
    """(s0, [lambda_k for k = s0..s]): the eigenvalue on labels of
    valuation s0 - k, as plain floats."""
    s0 = _check_domain(quotient)
    lvl = quotient.level
    return s0, [0.0] + [_eigenvalue(lvl, alpha, r) for r in range(1, quotient.s - s0 + 1)]


def _multiplier_coeffs(lam):
    """The coefficients of sum_k (lam_k - lam_{k+1}) P_k phi, lam_{s+1} = 0,
    which multiplies the labels of radius k by lam[k - s0] (all labels of
    radius <= s0 for k = s0)."""
    # the negated forward difference -(lam_{k+1} - lam_k): where it is zero
    # it is -0.0, and the sign of exact zeros in the rendered output
    # depends on it
    return [-(b - a) for a, b in zip(lam, lam[1:] + [0.0])]


def _spectral_coeffs(quotient, alpha):
    """(s0, coefficients) of the multiplier route as ball averages, built
    once per (quotient, alpha)."""

    def build():
        s0, lam = _radius_eigenvalues(quotient, alpha)
        return s0, _multiplier_coeffs(lam)

    return quotient._cache(("spectral", float(alpha)), build)


def apply_spectral(quotient, values, alpha):
    """Multiplier route: ||b||**alpha on each label, as ball averages."""
    return quotient.radial_apply(values, *_spectral_coeffs(quotient, alpha))


def apply_hypersingular(quotient, values, alpha):
    """Kernel route: integrate increments against the jump measure,

    psi = sum_{v=s0}^{s-1} M_v [phi - (q P_v phi - P_{v+1} phi) / (q - 1)],

    with M_v the mass of the shell of valuation v; P_s phi = phi.  The
    coefficients are built once per (quotient, alpha).
    """

    def build():
        s0 = _check_domain(quotient)
        masses = _jump_shell_masses(quotient.level, alpha, range(s0, quotient.s))
        r = 1 / quotient.q
        keep = 1 - r
        coeffs = [0.0] * (quotient.s - s0 + 1)
        for i, m in enumerate(masses):
            coeffs[i] -= m / keep
            coeffs[i + 1] += m * r / keep
        coeffs[-1] += sum(masses)
        return s0, coeffs

    return quotient.radial_apply(values, *quotient._cache(("kernel", float(alpha)), build))


def eigenvalue_estimates(quotient, alpha):
    """Eigenvalue of each character under the kernel route.

    Every character is an exact eigenvector of the kernel form, because the
    increment factors as chi_b(z) - chi_b(z - x) = chi_b(z) (1 - chi_b(-x))
    and chi_b(-x) = conj(chi_b(x)): the eigenvalue is the total of the
    per-coset jump masses, the transform's value at label 0, minus their
    transform.  Annihilator labels meet only twiddles of exactly 1, so
    theirs are exactly 0.
    """
    _check_domain(quotient)
    masses = quotient.from_shells(_jump_coset_masses(quotient, alpha))
    sums = _transform(quotient, masses)
    return sums[0] - sums


def semigroup_apply(quotient, values, alpha, t):
    """Heat semigroup route: damp each label by exp(-t lambda_b), as ball
    averages; the coefficients are built once per (quotient, alpha, t)."""
    t = float(t)

    def build():
        s0, lam = _radius_eigenvalues(quotient, alpha)
        return s0, _multiplier_coeffs([math.exp(-t * x) for x in lam])

    return quotient.radial_apply(values, *quotient._cache(("semigroup", float(alpha), t), build))
