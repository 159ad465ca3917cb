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
* **hypersingular route** -- integrate the increment phi(z - x) - phi(z)
  against the explicit radial kernel over the standard ball pi^{s0} O.  Its
  weight W(v) is constant on each shell {v_pi(x) = v}, s0 <= v < s, and phi
  sums to S_v - S_{v+1} over a shell around z, where S_k = q^(s-k) P_k phi.

Their agreement on every function is the discrete form of the classical
identity between the multiplier and its hypersingular kernel (the Haar
wavelet diagonalisation of Vladimirov-type operators).  The kernel combines
a power of the norm with the additive constant kappa that accounts for the
finite total mass of the ball.

Both routes reduce to at most s - s0 + 1 coefficients, which are built as
plain Python floats; the work on the values is one ``radial_apply``
cascade: block sums by repeated reduction, then from the coarsest radius
down a scaled copy of each level's sums plus the coarser level broadcast
over its q sub-blocks, three numpy calls per radius and O(|G|) in all.

All routes work on a BallQuotient with lo <= s0 <= s, which is exactly the
condition for the ball convolution to stay inside the quotient.
"""

from __future__ import annotations

import math

import numpy as np

from .funcspace import _transform

__all__ = [
    "kernel_constant",
    "kernel_kappa",
    "spectral_multiplier",
    "hypersingular_weights",
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


def kernel_constant(level, alpha):
    """Normalizing constant of the hypersingular kernel (negative for
    alpha > 0): q^(d alpha / m) (1 - q^(alpha/m)) / (1 - q^(-1-alpha/m))."""
    q = float(level.q)
    a_m = float(alpha) / level.m
    return q ** (level.d * a_m) * (1.0 - q**a_m) / (1.0 - q ** (-1.0 - a_m))


def kernel_kappa(level, alpha):
    """Additive constant of the kernel: the finite-mass correction
    (1 - 1/q) / (q^(alpha/m) - 1) * q^(-d (1 + alpha/m))."""
    q = float(level.q)
    a_m = float(alpha) / level.m
    return (1.0 - 1.0 / q) / (q**a_m - 1.0) * q ** (-level.d * (1.0 + a_m))


def spectral_multiplier(quotient, alpha):
    """Eigenvalue vector over the dual labels: ||b||**alpha, zero on labels
    of nonnegative valuation (they annihilate the standard ball)."""
    _check_domain(quotient)
    dual = quotient.dual()
    # the dual shells of valuation s0-s..-1, then zeros for valuations
    # 0..s0-lo-1 and the zero label
    val = np.arange(dual.lo, 0, dtype=np.float64)
    norm_power = float(quotient.p) ** (-val * float(alpha) / quotient.level.e)
    return dual.from_shells(np.concatenate([norm_power, np.zeros(dual.s + 1)]))


def _kernel(quotient, alpha):
    """(s0, prefactor, weight): the level's s0, the kernel constant times
    the module of the level degree times the Haar volume of one coset, and
    the kernel weight p^((m + alpha)(v/e - c)) + kappa on the shell of
    pi-valuation v."""
    s0 = _check_domain(quotient)
    lvl = quotient.level
    prefactor = (
        kernel_constant(lvl, alpha)
        * float(lvl.p) ** (lvl.c * lvl.m)
        * float(quotient.q) ** (-quotient.s)
    )
    a, kappa = float(alpha), kernel_kappa(lvl, alpha)
    return s0, prefactor, lambda v: float(lvl.p) ** ((lvl.m + a) * (v / lvl.e - lvl.c)) + kappa


def hypersingular_weights(quotient, alpha):
    """(prefactor, weights): psi(z) = prefactor * sum_x w_x (phi(z - x) - phi(z)).

    Weights live on the shells inside the standard ball (zero elsewhere and
    on the zero coset); the prefactor collects the kernel constant, the
    module of the level degree, and the Haar volume of one coset.
    """
    s0, prefactor, weight = _kernel(quotient, alpha)
    inside = weight(np.arange(s0, quotient.s, dtype=np.float64))
    per_shell = np.concatenate([np.zeros(s0 - quotient.lo), inside, [0.0]])
    return prefactor, quotient.from_shells(per_shell)


def _radius_eigenvalues(quotient, alpha):
    """(s0, [lambda_k for k = s0..s]): the eigenvalue on labels of
    valuation s0 - k, as plain floats."""
    s0 = _check_domain(quotient)
    lvl = quotient.level
    p, a = float(lvl.p), float(alpha)
    return s0, [0.0] + [p ** (r * a / lvl.e) for r in range(1, quotient.s - s0 + 1)]


def _radial_multiplier(quotient, values, s0, lam):
    """Multiply the labels of radius k by lam[k - s0] (all labels of radius
    <= s0 for k = s0): sum_k (lam_k - lam_{k+1}) P_k phi, lam_{s+1} = 0."""
    # the negated forward difference -(lam_{k+1} - lam_k): where it is zero
    # it is -0.0, and the sign of exact zeros in the rendered output
    # depends on it
    coeffs = [-(b - a) for a, b in zip(lam, lam[1:] + [0.0])]
    return quotient.radial_apply(values, s0, coeffs)


def apply_spectral(quotient, values, alpha):
    """Multiplier route: ||b||**alpha on each label, as ball averages."""
    return _radial_multiplier(quotient, values, *_radius_eigenvalues(quotient, alpha))


def apply_hypersingular(quotient, values, alpha):
    """Kernel route: integrate increments against the radial kernel,

    psi = prefactor * sum_{v=s0}^{s-1} W(v) [(S_v - S_{v+1}) - n_v phi],

    with n_v = q^(s-v) - q^(s-v-1) cosets in the shell of valuation v.
    """
    s0, prefactor, weight = _kernel(quotient, alpha)
    q, s = quotient.q, quotient.s
    coeffs = [0.0] * (s - s0 + 1)
    total = 0.0
    for i, v in enumerate(range(s0, s)):
        w = weight(float(v))
        ball = float(q) ** (s - v)  # cosets in the ball of radius v
        wb = w * ball
        coeffs[i] += wb
        coeffs[i + 1] -= wb / q
        total += w * (ball - ball / q)
    coeffs[-1] -= total
    return prefactor * quotient.radial_apply(values, s0, coeffs)


def eigenvalue_estimates(quotient, alpha):
    """Eigenvalue of each character under the kernel route.

    Every character is an exact eigenvector of the kernel form, because the
    increment factors as chi_b(z - x) - chi_b(z) = chi_b(z) (chi_b(-x) - 1)
    and chi_b(-x) = conj(chi_b(x)): the eigenvalue is the transform of the
    weights minus their sum, its value at label 0.  Annihilator labels meet
    only twiddles of exactly 1, so theirs are exactly 0.
    """
    prefactor, w = hypersingular_weights(quotient, alpha)
    sums = _transform(quotient, w)
    return prefactor * (sums - sums[0])


def semigroup_apply(quotient, values, alpha, t):
    """Heat semigroup route: damp each label by exp(-t lambda_b), as ball
    averages."""
    s0, lam = _radius_eigenvalues(quotient, alpha)
    t = float(t)
    return _radial_multiplier(quotient, values, s0, [math.exp(-t * x) for x in lam])
