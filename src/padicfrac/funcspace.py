"""Cylindrical functions on finite ball quotients of extension levels.

The working model for a locally constant function with bounded support is a
vector of values on the quotient G = pi^lo O / pi^s O of a level.  Cosets are
named by digit strings (rows indexed by the power of the uniformizer, columns
by residue monomials), and the whole machinery -- additive characters, Fourier
transforms, subtraction tables, measure integrals, refinement to deeper
levels -- works on those digit strings with exact rational character angles.

Cosets are listed in lexicographic digit order, row lo first.  In this block
order every coset of pi^k O is a run of q^(s-k) consecutive indices, which
``BallQuotient.radial_apply`` uses to apply radial operators in O(|G|).

The dual group of G is the quotient pi^(s0-s) O / pi^(s0-lo) O built from the
annihilator identity of the standard ball pi^{s0} O; it has the same shape
(rows x columns) as G, so characters are indexed by the digit strings of the
dual quotient in the same lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import BallCoset, ExtElement, pairing_angle, project_T

__all__ = [
    "BallQuotient",
    "CylFunction",
    "SpectralCoefficients",
    "haar_integral",
    "mu_integral",
    "fourier",
    "inverse_fourier",
    "plancherel_defect",
    "refine_function",
    "random_function",
]

MAX_CHARACTER_SIZE = 1 << 11      # largest |G| for which U is materialized
MAX_TABLE_SIZE = 1 << 12          # largest |G| for subtraction tables
_BLOCK_ENTRIES = 1 << 16          # table entries normalized per block


class BallQuotient:
    """The finite group pi^lo O / pi^s O of a level, with digit coordinates.

    Haar measure gives each coset volume q**(-s) (normalized so the ring of
    integers has volume 1); the canonical probability measure of the standard
    ball pi^{s0} O weights each coset by q**(s0 - s) instead.
    """

    def __init__(self, level, lo, s):
        if s <= lo:
            raise ValueError("need lo < s to form a nontrivial quotient")
        self.level = level
        self.lo = int(lo)
        self.s = int(s)
        self.p = level.p
        self.q = level.q
        self.f = level.f
        self.J = self.s - self.lo
        self.D = self.J * self.f
        self.size = self.p**self.D

    # -- identification ----------------------------------------------------

    def key(self):
        return (self.level.key(), self.lo, self.s)

    def __eq__(self, other):
        return isinstance(other, BallQuotient) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"BallQuotient({self.level!r}, lo={self.lo}, s={self.s}, "
            f"size={self.size})"
        )

    def _cache(self, name, builder):
        key = ("bq", name, self.lo, self.s)
        cache = self.level._cache
        if key not in cache:
            cache[key] = builder()
        return cache[key]

    # -- digit coordinates ---------------------------------------------------

    @property
    def digit_matrix(self):
        """All digit strings, one row per coset, lexicographic order."""

        def build():
            if self.size > MAX_TABLE_SIZE * MAX_TABLE_SIZE:
                raise ValueError("quotient too large to enumerate")
            cols = []
            for t in range(self.D):
                reps = self.p ** (self.D - 1 - t)
                block = np.repeat(np.arange(self.p), reps)
                cols.append(np.tile(block, self.size // (reps * self.p)))
            return np.stack(cols, axis=1).astype(np.int64)

        return self._cache("digits", build)

    def radial_apply(self, values, k0, coeffs):
        """sum_{k=k0}^{s} coeffs[k - k0] * P_k phi, where P_k phi averages
        phi over each coset of pi^k O: a block of q^(s-k) consecutive
        indices, so one reshape-mean per radius, O(|G|) in all."""
        if not self.lo <= k0 <= self.s or len(coeffs) != self.s - k0 + 1:
            raise ValueError("need one coefficient per radius k0..s, lo <= k0")
        means = [np.asarray(values, dtype=np.complex128).reshape(self.size)]
        for _ in range(self.s - k0):
            means.append(means[-1].reshape(-1, self.q).mean(axis=1))
        acc = coeffs[0] * means.pop()
        for c in coeffs[1:]:
            acc = np.repeat(acc, self.q) + c * means.pop()
        return acc

    def index_of_digits(self, digits):
        idx = 0
        for d in digits:
            idx = idx * self.p + int(d)
        return idx

    def coset(self, index):
        return BallCoset(
            self.level, self.lo, self.s, tuple(int(x) for x in self.digit_matrix[index])
        )

    def representative(self, index):
        return self.level.coset_representative(self.coset(index))

    def representatives(self):
        def build():
            return [self.representative(i) for i in range(self.size)]

        return self._cache("reps", build)

    def index_of_element(self, x):
        """Coset index of an element of pi^lo O (an ExtElement or payload)."""
        pay = x.pay if isinstance(x, ExtElement) else x
        digs = self.level.digits_in_ball(pay, self.lo, self.s)
        return self.index_of_digits(digs)

    @property
    def val_pi_vector(self):
        """Exact valuation of each coset (value of any representative that
        is outside the next smaller ball); the zero coset gets s."""

        def build():
            dig = self.digit_matrix
            rows = dig.reshape(self.size, self.J, self.f)
            nonzero = rows.any(axis=2)
            first = np.where(
                nonzero.any(axis=1), nonzero.argmax(axis=1), self.J
            )
            return self.lo + first

        return self._cache("vals", build)

    # -- dual group and characters -------------------------------------------

    def dual(self):
        s0 = self.level.s0
        return BallQuotient(self.level, s0 - self.s, s0 - self.lo)

    def _basis_elements(self, lo):
        monos = self.level._monomials()
        out = []
        for j in range(lo, lo + self.J):
            pw = self.level._pi_pow_pay(j)
            for mpay in monos:
                out.append(ExtElement(self.level, self.level._mul_pay(pw, mpay)))
        return out

    def _pairing(self):
        """(theta_int, kappa): the exact D x D table of basis pairing angles
        as integers over their common denominator kappa, a power of p.

        The angle of (b, g) is bilinear in the digit strings, so
        dig[b] @ theta_int @ dig[g] mod kappa is kappa times the angle of
        <b, g>, with no rounding.
        """

        def build():
            s0 = self.level.s0
            basis = self._basis_elements(self.lo)
            dual_basis = self._basis_elements(s0 - self.s)
            theta = [
                [pairing_angle(b, g) for g in basis] for b in dual_basis
            ]
            denom = 1
            for row in theta:
                for ang in row:
                    denom = denom * ang.denominator // math.gcd(
                        denom, ang.denominator
                    )
            kappa = denom
            k = kappa
            while k % self.p == 0:
                k //= self.p
            if k != 1:
                raise AssertionError("angle denominators must be p powers")
            theta_int = np.array(
                [[int(ang * kappa) for ang in row] for row in theta],
                dtype=np.int64,
            )
            bound = (self.D * (self.p - 1)) ** 2 * kappa
            if bound >= 1 << 62:
                raise ValueError("character table would overflow int64")
            return theta_int, kappa

        return self._cache("pairing", build)

    def character_phases(self, b=slice(None)):
        """(phases, kappa) with chi_b(g) = exp(2 pi i phases[g] / kappa) for
        dual label b (an index, or by default every label): rows of the
        character table as exact integers, O(|G| D) per row."""
        theta_int, kappa = self._pairing()
        dig = self.digit_matrix
        return (dig[b] @ theta_int @ dig.T) % kappa, kappa

    @property
    def character_matrix(self):
        """U[b, g] = chi(<b, g>) for dual label b and coset g, from the
        exact integer phases of ``character_phases``."""

        def build():
            if self.size > MAX_CHARACTER_SIZE:
                raise ValueError(
                    f"character matrix of size {self.size} refused "
                    f"(cap {MAX_CHARACTER_SIZE})"
                )
            phases, kappa = self.character_phases()
            return np.exp((2j * np.pi / kappa) * phases)

        return self._cache("U", build)

    # -- group tables ----------------------------------------------------------

    @property
    def sub_table(self):
        """int32 table: sub_table[i, j] = index of coset(rep_i - rep_j).

        Built by carry propagation: the digit-wise difference dig[i] - dig[j]
        names rep_i - rep_j, because the digit system sum d * mono * pi^j is
        linear, and ``_normalize`` brings every such integer vector back to
        digits in [0, p) with D exact expansions in all.  Rows go in blocks,
        so the temporaries stay small whatever the size of the group.
        """

        def build():
            if self.size > MAX_TABLE_SIZE:
                raise ValueError(
                    f"subtraction table of size {self.size} refused "
                    f"(cap {MAX_TABLE_SIZE})"
                )
            n = self.size
            dig = self.digit_matrix.T.astype(self._carries().dtype, order="C")
            out = np.empty((n, n), dtype=np.int32)
            rows = max(1, _BLOCK_ENTRIES // n)
            for i0 in range(0, n, rows):
                delta = dig[:, i0 : i0 + rows, None] - dig[:, None, :]
                out[i0 : i0 + rows] = self._normalize(delta.reshape(self.D, -1)).reshape(-1, n)
            return out

        return self._cache("sub", build)

    @property
    def neg_table(self):
        """neg_table[j] = index of coset(-rep_j), normalized from the
        digits of 0 - rep_j without building the subtraction table."""

        def build():
            dig = self.digit_matrix.T.astype(self._carries().dtype, order="C")
            return self._normalize(-dig)

        return self._cache("neg", build)

    def _carries(self):
        """Carry vectors, in the integer dtype normalization runs in.

        E[t] holds the digits of p * mono_mu * pi^j for basis position
        t = (j, mu): one exact expansion per position.  Since p lies in
        pi^e O, E[t] is zero in rows <= j, so carries only move deeper.
        """

        def build():
            lvl, p = self.level, self.p
            basis = self._basis_elements(self.lo)
            E = np.array(
                [lvl.digits_in_ball(lvl._smul_pay(p, b.pay), self.lo, self.s) for b in basis]
            )
            if np.tril(E).any():
                raise AssertionError("carry vectors must point to deeper rows")
            # worst |entry| while normalizing entries in [-(p-1), p-1]: a
            # position holding at most b passes on ceil(b / p) times its carry
            # vector, c * p stays below b + p, and the index below size
            bound = [p - 1] * self.D
            for t in range(self.D):
                carry = -(-bound[t] // p)
                for u in range(t + 1, self.D):
                    bound[u] += carry * int(E[t, u])
            return E.astype(np.int16 if max(*bound, self.size) + p < 1 << 15 else np.int64)

        return self._cache("carries", build)

    def _normalize(self, delta):
        """Coset indices of the integer digit vectors in the columns of
        delta (D x m, entries in [-(p-1), p-1]), which is overwritten.

        Position t keeps delta_t mod p and hands c = delta_t // p on as
        c * E[t].  This is exact because the digit system is linear, and
        one pass in position order settles everything because carries only
        move deeper and fall off past row s.  The index accumulates as
        delta @ p^(D-1-t).
        """
        E = self._carries()
        p = self.p
        idx = np.zeros(delta.shape[1], dtype=delta.dtype)
        for t in range(self.D):
            # floor division by a scalar is far cheaper than np.divmod here
            c = delta[t] // p
            idx *= p
            idx += delta[t] - c * p
            for u in np.flatnonzero(E[t]):
                delta[u] += c * E[t, u]
        return idx.astype(np.int32)

    # -- measures ------------------------------------------------------------

    @property
    def haar_coset_volume(self):
        return Fraction(self.q) ** (-self.s)

    @property
    def mu_coset_mass(self):
        return Fraction(self.q) ** (self.level.s0 - self.s)

    @property
    def mu_total_mass(self):
        return Fraction(self.q) ** (self.level.s0 - self.lo)


@dataclass
class CylFunction:
    """A cylindrical function: values on the cosets of a ball quotient."""

    quotient: BallQuotient
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.quotient.size,):
            raise ValueError("one value per coset required")


@dataclass
class SpectralCoefficients:
    """Fourier coefficients indexed by the dual quotient's cosets."""

    quotient: BallQuotient
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.quotient.size,):
            raise ValueError("one coefficient per dual label required")


def haar_integral(quotient, values):
    """Integral against additive Haar measure with vol(O) = 1."""
    return complex(np.sum(values)) * float(quotient.haar_coset_volume)


def mu_integral(quotient, values):
    """Integral against the normalized measure of the standard ball."""
    return complex(np.sum(values)) * float(quotient.mu_coset_mass)


def fourier(quotient, values):
    """Coefficients c_b = (1/|G|) sum_g conj(chi_b(g)) phi(g)."""
    U = quotient.character_matrix
    return np.conj(U) @ np.asarray(values, dtype=np.complex128) / quotient.size


def inverse_fourier(quotient, coeffs):
    """phi(g) = sum_b c_b chi_b(g)."""
    U = quotient.character_matrix
    return U.T @ np.asarray(coeffs, dtype=np.complex128)


def plancherel_defect(quotient, values):
    """|  ||phi||^2_mu  -  q^(s0-lo) sum |c_b|^2  | for the given function."""
    values = np.asarray(values, dtype=np.complex128)
    coeffs = fourier(quotient, values)
    lhs = float(quotient.mu_coset_mass) * float(np.sum(np.abs(values) ** 2))
    rhs = float(quotient.mu_total_mass) * float(np.sum(np.abs(coeffs) ** 2))
    return abs(lhs - rhs)


def refine_function(src, values, target_level):
    """Transport phi on the standard-ball quotient of one level to the
    equivalent cylindrical function on a deeper level.

    ``src`` must be a quotient of the standard ball (lo = s0) of a level that
    is a chain prefix of ``target_level``.  Returns (dst_quotient, dst_values)
    with dst_values[g] = values[index of T_n(rep_g)], the averaged projection
    identifying the two cylindrical representations.
    """
    n_level = src.level
    if src.lo != n_level.s0:
        raise ValueError("refinement expects the standard-ball quotient")
    if not n_level.is_prefix_of(target_level):
        raise ValueError("target level must extend the source level")
    values = np.asarray(values, dtype=np.complex128)
    if n_level.depth == target_level.depth:
        return src, values.copy()
    e_rel = target_level.e // n_level.e
    # smallest s with T(pi^s O_target) inside pi^{src.s} O_src; the averaged
    # projection sends the target standard ball onto the source one, and each
    # extra digit row upstairs costs e_rel rows downstairs
    t_star = target_level.s0 + e_rel * (src.s - n_level.s0)
    dst = BallQuotient(target_level, target_level.s0, t_star)

    def build_map():
        if dst.size > MAX_TABLE_SIZE * 64:
            raise ValueError("refined quotient too large")
        idx = np.empty(dst.size, dtype=np.int64)
        for g in range(dst.size):
            w = project_T(dst.representative(g), n_level)
            idx[g] = src.index_of_element(w)
        return idx

    key = ("bq", "refine", dst.lo, dst.s, n_level.depth, src.lo, src.s)
    cache = target_level._cache
    if key not in cache:
        cache[key] = build_map()
    return dst, values[cache[key]]


def random_function(quotient, rng, complex_values=True):
    """A random cylindrical function (standard normal coordinates)."""
    re = rng.standard_normal(quotient.size)
    if not complex_values:
        return re.astype(np.complex128)
    return re + 1j * rng.standard_normal(quotient.size)
