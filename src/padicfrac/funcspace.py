"""Cylindrical functions on finite ball quotients of extension levels.

The working model for a locally constant function with bounded support is a
vector of values on the quotient G = pi^lo O / pi^s O of a level.  Cosets are
named by digit strings (rows indexed by the power of the uniformizer, columns
by residue monomials), and the whole machinery -- additive characters, Fourier
transforms, refinement to deeper levels -- works on those digit strings with
exact rational character angles.  The digit system sum d * mono * pi^j is
linear, so a coset's representative is the digit combination of the D basis
elements, and group sums and differences are digit sums:
``BallQuotient.index_of_digits`` carries any integer digit vector back to a
coset index.  Refinement uses the same linearity: the averaged projection T
is additive, so ``refine_function`` projects the D basis elements exactly
and maps every coset by an integer combination of their image digits.

Cosets are listed in lexicographic digit order, row lo first.  In this block
order every coset of pi^k O is a run of q^(s-k) consecutive indices, which
``BallQuotient.radial_apply`` uses to apply radial operators in O(|G|), and
every shell {v_pi = w} is one run too, which ``BallQuotient.shell_sums``
uses to pair a function with a radial weight in one pass.  Both act along
the last axis of their input, which must hold |G| values: a (..., |G|)
stack of functions costs one pass, and each of its rows comes out as the
function alone would.

The dual group of G is the quotient pi^(s0-s) O / pi^(s0-lo) O built from the
annihilator identity of the standard ball pi^{s0} O; it has the same shape
(rows x columns) as G, so characters are indexed by the digit strings of the
dual quotient in the same lexicographic order.
The Fourier transform sums out one digit row at a time, deepest first, with
twiddles from the exact integer pairing table: O(q J |G|) work and O(|G|)
memory, bounded only by ``check_enumerable``; no |G| x |G| character table.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .padic import ExtElement, pairing_angle, project_T

__all__ = [
    "BallQuotient",
    "fourier",
    "inverse_fourier",
    "plancherel_defect",
    "refine_function",
    "random_function",
]

MAX_DIGIT_ENTRIES = 1 << 24       # largest |G| * D held as a digit matrix


def _row_dots(rows, weights):
    """The dot product of ``weights`` with ``rows`` along its last axis: a
    complex for one row, an array over the leading axes for a stack.

    Each row is its own (1, n) @ (n,) product, the one BLAS dot a single
    row makes, so a stacked row sums in the same order as the row alone;
    BLAS reads only a contiguous row, hence the copy."""
    out = (np.ascontiguousarray(rows)[..., None, :] @ np.asarray(weights))[..., 0]
    return complex(out) if out.ndim == 0 else out


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

    def check_enumerable(self):
        """Raise ValueError unless the |G| x D digit matrix fits
        MAX_DIGIT_ENTRIES: the one size check before a per-coset table."""
        if self.size * self.D > MAX_DIGIT_ENTRIES:
            raise ValueError("quotient too large to enumerate")

    def _cache(self, name, builder):
        return self.level._memo(("bq", name, self.lo, self.s), builder)

    # -- digit coordinates ---------------------------------------------------

    @property
    def digit_matrix(self):
        """All digit strings, one row per coset, lexicographic order."""

        def build():
            self.check_enumerable()
            powers = self.p ** np.arange(self.D - 1, -1, -1)
            return np.arange(self.size, dtype=np.int64)[:, None] // powers % self.p

        return self._cache("digits", build)

    def _radial_depth(self, k0, coeffs):
        depth = self.s - k0
        if not self.lo <= k0 <= self.s or len(coeffs) != depth + 1:
            raise ValueError("need one coefficient per radius k0..s, lo <= k0")
        return depth

    def _check_stack(self, values):
        """The array ``values``, once its last axis is known to hold |G|
        entries."""
        if values.shape[-1:] != (self.size,):
            raise ValueError(f"need {self.size} values along the last axis")
        return values

    def radial_apply(self, values, k0, coeffs):
        """sum_{k=k0}^{s} coeffs[k - k0] * P_k phi, where P_k phi averages
        phi over each coset of pi^k O: a block of q^(s-k) consecutive
        indices.  ``values`` is one function or a stack of them along its
        last axis; the result has its shape.

        One descending cascade, O(|G|) in all: the block sums S_j over runs
        of q^j indices come from one matrix-vector product per radius (the
        finer sums in rows of q, times a vector of q ones), then, from the
        coarsest radius down, each level is S_j * (c_k / q^j) plus the
        coarser level repeated over its q sub-blocks.  A block never
        crosses from one function of a stack to the next.  The products
        take the stack as a (rows, blocks, q) array, one product per
        function, so each function's blocks sum as they would alone: a
        product over a single block sums its q terms in another order than
        one over many (at q = 4, a function's coarsest sum at k0 = lo
        would differ from a flat stack's).  Returns a new complex array;
        ``values`` is never written."""
        q, depth = self.q, self._radial_depth(k0, coeffs)
        # an own C-ordered copy, which the cascade scales in place: a
        # strided input then sums in the same order as a contiguous one
        out = self._check_stack(np.array(values, dtype=np.complex128, order="C"))
        ones = self._cache("ones", lambda: np.ones(q, dtype=np.complex128))
        rows, blocks = out.size // self.size, self.size
        sums = [out.reshape(-1)]
        for _ in range(depth):
            blocks //= q
            sums.append((sums[-1].reshape(rows, blocks, q) @ ones).ravel())
        # each level is dropped once the next finer one has read it
        acc = sums.pop()
        acc *= coeffs[0] / q**depth
        for j in range(depth - 1, -1, -1):
            nxt = sums.pop()
            nxt *= coeffs[depth - j] / q**j
            nxt += acc.repeat(q)
            acc = nxt
        return out

    def radial_at_zero(self, values, k0, coeffs):
        """Entry 0 of ``radial_apply(values, k0, coeffs)``, from the shell
        sums alone: the ball of radius k around the zero coset is its first
        q^(s-k) indices, whose sum is the cumulative shell sum from the zero
        coset out to valuation k.  A complex for one function, an array
        over the leading axes for a stack."""
        q, depth = self.q, self._radial_depth(k0, coeffs)
        balls = np.cumsum(self.shell_sums(values)[..., ::-1][..., : depth + 1], axis=-1)
        return _row_dots(balls, [coeffs[depth - j] / q**j for j in range(depth + 1)])

    def _representatives(self, indices):
        """The element sum_t dig[g, t] * basis_t of each coset g: the digit
        system is linear, so a coset costs at most D scaled additions."""
        lvl, dig = self.level, self.digit_matrix
        basis = [b.pay for b in self._basis_elements(self.lo)]
        out = []
        for g in indices:
            acc = lvl._zero_pay()
            for d, b in zip(dig[g].tolist(), basis):
                if d:
                    acc = lvl._add_pay(acc, lvl._smul_pay(d, b))
            out.append(ExtElement(lvl, acc))
        return out

    def representative(self, index):
        return self._representatives([index])[0]

    def representatives(self):
        return self._cache("reps", lambda: self._representatives(range(self.size)))

    def index_of_element(self, x):
        """Coset index of an element of pi^lo O (an ExtElement or payload)."""
        pay = x.pay if isinstance(x, ExtElement) else x
        return self.index_of_digits(self.level.digits_in_ball(pay, self.lo, self.s))

    def shell_sizes(self):
        """Exact coset counts (Python ints, any size) of the shells
        {v_pi = w}, w = lo..s-1: (q-1) q^(s-1-w) each; then 1, the zero coset."""
        return [(self.q - 1) * self.q ** (self.s - 1 - w) for w in range(self.lo, self.s)] + [1]

    @property
    def val_pi_vector(self):
        """Exact valuation of each coset (value of any representative that
        is outside the next smaller ball); the zero coset gets s.

        In block order the zero coset is index 0 and the shell of valuation
        s - 1 - k is the index run [q^k, q^(k+1)), so no digits are read."""

        def build():
            self.check_enumerable()
            runs = self.shell_sizes()[::-1]
            return np.repeat(np.arange(self.s, self.lo - 1, -1, dtype=np.int64), runs)

        return self._cache("vals", build)

    def from_shells(self, per_shell):
        """The per-coset vector of a radial quantity given in ``shell_sizes`` order."""
        return np.asarray(per_shell)[self.val_pi_vector - self.lo]

    def shell_sums(self, values):
        """The sum of ``values`` over each shell, in ``shell_sizes`` order,
        along the last axis: the adjoint of ``from_shells``.  In block
        order the shells are the index runs starting at 0, 1, q, ...,
        q^(J-1), zero coset first, so one ``np.add.reduceat`` over those
        starts, reversed, gives them."""
        starts = self._cache(
            "shell_starts", lambda: np.array([0] + [self.q**k for k in range(self.J)])
        )
        return np.add.reduceat(self._check_stack(np.asarray(values)), starts, axis=-1)[..., ::-1]

    def per_coset(self, per_shell):
        """Whole-shell masses split evenly over each shell's exact count."""
        inverse = self._cache("inverse_sizes", lambda: [1 / k for k in self.shell_sizes()])
        return [x * r for x, r in zip(per_shell, inverse)]

    # -- dual group and characters -------------------------------------------

    def dual(self):
        s0 = self.level.s0
        return BallQuotient(self.level, s0 - self.s, s0 - self.lo)

    def _basis_elements(self, lo):
        """The D elements mono_mu * pi^j, rows j = lo .. lo + J - 1, in digit
        order: kept in the level's cache per (lo, J), so the representatives,
        the pairing table and the carries form them once between them."""
        lvl = self.level

        def build():
            monos = lvl._monomials()
            return tuple(
                ExtElement(lvl, lvl._mul_pay(lvl._pi_pow_pay(j), mpay))
                for j in range(lo, lo + self.J)
                for mpay in monos
            )

        return lvl._memo(("bq", "basis", lo, self.J), build)

    def _pairing(self):
        """(theta_int, kappa): the exact D x D table of basis pairing angles
        as integers over their common denominator kappa, a power of p.

        The angle of (b, g) is bilinear in the digit strings, so
        dig[b] @ theta_int @ dig[g] mod kappa is kappa times the angle of
        <b, g>, with no rounding.  The product of the dual basis element
        mono_nu * pi^(s0-s+a) and the basis element mono_mu * pi^(lo+c) is
        mono_nu * mono_mu * pi^(s0-s+lo+a+c), so its angle depends on the
        row sum a + c alone: f^2 (2J - 1) exact angles fill the table.
        """

        def build():
            f, J = self.f, self.J
            basis = self._basis_elements(self.lo)
            dual_basis = self._basis_elements(self.level.s0 - self.s)
            # theta[r][nu][mu]: the angles of row sum r, read at its first
            # pair of rows (a, r - a)
            theta = []
            for r in range(2 * J - 1):
                a = max(0, r - J + 1)
                duals, gs = dual_basis[a * f:(a + 1) * f], basis[(r - a) * f:(r - a + 1) * f]
                theta.append([[pairing_angle(b, g) for g in gs] for b in duals])
            kappa = math.lcm(*(ang.denominator for plane in theta for row in plane for ang in row))
            k = kappa
            while k % self.p == 0:
                k //= self.p
            if k != 1:
                raise AssertionError("angle denominators must be p powers")
            bound = (self.D * (self.p - 1)) ** 2 * kappa
            if bound >= 1 << 62:
                raise ValueError("character table would overflow int64")
            by_sum = np.array(
                [[[int(ang * kappa) for ang in row] for row in plane] for plane in theta],
                dtype=np.int64,
            )
            rows = np.arange(J)
            # by_sum[a + c] is indexed [a, c, nu, mu]; the table by [(a, nu), (c, mu)]
            theta_int = by_sum[rows[:, None] + rows].transpose(0, 2, 1, 3).reshape(self.D, self.D)
            return theta_int, kappa

        return self._cache("pairing", build)

    def character_phases(self, b):
        """(phases, kappa) with chi_b(g) = exp(2 pi i phases[g] / kappa) for
        dual label b (an index): one row of the character table as exact
        integers.  The phase of g is linear in its digits, dig(g) @ w mod
        kappa for w = dig(b) @ theta_int, so the row is built one digit
        position at a time, most significant first, in O(|G|) with no
        digit matrix."""
        self.check_enumerable()
        theta_int, kappa = self._pairing()
        p, D = self.p, self.D
        w = np.array([b // p ** (D - 1 - t) % p for t in range(D)], dtype=np.int64) @ theta_int
        phases = np.zeros(1, dtype=np.int64)
        for w_t in (w % kappa).tolist():
            phases = (phases[:, None] + w_t * np.arange(p)).ravel() % kappa
        return phases, kappa

    # -- group law -------------------------------------------------------------

    def _carries(self):
        """carries[t] lists (u, E[t, u]) for the nonzero digits E[t] of
        p * mono_mu * pi^j, basis position t = (j, mu).  Since p lies in
        pi^e O, E[t] is zero in positions <= t (rows <= j), so carries only
        move deeper.  Multiplying by pi moves every digit one row deeper,
        so the f expansions of row lo give every row: E[t] for row lo + j
        is the row-lo expansion shifted j rows, cut at row s.
        """

        def build():
            lvl, p, f, D = self.level, self.p, self.f, self.D
            top = np.array([
                lvl.digits_in_ball(lvl._smul_pay(p, b.pay), self.lo, self.s)
                for b in self._basis_elements(self.lo)[:f]
            ], dtype=np.int64)
            E = np.zeros((D, D), dtype=np.int64)
            for j in range(self.J):
                E[j * f:(j + 1) * f, j * f:] = top[:, : D - j * f]
            if np.tril(E).any():
                raise AssertionError("carry vectors must point to deeper rows")
            return [[(int(u), int(E[t, u])) for u in np.flatnonzero(E[t])] for t in range(D)]

        return self._cache("carries", build)

    def index_of_digits(self, vectors):
        """Coset indices of integer digit vectors of any magnitude: a
        D-tuple gives an int, exactly; the columns of a D x m array give m
        int64s, or ValueError where int64 could wrap.

        Sums and differences of cosets are digit sums and differences,
        because the digit system sum d * mono * pi^j is linear.  Position t
        keeps delta_t mod p and hands c = delta_t // p on as c * E[t]; one
        pass in position order settles everything because carries only
        move deeper and fall off past row s.  The index accumulates as
        delta @ p^(D-1-t).
        """
        carries, p = self._carries(), self.p
        if np.ndim(vectors) == 1:
            delta, idx = [int(d) for d in vectors], 0
        else:
            try:
                delta = np.array(vectors, dtype=np.int64)  # overwritten below
            except OverflowError as exc:
                raise ValueError("digit vectors overflow int64") from exc
            idx = np.zeros(delta.shape[1], dtype=np.int64)
            # worst |entry| while normalizing entries bounded by m: a position
            # holding at most b passes on ceil(b / p) times its carry vector,
            # c * p stays below b + p, and the index below size
            m = max(-int(delta.min(initial=0)), int(delta.max(initial=0)))
            bound = [m] * self.D
            for t in range(self.D):
                for u, e in carries[t]:
                    bound[u] += -(-bound[t] // p) * e
            if max(*bound, self.size) + p >= 1 << 63:
                raise ValueError("digit vectors overflow int64 while carrying")
        for t in range(self.D):
            # floor division by a scalar is far cheaper than np.divmod here
            c = delta[t] // p
            idx *= p
            idx += delta[t] - c * p
            for u, e in carries[t]:
                delta[u] += c * e
        return idx

    # -- measures ------------------------------------------------------------

    @property
    def mu_coset_mass(self):
        return Fraction(self.q) ** (self.level.s0 - self.s)

    @property
    def mu_total_mass(self):
        return Fraction(self.q) ** (self.level.s0 - self.lo)


def _transform(quotient, values, sign=-1):
    """T[b] = sum_g chi_b(g)**sign phi(g) for every dual label b, one digit
    row at a time, deepest first.

    g = x + h splits with no carry into its top row x and the rest h, so
    chi_b(g) = chi_b(x) chi_b(h), and chi_b on pi^(lo+1) O / pi^s O is that
    quotient's label b // q.  Stage k turns the transform over the last
    k - 1 rows into the one over the last k, summing the q values x of row
    J - k against the twiddle of each label c = c' q + r; the phase is
    linear in the label's digits, so the twiddle is a (c' x x) table times
    an (r x x) table.  No temporary holds more than |G| entries.
    """
    quotient.check_enumerable()
    theta, kappa = quotient._pairing()
    p, q, f, J = quotient.p, quotient.q, quotient.f, quotient.J
    row = np.arange(q)[:, None] // p ** np.arange(f - 1, -1, -1) % p  # the digits of one row
    acc = np.asarray(values, dtype=np.complex128).reshape(quotient.size, 1)
    for k in range(1, J + 1):
        x = slice((J - k) * f, (J - k + 1) * f)
        # integer phases of label row i against group row J - k, q x q each
        phases = [row @ theta[i * f:(i + 1) * f, x] @ row.T % kappa for i in range(k)]
        lead = np.zeros((1, q), dtype=np.int64)
        for ph in phases[:-1]:
            lead = (lead[:, None, :] + ph).reshape(-1, q) % kappa
        w_lead, w_last = (np.exp((sign * 2j * np.pi / kappa) * ph) for ph in (lead, phases[-1]))
        n = lead.shape[0]
        acc = acc.reshape(-1, q, n) * w_lead.T
        acc = np.matmul(acc.transpose(0, 2, 1), w_last.T).reshape(-1, n * q)
    return acc.reshape(quotient.size)


def fourier(quotient, values):
    """Coefficients c_b = (1/|G|) sum_g conj(chi_b(g)) phi(g)."""
    return _transform(quotient, values) / quotient.size


def inverse_fourier(quotient, coeffs):
    """phi(g) = sum_b c_b chi_b(g): the pairing is symmetric and the dual of
    the dual is the quotient, so this is the transform on the dual with
    chi in place of its conjugate."""
    return _transform(quotient.dual(), coeffs, sign=1)


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
        # T is additive and rep_g = sum_t dig[g, t] * basis_t, so the image
        # digits of every coset are integer combinations of D exact images
        images = np.array([
            n_level.digits_in_ball(project_T(b, n_level).pay, src.lo, src.s)
            for b in dst._basis_elements(dst.lo)
        ], dtype=np.int64)
        return src.index_of_digits(images.T @ dst.digit_matrix.T)

    key = ("bq", "refine", dst.lo, dst.s, n_level.depth, src.lo, src.s)
    return dst, values[target_level._memo(key, build_map)]


def random_function(quotient, rng):
    """A random cylindrical function (standard normal coordinates)."""
    return rng.standard_normal(quotient.size) + 1j * rng.standard_normal(quotient.size)
