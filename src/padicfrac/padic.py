"""Exact arithmetic in finite extension towers of the p-adic numbers.

A field is presented as a chain of simple steps over Q_p: *unramified* steps
(monic lifts of irreducible residue-field polynomials) and *Eisenstein* steps
(monic polynomials whose non-leading coefficients sit in the maximal ideal of
the level below, with constant term of valuation exactly one).  An element is
a nested coordinate vector over the chain whose innermost entries are exact
rationals, so valuations, traces, character angles and digit expansions are
computed without any rounding.

Conventions used throughout:

* ``v_p`` denotes the valuation normalized by ``v_p(p) = 1``; it takes values
  in ``(1/e) Z`` on a level with ramification index ``e``.
* ``v_pi = e * v_p`` is the integer valuation normalized on the level's own
  uniformizer.
* The norm is ``||x|| = p ** (-v_p(x))`` and the module (normalized absolute
  value) is ``|x| = ||x|| ** m`` for a level of degree ``m``.
* The rank-zero character is ``chi(x) = exp(2 pi i {x})`` where ``{x}`` is the
  fractional part of a rational seen inside Q_p.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Level",
    "ExtElement",
    "base_level",
    "vp",
    "frac_part",
]

_INF = math.inf


def vp(x, p):
    """p-adic valuation of a rational number; ``math.inf`` for zero."""
    x = Fraction(x)
    if x == 0:
        return _INF
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_part(x, p):
    """Fractional part of a rational inside Q_p.

    Returns the unique rational ``k / p**w`` in ``[0, 1)`` such that
    ``x - k / p**w`` is a p-adic integer.  Additive modulo 1.
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    den = x.denominator
    w = 0
    while den % p == 0:
        den //= p
        w += 1
    if w == 0:
        return Fraction(0)
    pw = p**w
    k = (x.numerator * pow(den, -1, pw)) % pw
    return Fraction(k, pw)


# ---------------------------------------------------------------------------
# tower steps


@dataclass(frozen=True)
class Step:
    """One defining step over the level below: ``kind`` is "unramified" (a
    monic lift of an irreducible residue polynomial) or "eisenstein"
    (monic, v(c_i) >= 1 for i < degree, v(c_0) = 1).

    ``coeffs`` holds the non-leading coefficients (constant term first) as
    payloads over the parent level.  It is None for an unramified step whose
    polynomial is searched: the search result is kept in the cache of the
    level the step tops, so a step, and the key of every level holding it,
    never changes once made.
    """

    kind: str
    degree: int
    coeffs: tuple | None = None

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError(f"{self.kind} step degree must be >= 2")
        if self.coeffs is not None and len(self.coeffs) != self.degree:
            raise ValueError("need exactly `degree` non-leading coefficients")


# ---------------------------------------------------------------------------
# levels


class Level:
    """A finite extension of Q_p presented by a chain of defining steps.

    Levels of a tower are chain prefixes, so elements of a shallower level
    embed into deeper ones by zero padding.  Construction is cheap: every
    table, coefficient list, jump law and sampler built on the level is
    built lazily, once, through ``_memo`` and kept in ``_cache``.
    """

    def __init__(self, p, steps=(), parent=None):
        self.p = int(p)
        self.steps = tuple(steps)
        self.parent = parent
        e = f = 1
        for st in self.steps:
            if st.kind == "eisenstein":
                e *= st.degree
            else:
                f *= st.degree
        self.e = e
        self.f = f
        self.m = e * f
        self.q = self.p**f
        self.c = vp(self.m, self.p)  # v_p of the level degree m
        self._cache = {}

    def _memo(self, key, build):
        """The value kept under ``key``, built by ``build()`` on the first
        call: the one writer of ``_cache``.  A hit is one dict lookup."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._cache[key] = build()
        return value

    # -- construction ----------------------------------------------------

    def extend_unramified(self, degree, coeffs=None):
        if coeffs is not None:
            coeffs = tuple(self._as_pay(c) for c in coeffs)
            self._validate_unramified_coeffs(coeffs)
        step = Step("unramified", int(degree), coeffs)
        return Level(self.p, self.steps + (step,), parent=self)

    def extend_eisenstein(self, coeffs):
        coeffs = tuple(self._as_pay(c) for c in coeffs)
        step = Step("eisenstein", len(coeffs), coeffs)
        lvl = Level(self.p, self.steps + (step,), parent=self)
        v0 = self._val_pi_pay(coeffs[0])
        if v0 != 1:
            raise ValueError(
                f"not Eisenstein: constant term has valuation {v0}, expected 1"
            )
        for i, c in enumerate(coeffs[1:], start=1):
            if self._val_pi_pay(c) < 1:
                raise ValueError(
                    f"not Eisenstein: coefficient of x^{i} is a unit"
                )
        return lvl

    def _validate_unramified_coeffs(self, coeffs):
        # Integral coefficients and no residue root, checked over this level
        # (the parent of the new step).  Rootlessness certifies
        # irreducibility for degrees 2 and 3; higher-degree user input gets
        # the necessary checks only.
        for c in coeffs:
            if self._val_pi_pay(c) < 0:
                raise ValueError("unramified step polynomial must be integral")
        if self._has_residue_root(coeffs):
            raise ValueError("reducible residue polynomial for unramified step")

    @property
    def depth(self):
        return len(self.steps)

    @property
    def d(self):
        """Exponent of the different over Q_p, in pi-units of this level."""

        def build():
            if self.depth == 0:
                return 0
            st, par = self.steps[-1], self.parent
            if st.kind == "unramified":
                return par.d
            # an Eisenstein step adds v(E'(pi)) at this level; exact, no
            # cancellation since the term valuations are pairwise distinct
            # mod the step degree
            e = st.degree
            slots = [par._smul_pay(j + 1, st.coeffs[j + 1]) for j in range(e - 1)]
            slots.append(par._smul_pay(e, par._one_pay()))
            return e * par.d + self._val_pi_pay(tuple(slots))

        return self._memo("d", build)

    @property
    def s0(self):
        """pi-exponent of the level's standard compact ball e*c - d."""
        return self.e * self.c - self.d

    def key(self):
        return (self.p, self.steps)

    def __eq__(self, other):
        return isinstance(other, Level) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = [f"Q_{self.p}"]
        for st in self.steps:
            parts.append(f"{st.kind[0]}{st.degree}")
        return f"Level({'-'.join(parts)}; e={self.e}, f={self.f})"

    def is_prefix_of(self, other):
        if self.p != other.p or self.depth > other.depth:
            return False
        return self.steps == other.steps[: self.depth]

    # -- payload arithmetic ----------------------------------------------
    # A payload is a Fraction at depth 0, else a tuple of parent payloads of
    # length equal to the top step degree.

    def _zero_pay(self):
        return self._memo(
            "zero",
            lambda: Fraction(0) if self.depth == 0
            else (self.parent._zero_pay(),) * self.steps[-1].degree,
        )

    def _one_pay(self):
        return self._scalar_pay(1)

    def _scalar_pay(self, r):
        r = Fraction(r)
        if self.depth == 0:
            return r
        par = self.parent
        rest = (par._zero_pay(),) * (self.steps[-1].degree - 1)
        return (par._scalar_pay(r),) + rest

    def _as_pay(self, x):
        """Accept payloads, rationals, ExtElement at this or a prefix level.
        Floats are refused at every depth: a binary float is not the
        rational it was written as."""
        if isinstance(x, ExtElement):
            if x.level is self or x.level == self:
                return x.pay
            if x.level.is_prefix_of(self):
                return self._embed_pay(x.pay, x.level.depth)
            raise ValueError(f"{x.level!r} is not a prefix of {self!r}")
        if isinstance(x, (int, Fraction)):
            return self._scalar_pay(x)
        if isinstance(x, numbers.Rational):  # numpy integers, say
            return self._scalar_pay(Fraction(int(x.numerator), int(x.denominator)))
        if self.depth and isinstance(x, (tuple, list)):
            st = self.steps[-1]
            if len(x) != st.degree:
                raise ValueError(
                    f"expected {st.degree} coordinates, got {len(x)}"
                )
            return tuple(self.parent._as_pay(c) for c in x)
        raise TypeError(f"cannot build an element from {type(x).__name__}")

    def _embed_pay(self, pay, from_depth):
        if from_depth == self.depth:
            return pay
        par = self.parent
        inner = par._embed_pay(pay, from_depth)
        rest = (par._zero_pay(),) * (self.steps[-1].degree - 1)
        return (inner,) + rest

    def _is_zero_pay(self, pay):
        if self.depth == 0:
            return pay == 0
        return all(self.parent._is_zero_pay(c) for c in pay)

    def _add_pay(self, a, b):
        if self.depth == 0:
            return a + b
        par = self.parent
        return tuple(par._add_pay(x, y) for x, y in zip(a, b))

    def _neg_pay(self, a):
        if self.depth == 0:
            return -a
        par = self.parent
        return tuple(par._neg_pay(x) for x in a)

    def _sub_pay(self, a, b):
        return self._add_pay(a, self._neg_pay(b))

    def _smul_pay(self, r, a):
        r = Fraction(r)
        if self.depth == 0:
            return r * a
        par = self.parent
        return tuple(par._smul_pay(r, x) for x in a)

    def _coeffs_of_top(self):
        """The top step's non-leading coefficients; a searched polynomial
        is found once and kept in this level's cache."""
        st = self.steps[-1]
        if st.coeffs is not None:
            return st.coeffs
        return self._memo("poly", lambda: self.parent._find_unramified_coeffs(st.degree))

    def _mul_pay(self, a, b):
        if self.depth == 0:
            return a * b
        par = self.parent
        g = self.steps[-1].degree
        zero = par._zero_pay()
        prod = [zero] * (2 * g - 1)
        for i, ai in enumerate(a):
            if par._is_zero_pay(ai):
                continue
            for j, bj in enumerate(b):
                if par._is_zero_pay(bj):
                    continue
                prod[i + j] = par._add_pay(prod[i + j], par._mul_pay(ai, bj))
        if any(not par._is_zero_pay(prod[t]) for t in range(g, 2 * g - 1)):
            coeffs = self._coeffs_of_top()
            for t in range(2 * g - 2, g - 1, -1):
                ct = prod[t]
                if par._is_zero_pay(ct):
                    continue
                prod[t] = zero
                for i, ci in enumerate(coeffs):
                    if par._is_zero_pay(ci):
                        continue
                    prod[t - g + i] = par._sub_pay(
                        prod[t - g + i], par._mul_pay(ct, ci)
                    )
        return tuple(prod[:g])

    def _val_pi_pay(self, pay):
        """Integer valuation in this level's pi-units; inf for zero."""
        if self.depth == 0:
            return vp(pay, self.p)
        st = self.steps[-1]
        par = self.parent
        if st.kind == "unramified":
            return min(par._val_pi_pay(c) for c in pay)
        best = _INF
        for i, c in enumerate(pay):
            v = par._val_pi_pay(c)
            if v is not _INF:
                best = min(best, st.degree * v + i)
        return best

    def _flat(self, pay, out=None):
        if out is None:
            out = []
        if self.depth == 0:
            out.append(pay)
            return out
        for c in pay:
            self.parent._flat(c, out)
        return out

    def _unflat(self, coords):
        it = iter(coords)

        # innermost coordinates vary fastest, mirroring _flat
        def build(level):
            if level.depth == 0:
                return Fraction(next(it))
            return tuple(
                build(level.parent) for _ in range(level.steps[-1].degree)
            )

        return build(self)

    def _basis_pays(self):
        def build():
            basis = []
            for k in range(self.m):
                coords = [Fraction(0)] * self.m
                coords[k] = Fraction(1)
                basis.append(self._unflat(coords))
            return basis

        return self._memo("basis", build)

    def _inv_pay(self, a):
        if self._is_zero_pay(a):
            raise ZeroDivisionError("division by zero element")
        if self.depth == 0:
            return 1 / a
        m = self.m
        cols = []
        for bk in self._basis_pays():
            cols.append(self._flat(self._mul_pay(a, bk)))
        # solve M y = e_0 exactly (column k of M is a * basis_k)
        mat = [[cols[k][r] for k in range(m)] for r in range(m)]
        rhs = [Fraction(1)] + [Fraction(0)] * (m - 1)
        sol = _solve_fraction_system(mat, rhs)
        return self._unflat(sol)

    def _poly_eval(self, coeffs, x):
        """Evaluate the monic polynomial with given non-leading coeffs at x."""
        g = len(coeffs)
        acc = self._one_pay()
        # Horner on x^g + c_{g-1} x^{g-1} + ... + c_0
        for k in range(g - 1, -1, -1):
            acc = self._add_pay(self._mul_pay(acc, x), coeffs[k])
        return acc

    # -- residue field ----------------------------------------------------

    def _monomials(self):
        """Payloads of the residue monomial basis, f of them, lex order."""

        def build():
            gens = [(idx, st.degree) for idx, st in enumerate(self.steps) if st.kind == "unramified"]
            monos = []
            for powers in itertools.product(*(range(g) for _, g in gens)):
                mpay = self._one_pay()
                for (idx, _), k in zip(gens, powers):
                    gpay = self._gen_pay(idx)
                    for _ in range(k):
                        mpay = self._mul_pay(mpay, gpay)
                monos.append(mpay)
            return monos

        return self._memo("monomials", build)

    def _gen_pay(self, step_index):
        """Generator of steps[step_index] embedded into this level."""

        def build():
            lvl = self.level_at_depth(step_index + 1)
            par = lvl.parent
            zero = par._zero_pay()
            pay = (zero, par._one_pay()) + (zero,) * (lvl.steps[-1].degree - 2)
            return self._embed_pay(pay, lvl.depth)

        return self._memo(("gen", step_index), build)

    def _mono_positions(self):
        """Flat coordinate index of each residue monomial."""

        def build():
            pos = []
            for mpay in self._monomials():
                flat = self._flat(mpay)
                nz = [k for k, v in enumerate(flat) if v != 0]
                if len(nz) != 1 or flat[nz[0]] != 1:
                    raise AssertionError("monomial is not a basis vector")
                pos.append(nz[0])
            return pos

        return self._memo("mono_pos", build)

    def _residue_system(self):
        """All q = p^f polynomial representatives, indexed by digit tuples
        (last monomial fastest); the zero digit string comes first."""

        def build():
            monos = self._monomials()
            out = []
            for digs in itertools.product(range(self.p), repeat=self.f):
                acc = self._zero_pay()
                for dig, mpay in zip(digs, monos):
                    if dig:
                        acc = self._add_pay(acc, self._smul_pay(dig, mpay))
                out.append(acc)
            return out

        return self._memo("residues", build)

    def _find_unramified_coeffs(self, g):
        """Deterministic search for a monic degree-g lift of an irreducible
        residue polynomial, smallest digit string first."""
        if g > 3:
            raise NotImplementedError(
                "unramified step polynomials are searched only for relative "
                "degree <= 3 (a no-root test certifies irreducibility there); "
                "provide explicit coefficients for higher degrees"
            )
        for combo in itertools.product(self._residue_system(), repeat=g):
            # combo is (c_{g-1}, ..., c_0) so the candidate order follows the
            # digit string read from the top coefficient down
            coeffs = tuple(reversed(combo))
            if not self._has_residue_root(coeffs):
                return coeffs
        raise AssertionError("no irreducible residue polynomial found")

    def _has_residue_root(self, coeffs):
        """Whether the monic polynomial with these non-leading coefficients
        has a root in the residue field, tried on every residue in order."""
        return any(
            self._val_pi_pay(self._poly_eval(coeffs, r)) > 0
            for r in self._residue_system()
        )

    # -- uniformizer -----------------------------------------------------

    def _pi_pay(self):
        def build():
            ramified = [k for k, st in enumerate(self.steps) if st.kind == "eisenstein"]
            return self._gen_pay(ramified[-1]) if ramified else self._scalar_pay(self.p)

        return self._memo("pi", build)

    def _pi_pow_pay(self, j):
        """pi^j, kept per j.  pi^0 = 1 and pi^-1, the inverse of pi, are
        built directly; any other cold power is built from the nearest kept
        one between it and them, one factor of pi (or pi^-1) at a time,
        keeping each power on the way: a loop, so no |j| is too deep."""
        step = 1 if j >= 0 else -1
        k = j
        while k not in (0, -1) and ("pipow", k) not in self._cache:
            k -= step
        pay = self._memo(("pipow", k), lambda: self._inv_pay(self._pi_pay()) if k else self._one_pay())
        if k != j:
            unit = self._pi_pay() if j > 0 else self._pi_pow_pay(-1)
            for i in range(k + step, j + step, step):
                pay = self._memo(("pipow", i), lambda: self._mul_pay(pay, unit))
        return pay

    # -- traces and projections ------------------------------------------

    def _power_sums_top(self):
        """Power sums of the roots of the top step's polynomial, over the
        parent level."""

        def build():
            par = self.parent
            g = self.steps[-1].degree
            coeffs = self._coeffs_of_top()
            # Newton's identities: p_k = sum_{i<k} (-1)^{i-1} e_i p_{k-i}
            #                            + (-1)^{k-1} k e_k
            elem = [None] * (g + 1)
            for i in range(1, g + 1):
                elem[i] = par._smul_pay((-1) ** i, coeffs[g - i])
            sums = [par._scalar_pay(g)]
            for k in range(1, g):
                acc = par._smul_pay((-1) ** (k - 1) * k, elem[k])
                for i in range(1, k):
                    term = par._mul_pay(elem[i], sums[k - i])
                    acc = par._add_pay(acc, par._smul_pay((-1) ** (i - 1), term))
                sums.append(acc)
            return tuple(sums)

        return self._memo("power_sums", build)

    def _trace_step_pay(self, pay):
        """Trace to the parent level."""
        sums = self._power_sums_top()
        par = self.parent
        acc = par._zero_pay()
        for c, s in zip(pay, sums):
            if not par._is_zero_pay(c):
                acc = par._add_pay(acc, par._mul_pay(c, s))
        return acc

    def _trace_to_pay(self, pay, target_depth):
        lvl = self
        while lvl.depth > target_depth:
            pay = lvl._trace_step_pay(pay)
            lvl = lvl.parent
        return pay

    def level_at_depth(self, depth):
        lvl = self
        while lvl.depth > depth:
            lvl = lvl.parent
        return lvl

    # -- digits ------------------------------------------------------------

    def _coord_mod_p(self, fr):
        # fr is a Fraction with v_p >= 0; its residue digit in F_p
        num = fr.numerator % self.p
        if num == 0:
            return 0
        den = fr.denominator % self.p
        return (num * pow(den, -1, self.p)) % self.p

    def digits_in_ball(self, pay, lo, s):
        """Digit matrix of an element of pi^lo O modulo pi^s.

        Returns the flattened tuple of (s - lo) * f base-p digits, position
        major.  The element must lie in pi^lo O.
        """
        if self._val_pi_pay(pay) < lo:
            raise ValueError("element lies outside the requested ball")
        monos = self._monomials()
        pos = self._mono_positions()
        pim1 = self._pi_pow_pay(-1)
        cur = self._mul_pay(pay, self._pi_pow_pay(-lo))
        out = []
        for _ in range(s - lo):
            flat = self._flat(cur)
            digs = [self._coord_mod_p(flat[k]) for k in pos]
            out.extend(digs)
            r = self._zero_pay()
            for dig, mpay in zip(digs, monos):
                if dig:
                    r = self._add_pay(r, self._smul_pay(dig, mpay))
            cur = self._mul_pay(self._sub_pay(cur, r), pim1)
        return tuple(out)

    # -- public element API ----------------------------------------------

    def element(self, x):
        return ExtElement(self, self._as_pay(x))

    def zero(self):
        return ExtElement(self, self._zero_pay())

    def one(self):
        return ExtElement(self, self._one_pay())

    def from_rational(self, r):
        return ExtElement(self, self._scalar_pay(r))

    def generator(self, step_index=None):
        if self.depth == 0:
            raise ValueError("the base level has no generator")
        if step_index is None:
            step_index = self.depth - 1
        return ExtElement(self, self._gen_pay(step_index))

    def uniformizer(self):
        return ExtElement(self, self._pi_pay())

    def uniformizer_pow(self, j):
        return ExtElement(self, self._pi_pow_pay(j))


def _solve_fraction_system(mat, rhs):
    """Exact Gaussian elimination; mat is a list of rows of Fractions."""
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular multiplication matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


_BASE_LEVELS = {}


def base_level(p):
    """The base field Q_p as a depth-zero Level (cached per prime)."""
    if p not in _BASE_LEVELS:
        _BASE_LEVELS[p] = Level(p)
    return _BASE_LEVELS[p]


class ExtElement:
    """An element of a Level: nested exact coordinates."""

    __slots__ = ("level", "pay")

    def __init__(self, level, pay):
        self.level = level
        self.pay = pay

    # -- coordination ------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, ExtElement):
            if other.level is self.level or other.level == self.level:
                return other
            if other.level.is_prefix_of(self.level):
                return ExtElement(
                    self.level,
                    self.level._embed_pay(other.pay, other.level.depth),
                )
            if self.level.is_prefix_of(other.level):
                return NotImplemented  # let the deeper side handle it
            raise ValueError("elements live on incomparable levels")
        if isinstance(other, (int, Fraction)):
            return ExtElement(self.level, self.level._as_pay(other))
        return None

    def flat_coords(self):
        """Rational coordinates over the full Q-basis of the level."""
        return tuple(self.level._flat(self.pay))

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return self.level._is_zero_pay(self.pay)

    def val_pi(self):
        """Integer valuation in pi-units; math.inf for zero."""
        return self.level._val_pi_pay(self.pay)

    def valuation(self):
        """Valuation in v_p units (a Fraction with denominator | e)."""
        v = self.val_pi()
        return v if v is _INF else Fraction(v, self.level.e)

    def norm(self):
        """||x|| = p^(-v_p(x)) as a float; 0.0 for zero."""
        v = self.valuation()
        return 0.0 if v is _INF else float(self.level.p) ** (-float(v))

    # -- arithmetic ----------------------------------------------------------

    def _wrap(self, pay):
        return ExtElement(self.level, pay)

    def __add__(self, other):
        o = self._pair(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self._wrap(self.level._add_pay(self.pay, o.pay))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.level._neg_pay(self.pay))

    def __sub__(self, other):
        o = self._pair(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self._wrap(self.level._sub_pay(self.pay, o.pay))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(self.level._smul_pay(other, self.pay))
        o = self._pair(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self._wrap(self.level._mul_pay(self.pay, o.pay))

    __rmul__ = __mul__

    def inv(self):
        return self._wrap(self.level._inv_pay(self.pay))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(
                self.level._smul_pay(Fraction(1, 1) / Fraction(other), self.pay)
            )
        o = self._pair(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __eq__(self, other):
        o = self._pair(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self.level._is_zero_pay(self.level._sub_pay(self.pay, o.pay))

    def __hash__(self):
        return hash((self.level.key(), _freeze(self.pay)))

    def __repr__(self):
        flat = self.flat_coords()
        return f"ExtElement({self.level!r}, {list(map(str, flat))})"


def _freeze(pay):
    if isinstance(pay, Fraction):
        return pay
    return tuple(_freeze(c) for c in pay)


# ---------------------------------------------------------------------------
# traces, averaged projections, the pairing angle


def trace(x, target):
    """Field trace of x down to the target level (a chain prefix)."""
    if not target.is_prefix_of(x.level):
        raise ValueError("trace target must be a prefix of the element level")
    pay = x.level._trace_to_pay(x.pay, target.depth)
    return ExtElement(target, pay)


def project_T(x, target):
    """Averaged projection T_n(x) = (m_n / m_nu) Tr(x) onto a prefix level."""
    if not target.is_prefix_of(x.level):
        raise ValueError("projection target must be a prefix of the element level")
    t = trace(x, target)
    scale = Fraction(target.m, x.level.m)
    return ExtElement(target, target._smul_pay(scale, t.pay))


def T_to_rational(x):
    """T_1(x) = (1 / m) Tr(x) as an exact Fraction (base target)."""
    base = x.level.level_at_depth(0)
    return Fraction(project_T(x, base).pay)


def pairing_angle(a, x):
    """Exact angle of the pairing character: {T(a * T_n(x))} as a Fraction.

    ``a`` names a character through a level K_n that must be a chain prefix
    of the level of ``x``.
    """
    if not a.level.is_prefix_of(x.level):
        raise ValueError("character label must live on a prefix level")
    xn = project_T(x, a.level) if x.level.depth != a.level.depth else x
    y = a * xn
    return frac_part(T_to_rational(y), a.level.p)
