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


class UnramifiedStep:
    """Unramified step: a monic lift of an irreducible residue polynomial.

    ``coeffs`` holds the non-leading coefficients (constant term first) as
    payloads over the parent level; ``None`` defers the deterministic search
    until element arithmetic first needs the polynomial.
    """

    kind = "unramified"

    def __init__(self, degree, coeffs=None):
        self.degree = int(degree)
        if self.degree < 2:
            raise ValueError("unramified step degree must be >= 2")
        self.e_factor = 1
        self.f_factor = self.degree
        self.coeffs = None if coeffs is None else tuple(coeffs)
        self.power_sums = None

    def key(self):
        return ("u", self.degree, self.coeffs)


class EisensteinStep:
    """Eisenstein step: monic, v(c_i) >= 1 for i < degree, v(c_0) = 1."""

    kind = "eisenstein"

    def __init__(self, degree, coeffs):
        self.degree = int(degree)
        if self.degree < 2:
            raise ValueError("eisenstein step degree must be >= 2")
        self.e_factor = self.degree
        self.f_factor = 1
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != self.degree:
            raise ValueError("need exactly `degree` non-leading coefficients")
        self.power_sums = None
        self.d_step = None

    def key(self):
        return ("e", self.degree, self.coeffs)


# ---------------------------------------------------------------------------
# levels


class Level:
    """A finite extension of Q_p presented by a chain of defining steps.

    Levels of a tower are chain prefixes, so elements of a shallower level
    embed into deeper ones by zero padding.  All caches live on the level;
    construction is cheap, heavy tables are built lazily.
    """

    def __init__(self, p, steps=(), parent=None):
        self.p = int(p)
        self.steps = tuple(steps)
        self.parent = parent
        e = f = 1
        for st in self.steps:
            e *= st.e_factor
            f *= st.f_factor
        self.e = e
        self.f = f
        self.m = e * f
        self.q = self.p**f
        self.c = vp(self.m, self.p)  # v_p of the level degree m
        self._cache = {}

    # -- construction ----------------------------------------------------

    def extend_unramified(self, degree, coeffs=None):
        if coeffs is not None:
            coeffs = tuple(self._as_pay(c) for c in coeffs)
            self._validate_unramified_coeffs(coeffs)
        step = UnramifiedStep(degree, coeffs)
        return Level(self.p, self.steps + (step,), parent=self)

    def extend_eisenstein(self, coeffs):
        coeffs = tuple(self._as_pay(c) for c in coeffs)
        step = EisensteinStep(len(coeffs), coeffs)
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
        if "d" not in self._cache:
            if self.depth == 0:
                self._cache["d"] = 0
            else:
                st = self.steps[-1]
                base = self.parent.d
                if st.kind == "unramified":
                    self._cache["d"] = base
                else:
                    self._cache["d"] = st.degree * base + self._d_step(st)
        return self._cache["d"]

    @property
    def s0(self):
        """pi-exponent of the level's standard compact ball e*c - d."""
        return self.e * self.c - self.d

    def _d_step(self, st):
        if st.d_step is None:
            # valuation of E'(pi) at this level; exact, no cancellation since
            # the term valuations are pairwise distinct mod the step degree.
            e = st.degree
            par = self.parent
            slots = []
            for j in range(e):
                if j + 1 < e:
                    cj = par._smul_pay(j + 1, st.coeffs[j + 1])
                else:
                    cj = par._smul_pay(e, par._one_pay())
                slots.append(cj)
            st.d_step = self._val_pi_pay(tuple(slots))
        return st.d_step

    def key(self):
        return (self.p, tuple(st.key() for st in self.steps))

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
        return self.key()[1] == other.key()[1][: self.depth]

    # -- payload arithmetic ----------------------------------------------
    # A payload is a Fraction at depth 0, else a tuple of parent payloads of
    # length equal to the top step degree.

    def _zero_pay(self):
        if "zero" not in self._cache:
            if self.depth == 0:
                self._cache["zero"] = Fraction(0)
            else:
                z = self.parent._zero_pay()
                self._cache["zero"] = (z,) * self.steps[-1].degree
        return self._cache["zero"]

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
        st = self.steps[-1]
        if st.coeffs is None:
            st.coeffs = self.parent._find_unramified_coeffs(st.degree)
        return st.coeffs

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
        if "basis" not in self._cache:
            basis = []
            for k in range(self.m):
                coords = [Fraction(0)] * self.m
                coords[k] = Fraction(1)
                basis.append(self._unflat(coords))
            self._cache["basis"] = basis
        return self._cache["basis"]

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
        if "monomials" not in self._cache:
            gens = []
            for idx, st in enumerate(self.steps):
                if st.kind == "unramified":
                    gens.append((idx, st.degree))
            monos = []
            for powers in itertools.product(*(range(g) for _, g in gens)):
                mpay = self._one_pay()
                for (idx, _), k in zip(gens, powers):
                    gpay = self._gen_pay(idx)
                    for _ in range(k):
                        mpay = self._mul_pay(mpay, gpay)
                monos.append(mpay)
            self._cache["monomials"] = monos
        return self._cache["monomials"]

    def _gen_pay(self, step_index):
        """Generator of steps[step_index] embedded into this level."""
        key = ("gen", step_index)
        if key not in self._cache:
            lvl = self
            chain = []
            while lvl.depth > step_index + 1:
                chain.append(lvl)
                lvl = lvl.parent
            st = lvl.steps[-1]
            par = lvl.parent
            pay = (par._zero_pay(), par._one_pay()) + (par._zero_pay(),) * (
                st.degree - 2
            )
            depth = lvl.depth
            self._cache[key] = self._embed_pay(pay, depth)
        return self._cache[key]

    def _mono_positions(self):
        """Flat coordinate index of each residue monomial."""
        if "mono_pos" not in self._cache:
            pos = []
            for mpay in self._monomials():
                flat = self._flat(mpay)
                nz = [k for k, v in enumerate(flat) if v != 0]
                if len(nz) != 1 or flat[nz[0]] != 1:
                    raise AssertionError("monomial is not a basis vector")
                pos.append(nz[0])
            self._cache["mono_pos"] = pos
        return self._cache["mono_pos"]

    def _residue_system(self):
        """All q = p^f polynomial representatives, indexed by digit tuples
        (last monomial fastest); the zero digit string comes first."""
        if "residues" not in self._cache:
            monos = self._monomials()
            out = []
            for digs in itertools.product(range(self.p), repeat=self.f):
                acc = self._zero_pay()
                for dig, mpay in zip(digs, monos):
                    if dig:
                        acc = self._add_pay(acc, self._smul_pay(dig, mpay))
                out.append(acc)
            self._cache["residues"] = out
        return self._cache["residues"]

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
        if "pi" not in self._cache:
            idx = None
            for k, st in enumerate(self.steps):
                if st.kind == "eisenstein":
                    idx = k
            if idx is None:
                self._cache["pi"] = self._scalar_pay(self.p)
            else:
                self._cache["pi"] = self._gen_pay(idx)
        return self._cache["pi"]

    def _pi_pow_pay(self, j):
        key = ("pipow", j)
        if key in self._cache:
            return self._cache[key]
        if j == 0:
            pay = self._one_pay()
        elif j > 0:
            pay = self._mul_pay(self._pi_pow_pay(j - 1), self._pi_pay())
        else:
            inv_key = ("pipow", -1)
            if inv_key not in self._cache:
                self._cache[inv_key] = self._inv_pay(self._pi_pay())
            if j == -1:
                pay = self._cache[inv_key]
            else:
                pay = self._mul_pay(self._pi_pow_pay(j + 1), self._cache[inv_key])
        self._cache[key] = pay
        return pay

    # -- traces and projections ------------------------------------------

    def _power_sums_top(self):
        st = self.steps[-1]
        if st.power_sums is None:
            par = self.parent
            g = st.degree
            coeffs = (
                self._coeffs_of_top()
                if st.kind == "unramified"
                else st.coeffs
            )
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
            st.power_sums = tuple(sums)
        return st.power_sums

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
