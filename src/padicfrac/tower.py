"""Increasing towers of extensions of Q_p and operator spectra over them.

A tower is a sequence of levels K_1 = Q_p <= K_2 <= ... presented as chain
prefixes of one another, together with builders for the standard families:

* ``build_qp_tower`` -- the constant tower, every level equal to Q_p;
* ``build_unramified_tower`` -- prescribed residue degrees, no ramification;
* ``build_factorial_tower`` -- K_n obtained by adjoining the n!-th roots of
  unity, which interleaves unramified growth with tame and wild ramification.

The spectrum of the norm-power multiplier operator of exponent alpha over a
tower consists of zero together with the values q_1 ** (alpha * N / e_n); the
functions here enumerate those values with exact rational exponents, so
eigenvalues arising at different levels are merged without floating-point
tolerance games.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .padic import base_level, vp

__all__ = [
    "TowerSpec",
    "SpectrumEntry",
    "build_qp_tower",
    "build_unramified_tower",
    "build_factorial_tower",
    "spectrum",
    "min_positive_eigenvalue",
    "dump_tower",
    "load_tower",
    "resolve_tower",
]


@dataclass(frozen=True)
class TowerSpec:
    """An increasing tower of extensions, each level a chain prefix of the
    next.  Levels are 1-indexed; ``level(1)`` is always Q_p."""

    p: int
    label: str
    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        if self.levels[0].depth != 0:
            raise ValueError("the first level must be the base field")
        for a, b in zip(self.levels, self.levels[1:]):
            if not a.is_prefix_of(b):
                raise ValueError("tower levels must form a chain")

    @property
    def depth(self):
        return len(self.levels)

    @property
    def q1(self):
        return self.levels[0].q

    @property
    def horizon(self):
        return self.levels[-1]

    def level(self, n):
        return self.levels[n - 1]

    def __iter__(self):
        return iter(self.levels)


@dataclass(frozen=True)
class SpectrumEntry:
    """One spectral value: eigenvalue = q_1 ** (alpha * exponent).

    ``exponent`` is the exact rational N / e_n (None for the zero eigenvalue),
    ``first_level`` the shallowest level producing it, ``multiplicity`` the
    count of character labels on the horizon level sphere of radius
    exponent * e_H: (q - 1) * q**(N - 1) with N = exponent * e_H, the cosets
    of pi^-N O / O whose leading digit row is nonzero.
    """

    exponent: Fraction | None
    eigenvalue: float
    first_level: int
    multiplicity: int


# ---------------------------------------------------------------------------
# builders


def build_qp_tower(p, depth=1):
    """The constant tower: every level is Q_p itself."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    base = base_level(p)
    return TowerSpec(p=p, label=f"qp(p={p})", levels=(base,) * depth)


def build_unramified_tower(p, f_list):
    """Tower with residue degrees ``f_list`` and no ramification.

    The first degree must be 1 and each degree must be a multiple of the
    previous one (otherwise the levels do not embed in a chain).
    """
    f_list = list(f_list)
    if not f_list or f_list[0] != 1:
        raise ValueError("the first residue degree must be 1")
    levels = []
    cur = base_level(p)
    cur_f = 1
    for f in f_list:
        if f < cur_f or f % cur_f != 0:
            raise ValueError(
                f"residue degree {f} is not a multiple of the previous {cur_f}"
            )
        if f > cur_f:
            cur = cur.extend_unramified(f // cur_f)
            cur_f = f
        levels.append(cur)
    return TowerSpec(
        p=p,
        label=f"unramified(p={p}, f={'-'.join(map(str, f_list))})",
        levels=tuple(levels),
    )


def _mult_order(a, n):
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def _extend_wild(cur, p, l_from, zeta_minus_1):
    """One more p-power root of unity on top of ``cur``.

    Returns the new level together with (primitive root of unity - 1) on it,
    which is the uniformizer feeding the next step.
    """
    if l_from == 0:
        if p == 2:
            # the order-2 root is -1, already rational
            return cur, cur.from_rational(-2)
        # (1 + x)^p = 1 expanded and divided by x: tame, degree p - 1
        coeffs = [Fraction(math.comb(p, j + 1)) for j in range(p - 1)]
        nxt = cur.extend_eisenstein(coeffs)
        return nxt, nxt.generator()
    # (1 + x)^p = previous root: wild, degree p
    coeffs = [-zeta_minus_1] + [Fraction(math.comb(p, k)) for k in range(1, p)]
    nxt = cur.extend_eisenstein(coeffs)
    return nxt, nxt.generator()


def build_factorial_tower(p, depth):
    """Tower K_n = Q_p(n!-th roots of unity).

    Level n has residue degree f_n equal to the multiplicative order of p
    modulo the prime-to-p part of n!, and ramification index e_n equal to
    (p - 1) p**(l - 1) where l = v_p(n!) (e_n = 1 while l = 0).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels = []
    cur = base_level(p)
    cur_f = 1
    cur_l = 0
    zeta_minus_1 = None
    fact = 1
    for n in range(1, depth + 1):
        fact *= n
        l = int(vp(fact, p)) if fact % p == 0 else 0
        nprime = fact // p**l
        f = _mult_order(p, nprime)
        if f > cur_f:
            if f % cur_f != 0:
                raise AssertionError("residue degrees failed to divide")
            cur = cur.extend_unramified(f // cur_f)
            cur_f = f
        while cur_l < l:
            cur, zeta_minus_1 = _extend_wild(cur, p, cur_l, zeta_minus_1)
            cur_l += 1
        levels.append(cur)
    return TowerSpec(p=p, label=f"factorial(p={p})", levels=tuple(levels))


# ---------------------------------------------------------------------------
# spectrum


def spectrum(tower, alpha, exponent_cap=4, horizon=None):
    """Spectral values of the exponent-alpha operator over the tower.

    Returns SpectrumEntry records sorted by eigenvalue, starting with the
    zero eigenvalue (annihilating the constants).  Exponents are collected as
    exact rationals N / e_n for every level n up to ``horizon`` and every
    integer N with N / e_n <= exponent_cap, then deduplicated exactly.
    """
    if horizon is None:
        horizon = tower.depth
    if not 1 <= horizon <= tower.depth:
        raise ValueError("horizon outside the tower")
    alpha = Fraction(alpha) if not isinstance(alpha, float) else alpha
    cap = Fraction(exponent_cap)
    H = tower.level(horizon)
    first_at = {}
    for n in range(1, horizon + 1):
        e_n = tower.level(n).e
        N = 1
        while Fraction(N, e_n) <= cap:
            first_at.setdefault(Fraction(N, e_n), n)
            N += 1
    entries = [
        SpectrumEntry(
            exponent=None,
            eigenvalue=0.0,
            first_level=1,
            multiplicity=1,
        )
    ]
    q1 = tower.q1
    for r in sorted(first_at):
        n_star = r * H.e
        assert n_star.denominator == 1
        entries.append(
            SpectrumEntry(
                exponent=r,
                eigenvalue=float(q1) ** (float(alpha) * float(r)),
                first_level=first_at[r],
                multiplicity=(H.q - 1) * H.q ** (int(n_star) - 1),
            )
        )
    return entries


def min_positive_eigenvalue(tower, alpha, horizon=None):
    """Smallest nonzero spectral value: q_1 ** (alpha / e_H)."""
    H = tower.horizon if horizon is None else tower.level(horizon)
    return float(tower.q1) ** (float(alpha) / H.e)


# ---------------------------------------------------------------------------
# serialization

_PRESET_NAMES = ("qp", "unramified", "factorial", "cyclotomic")


def _encode_coeff(parent, pay):
    flat = parent._flat(pay)
    if parent.m == 1:
        return str(flat[0])
    return [str(x) for x in flat]


def _decode_coeff(parent, obj):
    if isinstance(obj, str):
        return parent._scalar_pay(Fraction(obj))
    if not isinstance(obj, list) or len(obj) != parent.m or not all(isinstance(s, str) for s in obj):
        raise ValueError(
            f"a poly coefficient must be a rational string or a list of {parent.m} of them: {obj!r}"
        )
    return parent._unflat([Fraction(s) for s in obj])


def dump_tower(tower):
    """JSON-ready dict describing the tower level by level.

    Each level lists the steps added on top of the previous one; each step
    carries its defining polynomial as [coefficient, power] pairs (constant
    term onward, leading 1 included), coefficients given as rational strings
    or as flat coordinate lists over the level below.
    """
    out_levels = []
    prev_depth = 0
    for lvl in tower.levels:
        steps_json = []
        for k in range(prev_depth, lvl.depth):
            owner = lvl.level_at_depth(k + 1)
            parent = lvl.level_at_depth(k)
            st = owner.steps[-1]
            entry = {"kind": st.kind, "degree": st.degree}
            if st.coeffs is not None:
                poly = [["1", st.degree]]
                for i, c in enumerate(st.coeffs):
                    if not parent._is_zero_pay(c):
                        poly.append([_encode_coeff(parent, c), i])
                entry["poly"] = poly
            steps_json.append(entry)
        out_levels.append(steps_json)
        prev_depth = lvl.depth
    return {"p": tower.p, "label": tower.label, "levels": out_levels}


def load_tower(obj):
    """Rebuild a tower from the dict produced by ``dump_tower`` (or a
    compatible hand-written description)."""
    if isinstance(obj, str):
        with open(obj) as fh:
            obj = json.load(fh)
    for name, kind, what in (("p", int, "an integer"), ("levels", list, "a list of levels")):
        # a bool or a float is no integer: "p": 2.5 must not run as p = 2
        if not isinstance(obj, dict) or type(obj.get(name)) is not kind:
            raise ValueError(f"a tower file must be a JSON object whose field {name!r} is {what}")
    cur = base_level(obj["p"])
    levels = []
    for steps_json in obj["levels"]:
        if not isinstance(steps_json, list) or not all(isinstance(st, dict) for st in steps_json):
            raise ValueError(f"each level in field 'levels' must list its steps: {steps_json!r}")
        for st in steps_json:
            kind = st.get("kind")
            degree = st.get("degree")
            poly = st.get("poly")
            coeffs = None
            if poly is not None:
                pairs = isinstance(poly, list) and all(isinstance(t, list) and len(t) == 2 for t in poly)
                if not pairs or not all(type(k) is int for _, k in poly):
                    raise ValueError(f"field 'poly' must list [coefficient, integer power] pairs: {poly!r}")
                powers = [k for _, k in poly]
                degree = degree if degree is not None else max(powers)
                if type(degree) is not int or min(powers) < 0 or max(powers) > degree:
                    raise ValueError(f"poly powers {powers} must lie in 0..{degree}, an integer degree")
                coeffs = [cur._zero_pay() for _ in range(degree)]
                for cstr, k in poly:
                    if k == degree:
                        if Fraction(cstr if isinstance(cstr, str) else "0") != 1:
                            raise ValueError("polynomial must be monic")
                        continue
                    coeffs[k] = _decode_coeff(cur, cstr)
            if type(degree) is not int:
                raise ValueError(f"a step needs an integer degree or a polynomial: {st!r}")
            if kind == "unramified":
                cur = cur.extend_unramified(degree, coeffs=coeffs)
            elif kind == "eisenstein":
                if coeffs is None:
                    raise ValueError("eisenstein steps need a polynomial")
                cur = cur.extend_eisenstein(coeffs)
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        levels.append(cur)
    return TowerSpec(p=obj["p"], label=obj.get("label", "custom"), levels=tuple(levels))


def resolve_tower(arg):
    """Turn a CLI tower argument into a TowerSpec.

    Accepts a preset string (``qp:p=2,depth=3``, ``unramified:p=2,f=1-2-6``,
    ``factorial:p=2,depth=4``; ``cyclotomic:`` is an alias of factorial) or a
    path to a JSON tower file.
    """
    if isinstance(arg, TowerSpec):
        return arg
    head = arg.split(":", 1)[0]
    if head in _PRESET_NAMES and not os.path.exists(arg):
        if ":" not in arg:
            raise ValueError(f"preset {head!r} needs arguments, e.g. {head}:p=2,depth=3")
        params = {}
        for piece in arg.split(":", 1)[1].split(","):
            k, _, v = piece.partition("=")
            if not _:
                raise ValueError(f"malformed preset argument {piece!r}")
            params[k.strip()] = v.strip()
        for name in {"qp": ["p"], "unramified": ["p", "f"]}.get(head, ["p", "depth"]):
            if name not in params:
                raise ValueError(f"preset {head!r} needs the argument {name}=")
        p = int(params.pop("p"))
        if head == "qp":
            t = build_qp_tower(p, int(params.pop("depth", 1)))
        elif head == "unramified":
            f_list = [int(x) for x in params.pop("f").split("-")]
            t = build_unramified_tower(p, f_list)
        else:
            t = build_factorial_tower(p, int(params.pop("depth")))
        if params:
            raise ValueError(f"unused preset arguments: {sorted(params)}")
        return t
    if os.path.exists(arg):
        return load_tower(arg)
    raise ValueError(
        f"{arg!r} is neither a known preset ({', '.join(_PRESET_NAMES)}) nor a file"
    )
