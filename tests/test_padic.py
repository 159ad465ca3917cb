"""Core p-adic arithmetic: exact extension levels, elements, traces, the
pairing angle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfrac.funcspace import BallQuotient
from padicfrac.padic import (
    ExtElement,
    Level,
    base_level,
    frac_part,
    pairing_angle,
    project_T,
    T_to_rational,
    trace,
    vp,
)

Q2 = base_level(2)
Q3 = base_level(3)
U = Q2.extend_unramified(2)                                   # unramified quadratic
E = Q2.extend_eisenstein([Fraction(-2), Fraction(0)])         # x^2 - 2
W = U.extend_eisenstein([U.element(2), U.element(2)])         # x^2 + 2x + 2 over U

rationals = st.fractions(
    min_value=-64, max_value=64, max_denominator=64
)


def rand_element(level, draw_fraction):
    def pay(lvl):
        if lvl.depth == 0:
            return draw_fraction()
        return tuple(pay(lvl.parent) for _ in range(lvl.steps[-1].degree))

    return ExtElement(level, pay(level))


def element_strategy(level):
    def build(fracs):
        it = iter(fracs)
        return rand_element(level, lambda: Fraction(next(it)))

    return st.tuples(*([rationals] * level.m)).map(build)


# ---------------------------------------------------------------------------
# rational-level helpers


def test_vp_basics():
    assert vp(8, 2) == 3
    assert vp(Fraction(3, 4), 2) == -2
    assert vp(Fraction(9, 5), 3) == 2
    assert vp(0, 7) == math.inf


def test_frac_part_values():
    assert frac_part(Fraction(3, 8), 2) == Fraction(3, 8)
    assert frac_part(Fraction(1, 3), 2) == 0
    assert frac_part(Fraction(7, 2) + 5, 2) == Fraction(1, 2)
    assert frac_part(Fraction(-1, 4), 2) == Fraction(3, 4)


@given(x=rationals, y=rationals)
def test_frac_part_additive_mod_1(x, y):
    s = frac_part(x, 2) + frac_part(y, 2) - frac_part(x + y, 2)
    assert s.denominator == 1


# ---------------------------------------------------------------------------
# elements of Q_2


def test_scalar_digits_of_one_third():
    # 1/3 in Q_2: inverse of 3 mod 2^8 is 171 = 0b10101011
    digs = Q2.digits_in_ball(Fraction(1, 3), 0, 8)
    assert digs == (1, 1, 0, 1, 0, 1, 0, 1)
    val = sum(d * 2**k for k, d in enumerate(digs))
    assert (3 * val) % 2**8 == 1


def test_scalar_valuation_and_norm():
    x = Q2.from_rational(Fraction(12, 5))
    assert x.valuation() == 2
    assert x.norm() == 0.25
    assert Q2.zero().valuation() == math.inf
    assert Q2.zero().norm() == 0.0


@pytest.mark.parametrize("level", [Q2, U], ids=["Q2", "U"])
def test_element_refuses_floats_at_every_depth(level):
    with pytest.raises(TypeError, match="float"):
        level.element(0.1)
    with pytest.raises(TypeError, match="float"):
        level.element(np.float64(2.0))


@pytest.mark.parametrize("level", [Q2, U], ids=["Q2", "U"])
def test_element_accepts_numpy_integers_as_python_ints(level):
    x = level.element(np.int64(3))
    assert x == level.element(3)
    assert all(type(c.numerator) is int for c in x.flat_coords())
    y = level.element(1) + np.int64(2)
    assert y == level.element(3)
    assert all(type(c.numerator) is int for c in y.flat_coords())


def test_scalar_division():
    x = Q2.from_rational(Fraction(7, 3)) / Q2.from_rational(Fraction(7, 6))
    assert x == 2
    with pytest.raises(ZeroDivisionError):
        Q2.zero().inv()


# ---------------------------------------------------------------------------
# levels: construction and invariants


def test_level_invariants():
    assert (Q2.e, Q2.f, Q2.m, Q2.q, Q2.d, Q2.s0) == (1, 1, 1, 2, 0, 0)
    assert (U.e, U.f, U.m, U.q) == (1, 2, 2, 4)
    assert (U.c, U.d, U.s0) == (1, 0, 1)
    assert (E.e, E.f, E.c, E.d, E.s0) == (2, 1, 1, 3, -1)
    assert (W.e, W.f, W.m, W.c, W.d, W.s0) == (2, 2, 4, 2, 2, 2)


@pytest.mark.parametrize(
    "coeffs",
    [
        (Fraction(-2), Fraction(0)),   # x^2 - 2
        (Fraction(2), Fraction(2)),    # x^2 + 2x + 2
        (Fraction(-6), Fraction(0)),   # x^2 - 6
        (Fraction(2), Fraction(4)),    # x^2 + 4x + 2
    ],
)
def test_quadratic_different_matches_discriminant(coeffs):
    # for an Eisenstein quadratic over Q_p the generated order is maximal,
    # so the different exponent equals v_p of the polynomial discriminant
    lvl = Q2.extend_eisenstein(list(coeffs))
    c0, c1 = coeffs
    disc = c1 * c1 - 4 * c0
    assert lvl.d == vp(disc, 2)


def test_eisenstein_rejects_bad_input():
    with pytest.raises(ValueError):
        Q2.extend_eisenstein([Fraction(4), Fraction(0)])    # v(c0) = 2
    with pytest.raises(ValueError):
        Q2.extend_eisenstein([Fraction(2), Fraction(1)])    # unit coefficient
    with pytest.raises(ValueError):
        Q2.extend_eisenstein([Fraction(1), Fraction(2)])    # unit constant


def test_unramified_rejects_reducible():
    with pytest.raises(ValueError):
        Q2.extend_unramified(2, coeffs=(Fraction(1), Fraction(0)))  # x^2+1


def test_unramified_rejects_coefficients_of_another_degree():
    # x^4 + x^3 + x^2 + x + 1 has no root mod 2, but it is no quadratic
    with pytest.raises(ValueError, match="exactly `degree`"):
        Q2.extend_unramified(2, coeffs=(Fraction(1),) * 4)


def test_unramified_search_is_deterministic():
    a = Q2.extend_unramified(2)
    b = Q2.extend_unramified(2)
    assert a._coeffs_of_top() == b._coeffs_of_top() == (Fraction(1), Fraction(1))
    x = a.generator()
    assert (x * x + x + 1).is_zero()


def test_unramified_cubic_over_quadratic():
    # residue field F_4 -> F_64, needs a cubic with no F_4 root
    L = U.extend_unramified(3)
    assert (L.e, L.f, L.m, L.q) == (1, 6, 6, 64)
    g = L.generator()
    coeffs = L._coeffs_of_top()
    # the generator satisfies its own polynomial
    acc = g * g * g
    for k, c in enumerate(coeffs):
        term = L.element(ExtElement(U, c))
        for _ in range(k):
            term = term * g
        acc = acc + term
    assert acc.is_zero()


def test_unramified_high_degree_is_lazy():
    L = Q2.extend_unramified(5)
    assert (L.f, L.q) == (5, 32)            # invariants fine without a poly
    g3 = L.generator() * L.generator() * L.generator()
    with pytest.raises(NotImplementedError):
        g3 * g3                             # reduction needs the polynomial


# ---------------------------------------------------------------------------
# element arithmetic


@given(a=element_strategy(U), b=element_strategy(U), c=element_strategy(U))
@settings(max_examples=40)
def test_ring_axioms_unramified(a, b, c):
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()


@given(a=element_strategy(E), b=element_strategy(E))
@settings(max_examples=40)
def test_valuation_is_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).val_pi() == math.inf
    else:
        assert (a * b).val_pi() == a.val_pi() + b.val_pi()


@given(a=element_strategy(W), b=element_strategy(W))
@settings(max_examples=30)
def test_ultrametric_inequality(a, b):
    va, vb, vs = a.val_pi(), b.val_pi(), (a + b).val_pi()
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@given(a=element_strategy(E))
@settings(max_examples=30)
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert (a * a.inv() - 1).is_zero()


def test_uniformizer_powers():
    for lvl in (Q2, U, E, W):
        pi = lvl.uniformizer()
        assert pi.val_pi() == 1
        assert (lvl.uniformizer_pow(-3) * lvl.uniformizer_pow(3) - 1).is_zero()
        assert lvl.uniformizer_pow(-2).val_pi() == -2


@pytest.mark.parametrize("j", [-1500, 1500])
@pytest.mark.parametrize(
    "make", [lambda: Level(2), lambda: Level(2).extend_unramified(2)], ids=["Q_2", "Q_2-u2"]
)
def test_far_uniformizer_powers_on_a_cold_level(make, j):
    # a cold power is built one factor at a time from the nearest kept one:
    # no recursion, however far
    lvl = make()  # a fresh cache, nothing kept
    x = lvl.uniformizer_pow(j)
    assert x.val_pi() == j
    assert x * lvl.uniformizer_pow(-j) == 1
    assert lvl.uniformizer_pow(j - 1) == x * lvl.uniformizer_pow(-1)


def _matrix_trace(x):
    # independent oracle: trace of multiplication-by-x on the flat Q-basis
    lvl = x.level
    tr = Fraction(0)
    for k, bk in enumerate(lvl._basis_pays()):
        col = lvl._flat(lvl._mul_pay(x.pay, bk))
        tr += col[k]
    return tr


@pytest.mark.parametrize("level", [U, E, W])
def test_trace_matches_multiplication_matrix(level):
    import random

    rng = random.Random(20240815)
    for _ in range(8):
        x = rand_element(
            level, lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        )
        got = trace(x, Q2)
        assert Fraction(got.pay) == _matrix_trace(x)


def test_trace_transitivity():
    import random

    rng = random.Random(99)
    for _ in range(6):
        x = rand_element(W, lambda: Fraction(rng.randint(-9, 9), 1 + rng.randint(0, 3)))
        direct = trace(x, Q2)
        via = trace(trace(x, U), Q2)
        assert (direct - via).is_zero()


def test_projection_is_identity_on_subfield():
    y = U.element((Fraction(3, 4), Fraction(5)))
    emb = W.element(y)
    back = project_T(emb, U)
    assert (back - y).is_zero()


@given(a=element_strategy(U), z=element_strategy(W))
@settings(max_examples=25)
def test_averaged_projection_adjoint_identity(a, z):
    lhs = T_to_rational(a * project_T(z, U))
    rhs = T_to_rational(W.element(a) * z)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# digits, cosets, characters


@pytest.mark.parametrize("level,lo,s", [(Q2, -2, 3), (U, -1, 2), (E, -3, 2), (W, 0, 3)])
def test_digit_round_trip(level, lo, s):
    import random

    rng = random.Random(4)
    bq = BallQuotient(level, lo, s)
    for _ in range(6):
        digs = tuple(rng.randrange(level.p) for _ in range(bq.D))
        rep = bq.representative(bq.index_of_digits(digs))
        assert level.digits_in_ball(rep.pay, lo, s) == digs


def test_digits_reject_outside_ball():
    with pytest.raises(ValueError):
        E.digits_in_ball(E.uniformizer_pow(-2).pay, -1, 3)


@given(a=element_strategy(U), x=element_strategy(W), y=element_strategy(W))
@settings(max_examples=25)
def test_pairing_is_additive(a, x, y):
    s = pairing_angle(a, x) + pairing_angle(a, y) - pairing_angle(a, x + y)
    assert s.denominator == 1


@pytest.mark.parametrize("level", [Q2, U, E, W])
def test_annihilator_of_standard_ball_is_ring_of_integers(level):
    # the pairing a -> chi(T(a x)) kills the ball pi^{s0} O exactly for
    # integral a; probe the boundary on a deep digit system
    s0 = level.s0
    reps = BallQuotient(level, s0, s0 + max(2, level.e)).representatives()

    def annihilates(a):
        return all(pairing_angle(a, r) == 0 for r in reps)

    assert annihilates(level.one())
    assert annihilates(level.uniformizer())
    assert not annihilates(level.uniformizer_pow(-1))


def test_pairing_against_rank_zero_character():
    # on Q_p the pairing reduces to chi(a x)
    a = Q2.from_rational(Fraction(3, 8))
    x = Q2.from_rational(Fraction(5, 2))
    assert pairing_angle(a, x) == frac_part(Fraction(15, 16), 2)


# ---------------------------------------------------------------------------
# embeddings across levels


def test_embedding_preserves_arithmetic():
    y1 = U.element((Fraction(1, 2), Fraction(3)))
    y2 = U.element((Fraction(2), Fraction(-1)))
    lhs = W.element(y1 * y2)
    rhs = W.element(y1) * W.element(y2)
    assert (lhs - rhs).is_zero()
    assert W.element(y1).valuation() == y1.valuation()


def test_mixed_level_operations_embed():
    y = U.element((Fraction(1), Fraction(1)))
    z = W.generator()
    s = z + y                      # y embeds into W automatically
    assert s.level == W
    assert (s - z - W.element(y)).is_zero()
    with pytest.raises(ValueError):
        E.one() + U.one()          # incomparable levels
