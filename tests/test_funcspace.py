"""Ball quotients: digit tables, characters, transforms, refinement."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from padicfrac import funcspace
from padicfrac.measures import levy_integral, levy_integral_spectral
from padicfrac.padic import Level, base_level, pairing_angle, project_T
from padicfrac.tower import build_factorial_tower, resolve_tower
from padicfrac.vladimirov import apply_hypersingular, apply_spectral, semigroup_apply
from padicfrac.funcspace import (
    BallQuotient,
    fourier,
    inverse_fourier,
    plancherel_defect,
    random_function,
    refine_function,
)

Q2 = base_level(2)
Q3 = base_level(3)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([Fraction(-2), Fraction(0)])
W = U.extend_eisenstein([U.element(2), U.element(2)])
E3 = Q3.extend_eisenstein([Fraction(3), Fraction(3)])

def _character_phases(bq, b, dig=None):
    """(phases, kappa) with chi_b(g) = exp(2 pi i phases[g] / kappa) for
    dual label b (an index), on the cosets whose digit strings are the rows
    of ``dig`` (by default all of them): row b of the exact integer table
    (dig @ theta_int @ dig.T) % kappa, the label's digits read from its
    index."""
    theta_int, kappa = bq._pairing()
    label = np.array([b // bq.p ** (bq.D - 1 - t) % bq.p for t in range(bq.D)])
    dig = bq.digit_matrix if dig is None else dig
    return (label @ theta_int @ dig.T) % kappa, kappa


def _character_table(bq):
    """The dense oracle U[b, g] = chi_b(g), |G| x |G|, from the exact
    phases of the digit-matrix product."""
    dig = bq.digit_matrix
    theta_int, kappa = bq._pairing()
    return np.exp((2j * np.pi / kappa) * ((dig @ theta_int @ dig.T) % kappa))


def _sub_table(bq):
    """sub[i, j] = index of rep_i - rep_j, carried from digit differences."""
    dT = bq.digit_matrix.T
    delta = (dT[:, :, None] - dT[:, None, :]).reshape(bq.D, -1)
    return bq.index_of_digits(delta).reshape(bq.size, bq.size)


QUOTIENTS = [
    BallQuotient(Q2, 0, 4),
    BallQuotient(Q2, -2, 2),
    BallQuotient(U, 1, 3),
    BallQuotient(E, -1, 3),
    BallQuotient(W, 2, 4),
    BallQuotient(E3, -1, 2),
]


def test_quotient_validation():
    with pytest.raises(ValueError):
        BallQuotient(Q2, 2, 2)
    with pytest.raises(ValueError):
        BallQuotient(Q2, 3, 1)


def test_digit_matrix_matches_lex_enumeration():
    bq = BallQuotient(E, -1, 2)
    dig = bq.digit_matrix
    assert dig.shape == (bq.size, bq.D)
    # lexicographic: first column varies slowest
    assert list(dig[0]) == [0] * bq.D
    assert list(dig[-1]) == [bq.p - 1] * bq.D
    for i in range(bq.size):
        assert bq.index_of_digits(dig[i]) == i


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_representatives_read_back_their_digit_rows(bq):
    # a representative is built from its digit row by linearity; reading
    # its digits back through the field must give that row, on every coset
    reps = bq.representatives()
    assert len(reps) == bq.size
    for i, row in enumerate(bq.digit_matrix.tolist()):
        assert list(bq.level.digits_in_ball(reps[i].pay, bq.lo, bq.s)) == row
        assert bq.index_of_element(reps[i]) == i
    # one index at a time is the same element as the batch
    for i in random.Random(3).sample(range(bq.size), min(bq.size, 8)):
        assert (bq.representative(i) - reps[i]).is_zero()


def test_basis_is_formed_once_per_rows(monkeypatch):
    # the D basis elements are kept in the level cache per (lo, J), so
    # representative(i) only scales and adds them, and the dual quotient's
    # pairing table reads the same two row ranges the other way round
    lvl = Level(2).extend_unramified(2)  # a fresh cache
    bq = BallQuotient(lvl, -1, 3)
    first = bq.representative(5)
    products = []
    mul = lvl._mul_pay
    monkeypatch.setattr(lvl, "_mul_pay", lambda a, b: products.append(1) or mul(a, b))
    assert (bq.representative(5) - first).is_zero()
    for i in range(bq.size):
        bq.representative(i)
    assert products == []
    dual = bq.dual()
    assert dual._basis_elements(lvl.s0 - dual.s) is bq._basis_elements(bq.lo)
    assert BallQuotient(lvl, -1, 3)._basis_elements(-1) is bq._basis_elements(-1)


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_valuation_vector_matches_representatives(bq):
    vals = bq.val_pi_vector
    reps = bq.representatives()
    for i in range(bq.size):
        expect = reps[i].val_pi()
        if i == 0:
            assert reps[i].is_zero()
            assert vals[i] == bq.s
        else:
            assert vals[i] == expect


def test_valuation_vector_reads_no_digits_and_shares_their_size_check():
    lvl = Level(2).extend_unramified(2)
    bq = BallQuotient(lvl, -3, 4)
    vals = bq.val_pi_vector
    assert vals.dtype == np.int64 and vals.shape == (bq.size,)
    assert ("bq", "digits", bq.lo, bq.s) not in lvl._cache
    # the oracle: the row of the first nonzero digit, s for the zero coset
    rows = bq.digit_matrix.reshape(bq.size, bq.J, bq.f).any(axis=2)
    expect = np.where(rows.any(axis=1), bq.lo + rows.argmax(axis=1), bq.s)
    assert np.array_equal(vals, expect)
    # 2^19 * 19 digit entries fit MAX_DIGIT_ENTRIES = 2^24, 2^20 * 20 do not
    BallQuotient(Q2, 0, 19).check_enumerable()
    big = BallQuotient(Q2, 0, 20)
    with pytest.raises(ValueError, match="quotient too large to enumerate"):
        big.val_pi_vector
    with pytest.raises(ValueError, match="quotient too large to enumerate"):
        big.digit_matrix


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_shell_layout_is_the_valuation_vector(bq):
    sizes = bq.shell_sizes()
    assert sum(sizes) == bq.size
    assert np.bincount(bq.val_pi_vector - bq.lo).tolist() == sizes
    per_shell = np.arange(bq.J + 1) * 0.5 - 1.0
    assert (bq.from_shells(per_shell) == per_shell[bq.val_pi_vector - bq.lo]).all()


def test_shell_sizes_stay_exact_past_the_size_check():
    top = Level(2).extend_unramified(24)
    for bq in (BallQuotient(top, 0, 3), BallQuotient(Q2, -40, 150)):
        sizes = bq.shell_sizes()
        assert sum(sizes) == bq.size and sizes[-1] == 1
        assert all(a == b * bq.q for a, b in zip(sizes[:-2], sizes[1:-1]))
    assert BallQuotient(top, 0, 3).shell_sizes() == [
        (2**24 - 1) * 2**48, (2**24 - 1) * 2**24, 2**24 - 1, 1,
    ]


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_radial_apply_is_a_sum_of_ball_averages(bq):
    # the oracle finds the balls from the group law, not from digit order:
    # j lies in the ball of radius k around i iff v(rep_i - rep_j) >= k
    dist = bq.val_pi_vector[_sub_table(bq)]
    rng = np.random.default_rng(4)
    phi = random_function(bq, rng)
    averages = {}
    for k in range(bq.lo, bq.s + 1):
        ball = dist >= k
        averages[k] = (ball @ phi) / ball.sum(axis=1)
    assert np.abs(averages[bq.s] - phi).max() < 1e-12
    for k0 in range(bq.lo, bq.s + 1):
        coeffs = rng.standard_normal(bq.s - k0 + 1)
        expect = sum(c * averages[k] for c, k in zip(coeffs, range(k0, bq.s + 1)))
        assert np.abs(bq.radial_apply(phi, k0, coeffs) - expect).max() < 1e-12


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_radial_apply_returns_a_new_array_and_leaves_its_input(bq):
    rng = np.random.default_rng(8)
    inputs = [
        random_function(bq, rng),
        rng.standard_normal(bq.size),
        rng.integers(-9, 10, size=bq.size),
        # strided: every other entry of a 2|G| array
        (rng.standard_normal(2 * bq.size) + 1j * rng.standard_normal(2 * bq.size))[::2],
    ]
    for k0 in (bq.lo, bq.s):  # every radius, and the one coefficient of P_s
        coeffs = rng.standard_normal(bq.s - k0 + 1)
        for phi in inputs:
            before = phi.copy()
            out = bq.radial_apply(phi, k0, coeffs)
            assert phi.dtype == before.dtype and (phi == before).all()
            assert out.dtype == np.complex128 and not np.shares_memory(out, phi)
            cast = phi.astype(np.complex128)
            assert out.tobytes() == bq.radial_apply(cast, k0, coeffs).tobytes()
            if k0 == bq.s:
                assert (out == coeffs[0] * cast).all()


def test_radial_apply_validation():
    bq = BallQuotient(Q2, -1, 2)
    phi = np.ones(bq.size)
    with pytest.raises(ValueError):
        bq.radial_apply(phi, -2, np.ones(5))
    with pytest.raises(ValueError):
        bq.radial_apply(phi, 0, np.ones(2))
    with pytest.raises(ValueError):
        bq.radial_apply(np.ones(bq.size + 1), 0, np.ones(3))
    with pytest.raises(ValueError):
        bq.radial_at_zero(phi, -2, np.ones(5))
    with pytest.raises(ValueError):
        bq.radial_at_zero(phi, 0, np.ones(2))
    with pytest.raises(ValueError):
        bq.shell_sums(np.ones(bq.size + 1))


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_shell_sums_are_the_adjoint_of_from_shells(bq):
    # <from_shells(m), phi> = <m, shell_sums(phi)>
    rng = np.random.default_rng(12)
    m = rng.standard_normal(bq.J + 1)
    phi = random_function(bq, rng)
    sums = bq.shell_sums(phi)
    assert sums.shape == (bq.J + 1,) and sums[-1] == phi[0]
    lhs = np.dot(bq.from_shells(m), phi)
    assert abs(lhs - np.dot(m, sums)) <= 1e-13 * abs(lhs)
    # integer values: both sides exact
    m = rng.integers(-9, 10, size=bq.J + 1)
    phi = rng.integers(-9, 10, size=bq.size)
    assert np.dot(bq.from_shells(m), phi) == np.dot(m, bq.shell_sums(phi))
    assert bq.shell_sums(phi)[-1] == phi[0]


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_radial_at_zero_is_entry_zero_of_radial_apply(bq):
    rng = np.random.default_rng(6)
    phi = random_function(bq, rng)
    for k0 in range(bq.lo, bq.s + 1):
        coeffs = rng.standard_normal(bq.s - k0 + 1)
        got = bq.radial_at_zero(phi, k0, coeffs)
        scale = np.abs(coeffs).sum() * np.abs(phi).max()
        assert isinstance(got, complex)
        assert abs(got - bq.radial_apply(phi, k0, coeffs)[0]) <= 1e-13 * scale


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_shell_sums_read_strided_input(bq):
    # every other entry of a 2|G| array: a view that is not contiguous
    rng = np.random.default_rng(10)
    wide = rng.standard_normal(2 * bq.size) + 1j * rng.standard_normal(2 * bq.size)
    before = wide.copy()
    view = wide[::2]
    copy = np.ascontiguousarray(view)
    coeffs = rng.standard_normal(bq.s - bq.lo + 1)
    assert bq.shell_sums(view).tobytes() == bq.shell_sums(copy).tobytes()
    assert bq.radial_at_zero(view, bq.lo, coeffs) == bq.radial_at_zero(copy, bq.lo, coeffs)
    assert wide.tobytes() == before.tobytes()


STACKED_ROUTES = {
    "apply_spectral": apply_spectral,
    "apply_hypersingular": apply_hypersingular,
    "semigroup_apply": lambda bq, v, alpha: semigroup_apply(bq, v, alpha, 0.7),
    "levy_integral": lambda bq, v, alpha: levy_integral(bq, alpha, v),
    "levy_integral_spectral": lambda bq, v, alpha: levy_integral_spectral(bq, alpha, v),
}


@pytest.mark.parametrize(
    "bq", QUOTIENTS + [BallQuotient(U, 0, 5), BallQuotient(U, 1, 6)], ids=repr
)
@pytest.mark.parametrize("route", sorted(STACKED_ROUTES))
def test_a_stacked_row_is_the_function_alone(bq, route):
    # every row of a stack comes out byte for byte as the row alone: the
    # block sums, the shell sums and the J-term dot products take each row
    # in its own order.  lo = s0 on Q_2 (0, 4), Q_2-u2 (1, 3) and (1, 6)
    # and Q_2-u2-e2 (2, 4), where a single function's coarsest block sum is
    # one dot product and a flat stack's would sum in another order at q = 4
    run = STACKED_ROUTES[route]
    rng = np.random.default_rng(21)
    for alpha in (0.5, 1.0, 2.0):
        stack = rng.standard_normal((2, 3, bq.size)) + 1j * rng.standard_normal((2, 3, bq.size))
        stack[..., 0] = 0.0  # the jump integrals need a zero at the origin
        got = run(bq, stack, alpha)
        alone = [run(bq, row, alpha) for row in stack.reshape(6, bq.size)]
        if route.startswith("levy"):
            assert got.shape == (2, 3) and all(isinstance(x, complex) for x in alone)
            assert got.reshape(6).tobytes() == np.array(alone).tobytes()
        else:
            assert got.shape == stack.shape
            assert got.reshape(6, bq.size).tobytes() == np.array(alone).tobytes()
        # a strided stack (every other row of a wider one) and a stack of none
        assert run(bq, stack[:, ::2], alpha).tobytes() == got[:, ::2].tobytes()
        assert run(bq, stack[:0], alpha).shape == got[:0].shape


def test_stacks_refuse_a_last_axis_of_another_length():
    bq = BallQuotient(Q2, -1, 2)
    coeffs = np.ones(3)
    for bad in (np.zeros((2, bq.size + 1)), np.zeros((bq.size, 2)), np.zeros(bq.size - 1)):
        with pytest.raises(ValueError, match="along the last axis"):
            bq.radial_apply(bad, 0, coeffs)
        with pytest.raises(ValueError, match="along the last axis"):
            bq.radial_at_zero(bad, 0, coeffs)
        with pytest.raises(ValueError, match="along the last axis"):
            bq.shell_sums(bad)
        for route in STACKED_ROUTES.values():
            with pytest.raises(ValueError, match="along the last axis"):
                route(bq, bad, 1.0)


def test_jump_integrals_refuse_a_stack_with_a_row_nonzero_at_the_origin():
    bq = BallQuotient(Q2, -1, 2)
    stack = np.zeros((3, bq.size))
    stack[:, 1:] = 1.0
    for route in (levy_integral, levy_integral_spectral):
        assert route(bq, 1.0, stack).shape == (3,)
        stack[1, 0] = 1e-300
        with pytest.raises(ValueError, match="vanish on the zero coset"):
            route(bq, 1.0, stack)
        with pytest.raises(ValueError, match="vanish on the zero coset"):
            route(bq, 1.0, stack[None])
        stack[1, 0] = 0.0


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_character_matrix_is_scaled_unitary(bq):
    Umat = _character_table(bq)
    N = bq.size
    defect = np.abs(Umat @ Umat.conj().T - N * np.eye(N)).max()
    assert defect < 1e-11


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_sub_table_matches_element_arithmetic(bq):
    sub = _sub_table(bq)
    reps = bq.representatives()
    rng = random.Random(7)
    for _ in range(50):
        i = rng.randrange(bq.size)
        j = rng.randrange(bq.size)
        assert sub[i, j] == bq.index_of_element(reps[i] - reps[j])


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_characters_are_homomorphisms(bq):
    # chi_b(g - h) = chi_b(g) * conj(chi_b(h)): ties the character matrix to
    # the subtraction table, two tables built by independent routes
    Umat = _character_table(bq)
    sub = _sub_table(bq)
    rng = random.Random(3)
    for _ in range(30):
        i = rng.randrange(bq.size)
        j = rng.randrange(bq.size)
        lhs = Umat[:, sub[i, j]]
        rhs = Umat[:, i] * np.conj(Umat[:, j])
        assert np.abs(lhs - rhs).max() < 1e-11


@pytest.mark.parametrize("bq", [QUOTIENTS[1], QUOTIENTS[3], QUOTIENTS[4]], ids=repr)
def test_character_phases_are_the_character_rows(bq):
    Umat = _character_table(bq)
    sub = _sub_table(bq)
    reps, dual = bq.representatives(), bq.dual()
    for b in range(bq.size):
        phases, kappa = _character_phases(bq, b)
        assert phases.min() >= 0 and phases.max() < kappa
        assert (np.exp((2j * np.pi / kappa) * phases) == Umat[b]).all()
        # the exact angle of the pairing with the label's representative
        label = dual.representative(b)
        assert [Fraction(int(ph), kappa) for ph in phases] == [pairing_angle(label, g) for g in reps]
        # additive mod kappa: the exact form of chi_b(g - h) = chi_b(g) / chi_b(h)
        assert (phases[sub] == (phases[:, None] - phases[None, :]) % kappa).all()


SEXTIC = U.extend_unramified(3)
EU = E.extend_unramified(2)
EE = E.extend_eisenstein([-E.uniformizer(), E.element(0)])

# one small quotient (<= 64 cosets) of every level shape: base, unramified,
# ramified, and the three mixed towers
SMALL_QUOTIENTS = [
    BallQuotient(Q2, -3, 3),
    BallQuotient(Q3, -1, 2),
    BallQuotient(U, -1, 2),
    BallQuotient(SEXTIC, 1, 2),
    BallQuotient(E, -3, 3),
    BallQuotient(E3, -1, 2),
    BallQuotient(W, 2, 5),
    BallQuotient(EU, 0, 3),
    BallQuotient(EE, -1, 4),
]


def _in_coset(bq, x, rep):
    """Exact membership of x in the coset of rep: x - rep is zero or lies in
    pi^s O (val_pi is inf on zero)."""
    return (x - rep).val_pi() >= bq.s


@pytest.mark.parametrize("bq", SMALL_QUOTIENTS, ids=repr)
def test_sub_table_matches_element_arithmetic_on_every_pair(bq):
    # a - b, a + b and -a on every pair, by digit sums, each index checked
    # by exact membership of the field result in the claimed coset
    dT = bq.digit_matrix.T
    n = bq.size
    reps = bq.representatives()
    sums = {
        "sub": dT[:, :, None] - dT[:, None, :],
        "add": dT[:, :, None] + dT[:, None, :],
    }
    got = {k: bq.index_of_digits(v.reshape(bq.D, -1)).reshape(n, n) for k, v in sums.items()}
    sub = got["sub"]
    for i, a in enumerate(reps):
        assert all(_in_coset(bq, a - b, reps[k]) for b, k in zip(reps, sub[i]))
    # a + b = b + a: field arithmetic on i <= j, symmetry for the rest
    add = got["add"]
    assert (add == add.T).all()
    for i, a in enumerate(reps):
        assert all(_in_coset(bq, a + b, reps[k]) for b, k in zip(reps[i:], add[i, i:]))
    neg = bq.index_of_digits(-dT)
    assert all(_in_coset(bq, -a, reps[k]) for a, k in zip(reps, neg))
    assert got["sub"].dtype == neg.dtype == np.int64
    assert (np.diag(got["sub"]) == 0).all()
    assert (got["sub"][0] == neg).all()


@pytest.mark.parametrize("bq", SMALL_QUOTIENTS, ids=repr)
def test_index_of_digits_of_sums_of_several_terms(bq):
    dig = bq.digit_matrix
    reps = bq.representatives()
    rng = np.random.default_rng(13)
    for terms in (3, 4, 5):
        picks = rng.integers(bq.size, size=(40, terms))
        signs = rng.choice([-1, 1], size=(40, terms))
        vectors = np.einsum("mk,mkd->dm", signs, dig[picks])
        got = bq.index_of_digits(vectors)
        for m in range(40):
            total = reps[0]
            for g, sign in zip(picks[m], signs[m]):
                total = total + reps[g] if sign > 0 else total - reps[g]
            assert got[m] == bq.index_of_element(total)
    # the tuple form on in-range digits is the plain base-p index
    for i in range(bq.size):
        assert bq.index_of_digits(tuple(int(d) for d in dig[i])) == i


def test_cold_sub_table_expands_once_per_basis_position(monkeypatch):
    # a return to one exact expansion per difference vector, (2p-1)^D of
    # them, would make 59,049 calls here
    calls = []
    original = Level.digits_in_ball

    def counting(self, pay, lo, s):
        calls.append((lo, s))
        return original(self, pay, lo, s)

    monkeypatch.setattr(Level, "digits_in_ball", counting)
    bq = BallQuotient(Q2.extend_eisenstein([-2, 0]), -5, 5)
    assert bq.size == 1024
    _sub_table(bq)
    bq.index_of_digits(-bq.digit_matrix.T)
    assert 0 < len(calls) <= bq.D == 10


def _exact_table_grid():
    """22 quotients over 8 levels, each level with a fresh cache: Q_2, Q_3,
    Q_2-u2, Q_2-e2, the sextic level, level 4 of factorial:p=2,depth=4,
    Q_3-e2 and Q_2-u2-e2; rows on both sides of each level's s0, J = 1..4."""
    q2, q3 = Level(2), Level(3)
    u = q2.extend_unramified(2)
    spans = [
        (q2, [(0, 1), (-2, 2), (-3, 4)]),
        (q3, [(0, 2), (-1, 2), (-2, 1)]),
        (u, [(1, 2), (-1, 3), (0, 4)]),
        (q2.extend_eisenstein([-2, 0]), [(-1, 1), (-3, 2), (0, 3)]),
        (u.extend_unramified(3), [(1, 2), (0, 2)]),
        (build_factorial_tower(2, 4).level(4), [(4, 5), (3, 5), (2, 5)]),
        (q3.extend_eisenstein([-3, 0]), [(-1, 1), (-2, 2)]),
        (u.extend_eisenstein([u.element(2), u.element(2)]), [(2, 4), (1, 4), (0, 3)]),
    ]
    return [BallQuotient(lvl, lo, s) for lvl, pairs in spans for lo, s in pairs]


def _dense_pairing(bq):
    """The D x D oracle: one exact pairing angle per (dual basis, basis) pair."""
    basis = bq._basis_elements(bq.lo)
    dual_basis = bq._basis_elements(bq.level.s0 - bq.s)
    theta = [[pairing_angle(b, g) for g in basis] for b in dual_basis]
    kappa = math.lcm(*(ang.denominator for row in theta for ang in row))
    return np.array([[int(ang * kappa) for ang in row] for row in theta], dtype=np.int64), kappa


def _dense_carries(bq):
    """The D-expansion oracle: the digits of p * b for every basis element b."""
    lvl = bq.level
    E = np.array([
        lvl.digits_in_ball(lvl._smul_pay(bq.p, b.pay), bq.lo, bq.s)
        for b in bq._basis_elements(bq.lo)
    ])
    return [[(int(u), int(E[t, u])) for u in np.flatnonzero(E[t])] for t in range(bq.D)]


def test_exact_tables_come_from_their_distinct_entries(monkeypatch):
    # the pairing table reads one angle per (row sum, mu, nu) and the carry
    # table one expansion per monomial of row lo; both equal the tables
    # built entry by entry
    grid = _exact_table_grid()
    assert len(grid) == 22 and len({bq.level for bq in grid}) == 8
    angles, expansions = [], []
    angle, digits = funcspace.pairing_angle, Level.digits_in_ball
    monkeypatch.setattr(funcspace, "pairing_angle", lambda a, x: angles.append(1) or angle(a, x))
    monkeypatch.setattr(
        Level, "digits_in_ball", lambda self, *args: expansions.append(1) or digits(self, *args)
    )
    for bq in grid:
        del angles[:], expansions[:]
        theta, kappa = bq._pairing()
        carries = bq._carries()
        assert len(angles) == bq.f**2 * (2 * bq.J - 1) and len(expansions) == bq.f
        want_theta, want_kappa = _dense_pairing(bq)
        assert kappa == want_kappa and theta.dtype == np.int64
        assert theta.tobytes() == want_theta.tobytes()
        assert carries == _dense_carries(bq)


def test_index_of_digits_refuses_int64_overflow():
    bq = BallQuotient(Q2, 0, 4)
    assert bq.index_of_digits((1 << 40, 0, 0, -(1 << 40))) == 0
    # every entry 3 * 2^61: carrying would push position 1 to 9 * 2^61
    for sign in (1, -1):
        vectors = np.full((bq.D, 3), sign * (3 << 61), dtype=np.int64)
        with pytest.raises(ValueError):
            bq.index_of_digits(vectors)
        # the tuple form carries Python ints, exactly
        assert bq.index_of_digits(tuple(int(d) for d in vectors[:, 0])) == 0
    with pytest.raises(ValueError):
        bq.index_of_digits([[1 << 70], [0], [0], [0]])
    assert bq.index_of_digits((1 << 70, 0, 1, 5)) == 3


def test_neg_table():
    bq = BallQuotient(W, 2, 4)
    neg = bq.index_of_digits(-bq.digit_matrix.T)
    reps = bq.representatives()
    for j in range(bq.size):
        assert bq.index_of_element(reps[j] + reps[neg[j]]) == 0


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_fourier_round_trip(bq):
    rng = np.random.default_rng(11)
    phi = random_function(bq, rng)
    back = inverse_fourier(bq, fourier(bq, phi))
    assert np.abs(back - phi).max() < 1e-11
    assert plancherel_defect(bq, phi) < 1e-11


def test_delta_has_flat_spectrum():
    bq = BallQuotient(Q2, 0, 3)
    delta = np.zeros(bq.size)
    delta[5] = 1.0
    c = fourier(bq, delta)
    assert np.allclose(np.abs(c), 1.0 / bq.size, atol=1e-14)


FACTORIAL_4 = resolve_tower("factorial:p=2,depth=4").level(4)

# the transform against the dense oracle: every quotient above, and a
# quotient of every further level shape, up to 1,024 cosets
TRANSFORM_QUOTIENTS = QUOTIENTS + [
    BallQuotient(SEXTIC, 1, 2),
    BallQuotient(EU, -1, 3),
    BallQuotient(EE, -2, 4),
    BallQuotient(FACTORIAL_4, 2, 5),
    BallQuotient(FACTORIAL_4, 0, 3),
    BallQuotient(Q3, -3, 3),
    BallQuotient(Q2, -5, 5),
]


@pytest.mark.parametrize("bq", TRANSFORM_QUOTIENTS, ids=repr)
def test_transforms_match_the_dense_oracle(bq):
    Umat = _character_table(bq)
    rng = np.random.default_rng(19)
    phi = random_function(bq, rng)
    c = random_function(bq, rng)
    cases = [
        (fourier(bq, phi), np.conj(Umat) @ phi / bq.size),
        (inverse_fourier(bq, c), Umat.T @ c),
    ]
    for got, dense in cases:
        assert got.dtype == np.complex128 and got.shape == (bq.size,)
        assert np.abs(got - dense).max() / np.abs(dense).max() < 1e-12


# 2^16 and 2^18 cosets: a dense table would hold 2^32 or 2^36 entries
@pytest.mark.parametrize("bq", [BallQuotient(Q2, -8, 8), BallQuotient(SEXTIC, -1, 2)], ids=repr)
def test_transforms_run_far_past_a_dense_table(bq):
    phi = random_function(bq, np.random.default_rng(23))
    back = inverse_fourier(bq, fourier(bq, phi))
    assert np.abs(back - phi).max() < 1e-11
    energy = float(bq.mu_coset_mass) * float(np.sum(np.abs(phi) ** 2))
    assert plancherel_defect(bq, phi) / energy < 1e-12
    # a point mass has a flat spectrum; chi_b(0) = 1 on every label
    delta = np.zeros(bq.size)
    delta[0] = 1.0
    assert (fourier(bq, delta) == 1.0 / bq.size).all()


def test_measure_normalizations():
    bq = BallQuotient(E, E.s0, E.s0 + 3)      # the standard ball itself
    assert bq.mu_total_mass == 1
    assert bq.mu_coset_mass == Fraction(1, bq.q**3)
    ones = np.ones(bq.size)
    assert abs(np.sum(ones) * float(bq.mu_coset_mass) - 1.0) < 1e-15
    # the cosets of Haar volume q^-s fill pi^lo O, of Haar volume q^-lo
    assert bq.size * Fraction(bq.q) ** (-bq.s) == Fraction(bq.q) ** (-bq.lo)


def test_mu_equals_haar_scaled_by_standard_ball():
    # the normalized ball measure is Haar divided by the Haar mass q^{-s0}
    bq = BallQuotient(W, W.s0, W.s0 + 2)
    haar_coset_volume = Fraction(bq.q) ** (-bq.s)
    assert bq.mu_coset_mass == haar_coset_volume / Fraction(bq.q) ** (-bq.level.s0)


# ---------------------------------------------------------------------------
# refinement


@pytest.mark.parametrize(
    "src_level,dst_level", [(Q2, E), (Q2, W), (U, W), (Q2, U)]
)
def test_refinement_preserves_integrals(src_level, dst_level):
    src = BallQuotient(src_level, src_level.s0, src_level.s0 + 2)
    rng = np.random.default_rng(17)
    phi = random_function(src, rng)
    dst, phi2 = refine_function(src, phi, dst_level)
    e_rel = dst_level.e // src_level.e
    assert dst.s - dst.lo == e_rel * (src.s - src.lo)
    before = np.sum(phi) * float(src.mu_coset_mass)
    assert abs(before - np.sum(phi2) * float(dst.mu_coset_mass)) < 1e-12


def test_refinement_fibers_are_uniform():
    src = BallQuotient(Q2, 0, 2)
    rng = np.random.default_rng(1)
    phi = random_function(src, rng)
    dst, phi2 = refine_function(src, phi, W)
    counts = {}
    for g in range(dst.size):
        w = dst.representative(g)
        from padicfrac.padic import project_T

        idx = src.index_of_element(project_T(w, Q2))
        counts[idx] = counts.get(idx, 0) + 1
        assert phi2[g] == phi[idx]
    assert len(counts) == src.size
    assert len(set(counts.values())) == 1


def test_refinement_is_transitive():
    src = BallQuotient(Q2, 0, 2)
    rng = np.random.default_rng(2)
    phi = random_function(src, rng)
    via_mid, phi_mid = refine_function(src, phi, U)
    dst1, phi1 = refine_function(via_mid, phi_mid, W)
    dst2, phi2 = refine_function(src, phi, W)
    assert dst1.key() == dst2.key()
    assert np.abs(phi1 - phi2).max() == 0.0


def _refinement_map(src, dst_level):
    """dst, and the src index each dst coset is sent to."""
    dst, phi = refine_function(src, np.arange(src.size), dst_level)
    return dst, phi.real.astype(np.int64)


def _projected_index(src, dst, g):
    """Exact oracle: the src coset of T(rep_g), one projection per coset."""
    return src.index_of_element(project_T(dst.representative(g), src.level))


REFINEMENT_PAIRS = [
    (Q2, E, 1), (Q2, E, 2), (Q2, E, 3),
    (Q2, W, 1), (Q2, W, 2),
    (Q2, U, 1), (Q2, U, 2), (Q2, U, 3),
    (U, W, 1), (U, W, 2),
    (Q3, E3, 1), (Q3, E3, 2), (Q3, E3, 3),
]


@pytest.mark.parametrize(
    "src_level,dst_level,span", REFINEMENT_PAIRS,
    ids=[f"{a!r}->{b!r}-span{n}" for a, b, n in REFINEMENT_PAIRS],
)
def test_refinement_map_is_the_exact_projection_of_each_coset(src_level, dst_level, span):
    src = BallQuotient(src_level, src_level.s0, src_level.s0 + span)
    dst, idx = _refinement_map(src, dst_level)
    assert [_projected_index(src, dst, g) for g in range(dst.size)] == idx.tolist()


def test_refinement_map_on_a_sample_of_a_large_quotient(monkeypatch):
    calls = []
    original = funcspace.project_T

    def counting(x, target):
        calls.append(target)
        return original(x, target)

    monkeypatch.setattr(funcspace, "project_T", counting)
    fresh_u = Level(2).extend_unramified(2)  # a cold cache, W rebuilt
    fresh_w = fresh_u.extend_eisenstein([fresh_u.element(2), fresh_u.element(2)])
    src = BallQuotient(Q2, 0, 4)
    dst, idx = _refinement_map(src, fresh_w)
    assert dst.size == 65_536
    # one exact projection per basis position, not one per coset
    assert len(calls) == dst.D == 16
    monkeypatch.undo()
    for g in np.random.default_rng(10).choice(dst.size, 256, replace=False):
        assert _projected_index(src, dst, int(g)) == idx[g]
    # the fibres of T are the cosets of its kernel: all the same size
    assert np.bincount(idx, minlength=src.size).tolist() == [dst.size // src.size] * src.size


def test_refinement_validation():
    with pytest.raises(ValueError):
        refine_function(BallQuotient(Q2, -1, 2), np.zeros(8), W)  # lo != s0
    with pytest.raises(ValueError):
        refine_function(BallQuotient(E, E.s0, E.s0 + 1), np.zeros(2), W)


def test_same_level_refinement_is_identity():
    src = BallQuotient(Q2, 0, 2)
    phi = np.arange(4, dtype=float)
    dst, phi2 = refine_function(src, phi, Q2)
    assert dst is src and np.all(phi2 == phi)


# ---------------------------------------------------------------------------
# guards


def test_size_guards():
    # 2^20 cosets x 20 digits is past MAX_DIGIT_ENTRIES: refused before the
    # values are read or any table is built
    big = BallQuotient(Q2, 0, 20)
    flat = np.broadcast_to(np.complex128(1.0), (big.size,))  # no memory of its own
    tracemalloc.start()
    try:
        for route in (fourier, inverse_fourier):
            with pytest.raises(ValueError, match="quotient too large to enumerate"):
                route(big, flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert not [key for key in Q2._cache if key[:1] == ("bq",) and key[2:] == (0, 20)]
