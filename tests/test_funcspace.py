"""Ball quotients: digit tables, characters, transforms, refinement."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from padicfrac.padic import Level, base_level
from padicfrac.funcspace import (
    BallQuotient,
    CylFunction,
    SpectralCoefficients,
    fourier,
    haar_integral,
    inverse_fourier,
    mu_integral,
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


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_radial_apply_is_a_sum_of_ball_averages(bq):
    # the oracle finds the balls from the group law, not from digit order:
    # j lies in the ball of radius k around i iff v(rep_i - rep_j) >= k
    dist = bq.val_pi_vector[bq.sub_table]
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


def test_radial_apply_validation():
    bq = BallQuotient(Q2, -1, 2)
    phi = np.ones(bq.size)
    with pytest.raises(ValueError):
        bq.radial_apply(phi, -2, np.ones(5))
    with pytest.raises(ValueError):
        bq.radial_apply(phi, 0, np.ones(2))
    with pytest.raises(ValueError):
        bq.radial_apply(np.ones(bq.size + 1), 0, np.ones(3))


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_character_matrix_is_scaled_unitary(bq):
    Umat = bq.character_matrix
    N = bq.size
    defect = np.abs(Umat @ Umat.conj().T - N * np.eye(N)).max()
    assert defect < 1e-11


@pytest.mark.parametrize("bq", QUOTIENTS, ids=repr)
def test_sub_table_matches_element_arithmetic(bq):
    sub = bq.sub_table
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
    Umat = bq.character_matrix
    sub = bq.sub_table
    rng = random.Random(3)
    for _ in range(30):
        i = rng.randrange(bq.size)
        j = rng.randrange(bq.size)
        lhs = Umat[:, sub[i, j]]
        rhs = Umat[:, i] * np.conj(Umat[:, j])
        assert np.abs(lhs - rhs).max() < 1e-11


@pytest.mark.parametrize("bq", [QUOTIENTS[1], QUOTIENTS[3], QUOTIENTS[4]], ids=repr)
def test_character_phases_are_the_character_rows(bq):
    Umat = bq.character_matrix
    sub = bq.sub_table
    for b in range(bq.size):
        phases, kappa = bq.character_phases(b)
        assert phases.min() >= 0 and phases.max() < kappa
        assert (np.exp((2j * np.pi / kappa) * phases) == Umat[b]).all()
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


@pytest.mark.parametrize("bq", SMALL_QUOTIENTS, ids=repr)
def test_sub_table_matches_element_arithmetic_on_every_pair(bq):
    sub = bq.sub_table
    neg = bq.neg_table
    reps = bq.representatives()
    expect = np.array(
        [[bq.index_of_element(a - b) for b in reps] for a in reps]
    )
    assert sub.dtype == np.int32
    assert (sub == expect).all()
    assert (np.diag(sub) == 0).all()
    assert (sub[0, neg] == np.arange(bq.size)).all()


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
    bq.sub_table
    bq.neg_table
    assert 0 < len(calls) <= bq.D == 10


def test_neg_table():
    bq = BallQuotient(W, 2, 4)
    neg = bq.neg_table
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


def test_measure_normalizations():
    bq = BallQuotient(E, E.s0, E.s0 + 3)      # the standard ball itself
    assert bq.mu_total_mass == 1
    assert bq.mu_coset_mass == Fraction(1, bq.q**3)
    ones = np.ones(bq.size)
    assert abs(mu_integral(bq, ones) - 1.0) < 1e-15
    assert abs(haar_integral(bq, ones) - float(Fraction(bq.q) ** (-bq.lo))) < 1e-15


def test_mu_equals_haar_scaled_by_standard_ball():
    # the normalized ball measure is Haar divided by the Haar mass q^{-s0}
    bq = BallQuotient(W, W.s0, W.s0 + 2)
    rng = np.random.default_rng(5)
    phi = random_function(bq, rng)
    lhs = mu_integral(bq, phi)
    rhs = haar_integral(bq, phi) * float(Fraction(bq.q) ** bq.level.s0)
    assert abs(lhs - rhs) < 1e-12


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
    assert abs(mu_integral(src, phi) - mu_integral(dst, phi2)) < 1e-12


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
# containers and guards


def test_cyl_function_validation():
    bq = BallQuotient(Q2, 0, 2)
    CylFunction(bq, np.zeros(4))
    with pytest.raises(ValueError):
        CylFunction(bq, np.zeros(5))
    SpectralCoefficients(bq, np.zeros(4))
    with pytest.raises(ValueError):
        SpectralCoefficients(bq, np.zeros(3))


def test_size_guards():
    big = BallQuotient(Q2, 0, 14)
    with pytest.raises(ValueError):
        big.character_matrix
    with pytest.raises(ValueError):
        big.sub_table
