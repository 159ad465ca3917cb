from fractions import Fraction

import numpy as np
import pytest

from padicfrac import base_level, measures, vladimirov
from padicfrac.funcspace import (
    BallQuotient,
    fourier,
    inverse_fourier,
    random_function,
)
from padicfrac.measures import (
    heat_coset_vector,
    levy_integral,
    levy_integral_spectral,
    levy_shell_mass,
)
from padicfrac.padic import Level
from padicfrac.tower import resolve_tower
from padicfrac.vladimirov import (
    apply_hypersingular,
    apply_spectral,
    eigenvalue_estimates,
    semigroup_apply,
)

Q2 = base_level(2)
Q3 = base_level(3)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([-2, 0])
W = resolve_tower("factorial:p=2,depth=4").level(4)

QUOTIENTS = [
    BallQuotient(Q2, 0, 4),
    BallQuotient(Q2, -2, 2),
    BallQuotient(Q3, -1, 2),
    BallQuotient(U, 1, 3),
    BallQuotient(U, 0, 3),
    BallQuotient(E, -1, 3),
    BallQuotient(W, 2, 4),     # s = s0: the operator is zero
    BallQuotient(W, 2, 5),     # s = s0 + 1 on the wild level
    BallQuotient(E, -1, 0),    # lo = s0 and s = s0 + 1
]

ALPHAS = [0.5, 1.0, 2.0]


def _character_table(quotient):
    """The dense oracle U[b, g] = chi_b(g), |G| x |G|, from the exact
    phases, one label's row at a time."""
    rows = [quotient.character_phases(b) for b in range(quotient.size)]
    return np.array([np.exp((2j * np.pi / kappa) * phases) for phases, kappa in rows])


def _jump_masses(quotient, alpha):
    """The jump-measure mass n_j of every coset: each shell's mass over its
    exact coset count, and 0.0 on the zero coset."""
    shells = range(quotient.lo, quotient.s)
    per_shell = [
        levy_shell_mass(quotient.level, alpha, w) / n for w, n in zip(shells, quotient.shell_sizes())
    ]
    return quotient.from_shells(per_shell + [0.0])


def spectral_multiplier(quotient, alpha):
    """The dense multiplier oracle: ||b||**alpha = p^(-v alpha / e) on each
    dual label b of valuation v < 0, and 0.0 on the labels of nonnegative
    valuation (they annihilate the standard ball)."""
    val = quotient.dual().val_pi_vector
    power = float(quotient.p) ** (-val * float(alpha) / quotient.level.e)
    return np.where(val < 0, power, 0.0)


def _dense_eigenvalues(quotient, alpha):
    """The kernel route on every character: sum_j n_j (1 - chi_b(j))."""
    return (1.0 - _character_table(quotient)) @ _jump_masses(quotient, alpha)


def test_base_field_weights():
    q = BallQuotient(Q2, 0, 2)
    n = _jump_masses(q, 1.0)
    # index order: (0,0), (0,1), (1,0), (1,1); the zero coset carries no
    # mass, the valuation-1 coset the whole shell mass 3/2 and each
    # valuation-0 coset half of the shell mass 1
    assert np.allclose(n, [0.0, 1.5, 0.5, 0.5], atol=1e-14)


def test_base_field_multiplier_values():
    q = BallQuotient(Q2, 0, 2)
    assert spectral_multiplier(q, 1.0).tolist() == [0.0, 2.0, 4.0, 4.0]


def test_weights_vanish_outside_standard_ball():
    q = BallQuotient(U, 0, 3)  # lo = 0 < s0 = 1
    w = _jump_masses(q, 1.0)
    vals = q.val_pi_vector
    assert (w[(vals < U.s0)] == 0).all()
    assert w[0] == 0
    assert (w[(vals >= U.s0) & (np.arange(q.size) != 0)] > 0).all()


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
@pytest.mark.parametrize("alpha", ALPHAS)
def test_characters_are_eigenvectors(quotient, alpha):
    dense = _dense_eigenvalues(quotient, alpha)
    assert np.abs(dense - spectral_multiplier(quotient, alpha)).max() < 1e-10
    got = eigenvalue_estimates(quotient, alpha)
    assert got.dtype == np.complex128 and got.shape == (quotient.size,)
    assert np.abs(got - dense).max() / max(1.0, np.abs(dense).max()) < 1e-12


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
def test_annihilator_labels_are_exact_kernel(quotient):
    lam_hat = eigenvalue_estimates(quotient, 1.0)
    dual_vals = quotient.dual().val_pi_vector
    dead = lam_hat[dual_vals >= 0]
    assert dead.size > 0
    assert (dead == 0).all()


def _dense_kernel(quotient, alpha):
    """The kernel route as an n x n matrix, summed coset by coset through
    the subtraction table: psi_i = sum_j n_j (phi_i - phi_sub(i,j)),
    sub(i, j) = index of rep_i - rep_j carried from digit differences."""
    w = _jump_masses(quotient, alpha)
    n = quotient.size
    dT = quotient.digit_matrix.T
    sub = quotient.index_of_digits((dT[:, :, None] - dT[:, None, :]).reshape(quotient.D, -1))
    mat = np.zeros((n, n))
    rows = np.broadcast_to(np.arange(n)[:, None], (n, n))
    np.subtract.at(mat, (rows, sub.reshape(n, n)), np.broadcast_to(w, (n, n)))
    mat[np.arange(n), np.arange(n)] += w.sum()
    return mat


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
@pytest.mark.parametrize("alpha", ALPHAS)
def test_radial_routes_match_dense_oracles(quotient, alpha):
    rng = np.random.default_rng(21)
    phi = random_function(quotient, rng)
    Umat = _character_table(quotient)
    coeffs = np.conj(Umat) @ phi / quotient.size
    lam = spectral_multiplier(quotient, alpha)
    cases = [
        (apply_spectral(quotient, phi, alpha), Umat.T @ (lam * coeffs)),
        (semigroup_apply(quotient, phi, alpha, 0.7), Umat.T @ (np.exp(-0.7 * lam) * coeffs)),
        (apply_hypersingular(quotient, phi, alpha), _dense_kernel(quotient, alpha) @ phi),
    ]
    for radial, dense in cases:
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(radial - dense).max() / scale < 1e-10


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_and_multiplier_routes_agree(quotient, alpha):
    rng = np.random.default_rng(20)
    phi = random_function(quotient, rng)
    via_multiplier = apply_spectral(quotient, phi, alpha)
    via_kernel = apply_hypersingular(quotient, phi, alpha)
    scale = max(1.0, np.abs(via_multiplier).max())
    assert np.abs(via_multiplier - via_kernel).max() / scale < 1e-9


def test_routes_on_a_quotient_without_jump_shells():
    # s = s0: no shell carries jump mass, so nothing forms lambda_1, which
    # is past float range at alpha = 1e6; every label annihilates the ball
    q = BallQuotient(Q2, -1, 0)
    phi = random_function(q, np.random.default_rng(4))
    via_multiplier = apply_spectral(q, phi, 1e6)
    via_kernel = apply_hypersingular(q, phi, 1e6)
    assert np.abs(via_multiplier - via_kernel).max() == 0.0
    assert (eigenvalue_estimates(q, 1e6) == 0.0).all()


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
def test_matrix_symmetric_and_psd(quotient):
    basis = np.eye(quotient.size)
    mat = np.stack([apply_hypersingular(quotient, e, 1.0) for e in basis], axis=1)
    assert np.abs(mat.imag).max() == 0.0
    mat = mat.real
    assert np.abs(mat - mat.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() > -1e-10


def test_routes_run_past_the_dense_table_caps():
    q = BallQuotient(Q2, -7, 7)  # 16384 cosets: a dense table would hold 2^28
    rng = np.random.default_rng(8)
    phi = random_function(q, rng)
    for alpha in ALPHAS:
        via_multiplier = apply_spectral(q, phi, alpha)
        via_kernel = apply_hypersingular(q, phi, alpha)
        scale = max(1.0, np.abs(via_multiplier).max())
        assert np.abs(via_multiplier - via_kernel).max() / scale < 1e-9
        ones = np.ones(q.size)
        assert np.abs(apply_spectral(q, ones, alpha)).max() < 1e-9
        assert np.abs(apply_hypersingular(q, ones, alpha)).max() < 1e-9
    dense = [
        key for key in Q2._cache
        if isinstance(key, tuple) and key[1] in ("U", "sub", "hyp") and key[2:4] == (-7, 7)
    ]
    assert dense == []


def test_eigenvalue_estimates_run_past_a_dense_table():
    q = BallQuotient(Q2, -8, 8)  # 65,536 cosets: a dense table would hold 2^32
    dead = q.dual().val_pi_vector >= 0
    for alpha in ALPHAS:
        lam_hat = eigenvalue_estimates(q, alpha)
        lam = spectral_multiplier(q, alpha)
        assert np.abs(lam_hat - lam).max() / lam.max() < 1e-12
        assert (lam_hat[dead] == 0).all()


def test_self_adjoint_for_mu_inner_product():
    q = BallQuotient(E, -1, 3)
    rng = np.random.default_rng(3)
    f = random_function(q, rng)
    g = random_function(q, rng)
    mass = float(q.mu_coset_mass)
    lhs = (apply_hypersingular(q, f, 1.5) * g.conj()).sum() * mass
    rhs = (f * apply_hypersingular(q, g, 1.5).conj()).sum() * mass
    assert abs(lhs - rhs) < 1e-12


def test_constants_are_killed():
    for quotient in QUOTIENTS:
        ones = np.ones(quotient.size)
        out = apply_hypersingular(quotient, ones, 1.0)
        assert np.abs(out).max() < 1e-12


def test_operator_positive_on_mean_zero():
    q = BallQuotient(Q2, -1, 3)
    rng = np.random.default_rng(11)
    f = random_function(q, rng)
    energy = (apply_hypersingular(q, f, 1.0) * f.conj()).sum()
    assert energy.real > -1e-12
    assert abs(energy.imag) < 1e-12


@pytest.mark.parametrize("quotient", QUOTIENTS, ids=lambda q: q.key())
def test_routes_take_python_and_numpy_scalars_alike(quotient):
    phi = random_function(quotient, np.random.default_rng(12))
    ones = (1, 1.0, np.float64(1.0))
    outs = [
        [route(quotient, phi, alpha).tobytes() for alpha in ones]
        for route in (apply_spectral, apply_hypersingular)
    ]
    outs.append(
        [semigroup_apply(quotient, phi, alpha, t).tobytes() for alpha in ones for t in (1, 1.0)]
    )
    for same in outs:
        assert len(set(same)) == 1


def test_domain_validation():
    bad = BallQuotient(U, 2, 4)  # lo = 2 > s0 = 1
    with pytest.raises(ValueError):
        apply_hypersingular(bad, np.zeros(bad.size), 1.0)
    with pytest.raises(ValueError):
        eigenvalue_estimates(bad, 1.0)
    with pytest.raises(ValueError):
        apply_spectral(bad, np.zeros(bad.size), 1.0)


def test_alpha_scaling_of_multiplier():
    q = BallQuotient(Q2, -2, 2)
    lam1 = spectral_multiplier(q, 1.0)
    lam2 = spectral_multiplier(q, 2.0)
    assert np.allclose(lam2, lam1**2)


def test_semigroup_identity_at_time_zero():
    q = BallQuotient(U, 1, 3)
    rng = np.random.default_rng(5)
    phi = random_function(q, rng)
    out = semigroup_apply(q, phi, 1.0, 0.0)
    assert np.abs(out - phi).max() < 1e-12


def test_semigroup_composition():
    q = BallQuotient(E, -1, 3)
    rng = np.random.default_rng(6)
    phi = random_function(q, rng)
    one_step = semigroup_apply(q, phi, 0.5, 0.7)
    two_step = semigroup_apply(q, semigroup_apply(q, phi, 0.5, 0.3), 0.5, 0.4)
    assert np.abs(one_step - two_step).max() < 1e-12


def test_semigroup_is_markov():
    # nonnegative functions stay nonnegative and the mean is conserved:
    # the generator has nonnegative off-diagonal rates and zero row sums
    for quotient in (BallQuotient(Q2, 0, 3), BallQuotient(W, 2, 4)):
        rng = np.random.default_rng(9)
        phi = rng.random(quotient.size)
        out = semigroup_apply(quotient, phi, 1.0, 0.8)
        assert np.abs(out.imag).max() < 1e-12
        assert out.real.min() > -1e-12
        mass = float(quotient.mu_coset_mass)
        before = np.sum(phi) * mass
        after = np.sum(out) * mass
        assert abs(before - after) < 1e-12


def test_heat_multiplier_matches_eigenvalues():
    # the semigroup's multiplier, read off each character of the dense table
    q = BallQuotient(Q2, 0, 2)
    Umat = _character_table(q)
    damped = np.stack([semigroup_apply(q, chi, 1.0, 2.0) for chi in Umat])
    hm = (damped * np.conj(Umat)).sum(axis=1) / q.size
    lam = spectral_multiplier(q, 1.0)
    assert np.allclose(hm, np.exp(-2.0 * lam))
    assert hm[0] == 1.0


def test_semigroup_damps_towards_projection():
    # large times kill every nonzero-eigenvalue mode, leaving the
    # average over translates of the standard ball
    q = BallQuotient(Q2, 0, 3)
    rng = np.random.default_rng(13)
    phi = random_function(q, rng)
    out = semigroup_apply(q, phi, 1.0, 60.0)
    coeffs = fourier(q, phi)
    lam = spectral_multiplier(q, 1.0)
    kept = coeffs.copy()
    kept[lam > 0] = 0.0
    assert np.abs(out - inverse_fourier(q, kept)).max() < 1e-12


# ---------------------------------------------------------------------------
# route coefficients, built once per (quotient, alpha[, t]) in the level cache


def _six_routes(quotient, phi, alpha, t):
    """Every route that reads cached coefficients, as comparable bytes."""
    return [
        apply_spectral(quotient, phi, alpha).tobytes(),
        apply_hypersingular(quotient, phi, alpha).tobytes(),
        semigroup_apply(quotient, phi, alpha, t).tobytes(),
        repr(levy_integral(quotient, alpha, phi)),
        repr(levy_integral_spectral(quotient, alpha, phi)),
        heat_coset_vector(quotient, alpha, t).tobytes(),
    ]


def _coefficient_keys(quotient):
    """The names of the quotient's cached coefficient entries."""
    return {
        key[1]
        for key in quotient.level._cache
        if isinstance(key, tuple) and key[0] == "bq" and isinstance(key[1], tuple)
        and key[2:] == (quotient.lo, quotient.s)
    }


@pytest.fixture
def builds(monkeypatch):
    """Counts the calls of the two scalar formulas every coefficient is built from."""
    counts = {"_jump_shell_masses": 0, "_eigenvalue": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    shells = counted("_jump_shell_masses", vladimirov._jump_shell_masses)
    monkeypatch.setattr(vladimirov, "_jump_shell_masses", shells)
    eigenvalue = counted("_eigenvalue", vladimirov._eigenvalue)
    monkeypatch.setattr(vladimirov, "_eigenvalue", eigenvalue)
    monkeypatch.setattr(measures, "_eigenvalue", eigenvalue)
    return counts


def _zero_at_origin(quotient, seed):
    phi = random_function(quotient, np.random.default_rng(seed))
    phi[0] = 0.0
    return phi


def test_a_warm_route_builds_nothing(builds):
    quotient = BallQuotient(Level(2), -3, 3)
    phi = _zero_at_origin(quotient, 21)
    first = _six_routes(quotient, phi, 1.0, 0.5)
    assert all(builds.values())
    cold = dict(builds)
    assert _six_routes(quotient, phi, 1.0, 0.5) == first
    # it reads the jump coset masses the jump integral built
    eigenvalue_estimates(quotient, 1.0)
    assert builds == cold


def test_a_new_alpha_or_t_builds_again(builds):
    quotient = BallQuotient(Level(2), -3, 3)
    phi = _zero_at_origin(quotient, 22)
    first = _six_routes(quotient, phi, 1, 0.5)
    keys = {
        ("spectral", 1.0), ("kernel", 1.0), ("jump_cosets", 1.0),
        ("semigroup", 1.0, 0.5), ("heat", 1.0, 0.5),
    }
    assert _coefficient_keys(quotient) == keys
    cold = dict(builds)
    for alpha in (1.0, Fraction(1), np.float64(1.0)):
        assert _six_routes(quotient, phi, alpha, Fraction(1, 2)) == first
    assert builds == cold and _coefficient_keys(quotient) == keys
    # a new t builds the semigroup and heat coefficients only
    _six_routes(quotient, phi, 1.0, 2)
    assert builds["_eigenvalue"] > cold["_eigenvalue"]
    assert builds["_jump_shell_masses"] == cold["_jump_shell_masses"]
    keys |= {("semigroup", 1.0, 2.0), ("heat", 1.0, 2.0)}
    assert _coefficient_keys(quotient) == keys
    # a new alpha builds all five
    warm = dict(builds)
    _six_routes(quotient, phi, 0.5, 2.0)
    assert builds["_eigenvalue"] > warm["_eigenvalue"]
    assert builds["_jump_shell_masses"] > warm["_jump_shell_masses"]
    keys |= {
        ("spectral", 0.5), ("kernel", 0.5), ("jump_cosets", 0.5),
        ("semigroup", 0.5, 2.0), ("heat", 0.5, 2.0),
    }
    assert _coefficient_keys(quotient) == keys


FRESH_LEVELS = {
    "Q_2": lambda: Level(2),
    "Q_2-u2": lambda: Level(2).extend_unramified(2),
    "Q_2-e2": lambda: Level(2).extend_eisenstein([-2, 0]),
    "Q_3": lambda: Level(3),
}


@pytest.mark.parametrize(
    "name, lo, s", [("Q_2", -4, 4), ("Q_2-u2", -1, 3), ("Q_2-e2", -4, 2), ("Q_3", -2, 2)]
)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_warm_routes_match_a_fresh_level_bit_for_bit(name, lo, s, alpha):
    warm = BallQuotient(FRESH_LEVELS[name](), lo, s)
    phi = _zero_at_origin(warm, 23)
    for t in (0.5, 1.0):
        _six_routes(warm, phi, alpha, t)
    for t in (0.5, 1.0):
        fresh = BallQuotient(FRESH_LEVELS[name](), lo, s)
        assert _six_routes(warm, phi, alpha, t) == _six_routes(fresh, phi, alpha, t)


def test_a_quotient_outside_the_domain_caches_nothing():
    bad = BallQuotient(Level(2).extend_unramified(2), 2, 4)  # lo = 2 > s0 = 1
    phi = np.zeros(bad.size)
    routes = [
        lambda: apply_spectral(bad, phi, 1.0),
        lambda: apply_hypersingular(bad, phi, 1.0),
        lambda: semigroup_apply(bad, phi, 1.0, 1.0),
        lambda: eigenvalue_estimates(bad, 1.0),
        lambda: levy_integral_spectral(bad, 1.0, phi),
    ]
    for _ in range(2):
        for route in routes:
            with pytest.raises(ValueError, match="lo <= s0 <= s"):
                route()
    assert _coefficient_keys(bad) == set()
