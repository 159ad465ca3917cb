import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfrac import base_level
from padicfrac.funcspace import BallQuotient, random_function
from padicfrac.measures import (
    _reciprocal_underflows,
    heat_ball_mass,
    heat_coset_vector,
    heat_cylinder_mass,
    heat_density,
    heat_lower_bound,
    heat_shell_masses,
    levy_cutoff_valuation,
    levy_integral,
    levy_integral_spectral,
    levy_log_characteristic,
    levy_shell_mass,
    mu_ball_mass,
    mu_cylinder_mass,
    singularity_report,
)
from padicfrac.process import build_jump_law
from padicfrac.tower import build_unramified_tower, resolve_tower
from padicfrac.vladimirov import (
    _jump_coset_masses,
    _jump_shell_masses,
    apply_hypersingular,
    apply_spectral,
    semigroup_apply,
)

Q2 = base_level(2)
Q3 = base_level(3)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([-2, 0])
W = resolve_tower("factorial:p=2,depth=4").level(4)

LEVELS = [Q2, Q3, U, E, W]


# ---------------------------------------------------------------------------
# mu


def test_mu_ball_masses_exact():
    assert mu_ball_mass(Q2, 3) == Fraction(1, 8)
    assert mu_ball_mass(Q2, 0) == 1
    assert mu_ball_mass(Q2, -5) == 1
    assert mu_ball_mass(U, 1) == 1  # s0 = 1
    assert mu_ball_mass(U, 3) == Fraction(1, 16)
    assert mu_ball_mass(E, 0) == Fraction(1, 2)  # s0 = -1
    assert mu_ball_mass(W, 6) == Fraction(1, 16)  # s0 = 4, q = 4


@given(st.integers(-4, 12))
def test_mu_ball_mass_scaling(v0):
    for lvl in (Q2, U, E):
        if v0 >= lvl.s0:
            assert mu_ball_mass(lvl, v0 + 1) * lvl.q == mu_ball_mass(lvl, v0)


def test_mu_cylinder_is_power_of_base_residue_size():
    for lvl in LEVELS:
        for N in (0, 1, 2):
            assert mu_cylinder_mass(lvl, N) == Fraction(1, lvl.p ** (N * lvl.m))
    with pytest.raises(ValueError):
        mu_cylinder_mass(Q2, -1)


# ---------------------------------------------------------------------------
# heat


def test_heat_density_base_field_value():
    # at the support edge the finite sum is empty and only the telescoped
    # term survives: 1 - exp(-t q^(alpha/m))
    got = heat_density(Q2, 1.0, 1.0, 0)
    assert abs(got - (1.0 - math.exp(-2.0))) < 1e-15
    assert heat_density(Q2, 1.0, 1.0, -1) == 0.0


def test_heat_density_support_and_monotone():
    for lvl in LEVELS:
        assert heat_density(lvl, 1.0, 1.0, -lvl.d - 1) == 0.0
        prev = 0.0
        for w in range(-lvl.d, -lvl.d + 12):
            cur = heat_density(lvl, 1.0, 1.0, w)
            assert cur >= prev - 1e-15
            prev = cur


@settings(max_examples=40)
@given(
    st.floats(0.2, 3.0, allow_nan=False),
    st.floats(0.05, 8.0, allow_nan=False),
    st.integers(-10, 14),
)
def test_heat_density_nonnegative(alpha, t, w):
    for lvl in (Q2, E):
        assert heat_density(lvl, alpha, t, w) >= 0.0


def test_heat_ball_mass_saturates():
    for lvl in LEVELS:
        assert heat_ball_mass(lvl, 1.0, 1.0, -lvl.d) == 1.0
        assert heat_ball_mass(lvl, 1.0, 1.0, -lvl.d - 3) == 1.0


def test_heat_ball_mass_telescopes_density():
    for lvl in (Q2, U, W):
        for v0 in range(-lvl.d + 1, -lvl.d + 8):
            shells = sum(
                heat_density(lvl, 1.0, 0.9, w) * (1.0 - 1.0 / lvl.q) * float(lvl.q) ** (-w)
                for w in range(-lvl.d, v0)
            )
            assert abs(shells + heat_ball_mass(lvl, 1.0, 0.9, v0) - 1.0) < 1e-12


@pytest.mark.parametrize("lvl", LEVELS, ids=lambda l: f"e{l.e}f{l.f}")
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("N", [1, 2])
def test_heat_cylinder_mass_matches_density_shells(lvl, alpha, N):
    # the density oracle summed over the 200 shells inside the cylinder; the
    # ones past them weigh below q^-200
    q = float(lvl.q)
    v0 = N * lvl.e - lvl.d
    shells = math.fsum(
        heat_density(lvl, alpha, 1.0, w) * (1.0 - 1.0 / q) * q ** (-w)
        for w in range(v0, v0 + 200)
    )
    assert abs(heat_cylinder_mass(lvl, alpha, 1.0, N) - shells) < 1e-15


def test_heat_cylinder_limits():
    for lvl in (Q2, U, E):
        # equilibrium: all decay factors die and the cylinder keeps exactly
        # its mu mass
        assert abs(heat_cylinder_mass(lvl, 1.0, 200.0, 1) - float(mu_cylinder_mass(lvl, 1))) < 1e-15
        # short times: the mass has not yet escaped the cylinder
        assert heat_cylinder_mass(lvl, 1.0, 1e-9, 1) > 1.0 - 1e-7


def test_heat_coset_vector_matches_semigroup():
    cases = [
        (BallQuotient(Q2, 0, 3), 0.5, 0.7),
        (BallQuotient(Q2, -2, 2), 1.0, 1.0),
        (BallQuotient(U, 1, 3), 1.0, 0.4),
        (BallQuotient(E, -1, 3), 0.5, 1.3),
        (BallQuotient(W, 2, 4), 1.0, 0.7),
    ]
    for quotient, alpha, t in cases:
        delta = np.zeros(quotient.size)
        delta[0] = 1.0
        via_operator = semigroup_apply(quotient, delta, alpha, t)
        via_density = heat_coset_vector(quotient, alpha, t)
        assert abs(via_density.sum() - 1.0) < 1e-12
        assert np.abs(via_operator - via_density).max() < 1e-12


@pytest.mark.parametrize(
    "quotient",
    [
        BallQuotient(Q2, -3, 3), BallQuotient(Q2, -3, 0), BallQuotient(Q3, -2, 2),
        BallQuotient(U, -1, 3), BallQuotient(E, -4, 2), BallQuotient(W, 2, 6),
    ],
    ids=lambda q: q.key(),
)
def test_heat_coset_vector_is_the_shell_densities_exactly(quotient):
    # each shell against the density-unit oracle, the zero coset against
    # the ball mass: the same bits where q = 2 scales exactly, a few
    # rounding steps apart otherwise
    lvl = quotient.level
    q = float(lvl.q)
    ec = lvl.e * lvl.c
    cell = q ** float(-quotient.s)
    exact = lvl.q == 2
    for alpha, t in [(0.5, 0.1), (1.0, 1.0), (2.0, 3.0)]:
        oracle = [
            q**ec * heat_density(lvl, alpha, t, w - ec) * cell
            for w in range(quotient.lo, quotient.s)
        ]
        oracle.append(heat_ball_mass(lvl, alpha, t, quotient.s - ec))
        masses = quotient.per_coset(heat_shell_masses(quotient, alpha, t))
        vector = heat_coset_vector(quotient, alpha, t)
        assert vector.tobytes() == quotient.from_shells(masses).tobytes()
        if exact:
            assert masses == oracle
            assert vector.tobytes() == quotient.from_shells(oracle).tobytes()
        else:
            assert masses == pytest.approx(oracle, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "quotient",
    [
        BallQuotient(Q2, -3, 3), BallQuotient(Q3, -2, 2), BallQuotient(U, -1, 3),
        BallQuotient(E, -4, 2), BallQuotient(W, 2, 6), BallQuotient(Q2, 0, 1000),
    ],
    ids=lambda q: q.key(),
)
def test_whole_shell_masses_are_count_times_mass(quotient):
    for alpha, t in [(0.5, 0.1), (1.0, 1.0), (2.0, 3.0)]:
        totals = heat_shell_masses(quotient, alpha, t)
        masses = quotient.per_coset(totals)
        products = [k * m for k, m in zip(quotient.shell_sizes(), masses)]
        if quotient.q == 2:
            # a power-of-two count scales exactly: the same bits either way
            assert products == totals
        else:
            assert products == pytest.approx(totals, rel=1e-15, abs=0.0)
        if quotient.lo <= quotient.level.s0:
            assert abs(math.fsum(totals) - 1.0) < 1e-12


@pytest.mark.parametrize("level", [Q2, Q3, W], ids=repr)
def test_heat_shells_stay_in_float_range_past_it(level):
    # counts past 2^1024 and per-coset masses below 2^-1074: the totals
    # still sum to 1, and the shells of a shallower quotient keep their mass
    deep = BallQuotient(level, level.s0, level.s0 + 2000)
    totals = heat_shell_masses(deep, 1.0, 1.0)
    assert all(math.isfinite(x) and x >= 0.0 for x in totals)
    assert abs(math.fsum(totals) - 1.0) < 1e-12
    assert deep.per_coset(totals)[0] == 0.0
    shallow = BallQuotient(level, level.s0, level.s0 + 40)
    assert totals[:40] == heat_shell_masses(shallow, 1.0, 1.0)[:40]
    assert heat_ball_mass(level, 1.0, 1.0, 3000) == 0.0
    assert heat_density(level, 1.0, 1.0, 3000) == heat_density(level, 1.0, 1.0, 200)


def test_heat_density_at_a_residue_field_past_float_range():
    # q = 2^1458 stays an int: at w = 0 no power of q is a float, and the
    # density is 1 - exp(-lambda_1 t); at w = 1 it is truly past float range
    level = resolve_tower("unramified:p=2,f=1-2-6-18-54-162-486-1458").level(8)
    assert level.d == 0
    assert heat_density(level, 1.0, 1.0, 0) == 1 - math.exp(-2.0)
    with pytest.raises(OverflowError):
        heat_density(level, 1.0, 1.0, 1)


def _reference_shell_masses(level, lo, s, alpha, t):
    """Whole-shell heat masses to 50 digits, in density units: the ball mass
    q^-k A_k with A_k = 1 + (1 - 1/q) sum_{j<=k} q^j u_j, exact powers of q."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(level.q)
        k_top = s - level.s0
        u = [
            (-Decimal(t) * Decimal(level.p) ** (Decimal(j) * Decimal(alpha) / level.e)).exp()
            for j in range(k_top + 1)
        ]
        prefix = [Decimal(1)]
        for j in range(1, k_top + 1):
            prefix.append(prefix[-1] + (1 - 1 / q) * q**j * u[j])
        ball = [a / q**k for k, a in enumerate(prefix)]
        shells = [
            (1 - 1 / q) * (ball[w - level.s0] - u[w - level.s0 + 1]) if w >= level.s0 else 0
            for w in range(lo, s)
        ]
        return shells + [ball[-1]]


@pytest.mark.parametrize(
    "tower, n",
    [
        ("unramified:p=2,f=1-2-6-24", 2), ("unramified:p=2,f=1-2-6-24", 4), ("qp:p=3", 1),
        ("factorial:p=2,depth=4", 4), ("unramified:p=3,f=1-2-6-18-54", 5),
    ],
)
def test_whole_shell_masses_match_a_50_digit_reference(tower, n):
    level = resolve_tower(tower).level(n)
    quotient = BallQuotient(level, level.s0 - 1, level.s0 + 8)
    for alpha, t in [(0.5, 0.1), (1.0, 1.0), (2.0, 3.0)]:
        got = heat_shell_masses(quotient, alpha, t)
        want = _reference_shell_masses(level, quotient.lo, quotient.s, alpha, t)
        for x, ref in zip(got, want):
            assert abs(Decimal(x) - ref) <= Decimal("5e-15") * ref


def test_singular_vs_mu_report():
    tower = build_unramified_tower(2, [1, 2, 6, 24])
    rows = singularity_report(tower, 1.0, 1.0, 1)
    assert [r["mu"] for r in rows] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 64),
        Fraction(1, 2**24),
    ]
    u = math.exp(-2.0)
    expected_heat = [
        (1 + u) / 2,
        (1 + 3 * u) / 4,
        (1 + 63 * u) / 64,
        (1 + (2**24 - 1) * u) / 2**24,
    ]
    for row, want in zip(rows, expected_heat):
        assert abs(row["heat"] - want) < 1e-12
        assert row["heat"] >= row["lower_bound"]
    # the mu masses vanish while the heat masses stay bounded below, so the
    # mass ratio explodes along the tower
    ratios = [r["ratio"] for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert rows[-1]["log10_ratio"] > 6.0
    assert all(r["lower_bound"] >= 0.5 * u - 1e-12 for r in rows)


FIELD_SIZES = {
    "2": 2, "3": 3, "4": 4, "5": 5, "7": 7, "9": 9, "3^5": 3**5, "2^24-3": 2**24 - 3,
    "2^24": 2**24, "2^269-1": 2**269 - 1, "3^162": 3**162, "2^1458": 2**1458,
}


@pytest.mark.parametrize("q", FIELD_SIZES.values(), ids=FIELD_SIZES.keys())
def test_reciprocal_underflow_is_read_from_bit_lengths(q):
    # every k on both sides of the bit-length bounds, the exact compare
    # between them included, agrees with the float of the exact mass
    b = q.bit_length()
    for k in range(max(1075 // b - 2, 0), 1075 // (b - 1) + 3):
        assert _reciprocal_underflows(q, k) == (float(Fraction(1, q**k)) == 0.0), k


def test_heat_lower_bound_is_level_uniform():
    tower = resolve_tower("factorial:p=2,depth=4")
    for lvl in tower:
        assert abs(
            heat_lower_bound(lvl, 1.0, 1.0, 1)
            - (1 - 1 / lvl.q) * math.exp(-2.0)
        ) < 1e-15


# ---------------------------------------------------------------------------
# the jump measure


def test_levy_shell_masses_base_field():
    got = [levy_shell_mass(Q2, 1.0, w) for w in range(3)]
    assert np.allclose(got, [1.0, 1.5, 2.75], atol=1e-14)
    got2 = [levy_shell_mass(Q2, 2.0, w) for w in range(2)]
    assert np.allclose(got2, [2.0, 7.0], atol=1e-13)


def test_levy_shell_masses_unramified_quadratic():
    assert levy_shell_mass(U, 1.0, 0) == 0.0  # below s0 = 1
    assert abs(levy_shell_mass(U, 1.0, 1) - 1.5) < 1e-14
    assert abs(levy_shell_mass(U, 1.0, 2) - 1.875) < 1e-14


def _reference_jump_shell_masses(level, alpha, ks):
    """Jump-measure shell masses M_w, w = s0 + k, to 50 digits in the
    paper's form -C (1 - 1/q) [q^((w - ec) a) + kappa q^(ec - w)], a = alpha/m,
    with C = q^(d a) (1 - q^a) / (1 - q^(-1-a)) and kappa = (1 - 1/q) /
    (q^a - 1) q^(-d (1 + a))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(level.q)
        a = Decimal(alpha) / level.m
        ec, d = level.e * level.c, level.d
        C = q ** (d * a) * (1 - q**a) / (1 - q ** (-1 - a))
        kappa = (1 - 1 / q) / (q**a - 1) * q ** (-d * (1 + a))
        return [
            -C * (1 - 1 / q) * (q ** ((level.s0 + k - ec) * a) + kappa * q ** (ec - level.s0 - k))
            for k in ks
        ]


JUMP_REFERENCE_LEVELS = {
    **{f"Q{p}": base_level(p) for p in (2, 3)},
    **{f"Q{p}-u2": base_level(p).extend_unramified(2) for p in (2, 3)},
    **{f"Q{p}-e2": base_level(p).extend_eisenstein([-p, 0]) for p in (2, 3)},
    "factorial2-top": resolve_tower("factorial:p=2,depth=4").level(4),
    "factorial3-top": resolve_tower("factorial:p=3,depth=3").level(3),
}


@pytest.mark.parametrize("name", JUMP_REFERENCE_LEVELS)
def test_jump_shell_masses_match_a_50_digit_reference(name):
    level = JUMP_REFERENCE_LEVELS[name]
    # a tiny alpha makes q^(alpha/m) - 1 cancel in kappa's denominator, so
    # the masses are written without it; they hold to the last bits there
    # too, and at a large alpha, where fewer shells stay in float range
    grid = [(alpha, range(12)) for alpha in (1e-12, 1e-6, 1e-3, 0.05, 0.5, 1.0, 2.0, 3.0)]
    grid += [(alpha, range(3)) for alpha in (10.3, 50.0, 128.0)]
    for alpha, ks in grid:
        got = _jump_shell_masses(level, alpha, [level.s0 + k for k in ks])
        for x, ref in zip(got, _reference_jump_shell_masses(level, alpha, ks)):
            assert abs(Decimal(x) - ref) <= Decimal("1e-15") * ref


def test_an_empty_shell_range_forms_no_eigenvalue():
    # lambda_1 is past float range at alpha = 1e6, and no shell needs it
    for level in (Q2, W):
        assert _jump_shell_masses(level, 1e6, range(level.s0, level.s0)) == []


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_log_characteristic_at_a_residue_field_past_float_range(L, alpha):
    # q = 2^1458: 1/q underflows to 0.0, and the shells still sum to the norm power
    level = resolve_tower("unramified:p=2,f=1-2-6-18-54-162-486-1458").level(8)
    want = -(2.0 ** (L * alpha))
    assert abs(levy_log_characteristic(level, alpha, -L) - want) <= 1e-15 * abs(want)


def test_levy_cutoff_valuation_exact():
    assert levy_cutoff_valuation(Q2, 1) == 0
    assert levy_cutoff_valuation(Q2, Fraction(1, 2)) == 1
    assert levy_cutoff_valuation(Q2, Fraction(1, 4)) == 2
    assert levy_cutoff_valuation(E, Fraction(1, 2)) == 2  # e = 2
    assert levy_cutoff_valuation(E, Fraction(3, 10)) == 3
    assert levy_cutoff_valuation(Q3, Fraction(1, 3)) == 1
    with pytest.raises(ValueError):
        levy_cutoff_valuation(Q2, 0)
    with pytest.raises(ValueError):
        levy_cutoff_valuation(Q2, 2)


def _coset_masses(quotient, alpha):
    """The oracle jump-measure mass of every coset: each shell's mass over
    its exact coset count, and 0.0 on the zero coset.  Divided by its sum,
    it is the coset law a jump of ``build_jump_law`` follows."""
    shells = range(quotient.lo, quotient.s)
    per_shell = [
        levy_shell_mass(quotient.level, alpha, w) / n for w, n in zip(shells, quotient.shell_sizes())
    ]
    return quotient.from_shells(per_shell + [0.0])


def test_levy_tail_masses():
    # the rate of the law truncated at size delta is the tail mass
    def tail(level, alpha, delta):
        return build_jump_law(level, alpha, levy_cutoff_valuation(level, delta)).rate

    assert abs(tail(Q2, 1.0, 1) - 1.0) < 1e-14
    assert abs(tail(Q2, 1.0, Fraction(1, 2)) - 2.5) < 1e-14
    assert abs(tail(Q2, 1.0, Fraction(1, 4)) - 5.25) < 1e-14
    assert abs(tail(Q2, 2.0, Fraction(1, 2)) - 9.0) < 1e-13
    # cutoff inside the smallest shell: nothing qualifies as a jump
    with pytest.raises(ValueError, match="excludes every jump shell"):
        tail(U, 1.0, 1)


def test_jump_law_coset_structure():
    # the law's shell masses are the oracle's coset masses summed per shell,
    # and its rate their fsum
    law = build_jump_law(Q2, 1.0, cutoff_valuation=2)
    q = law.quotient
    assert q == BallQuotient(Q2, 0, 3)
    vec = _coset_masses(q, 1.0)
    assert vec[0] == 0.0
    assert (vec[1:] > 0).all()
    vals = q.val_pi_vector
    for w, mass in zip(range(3), law.shell_masses):
        got = vec[(vals == w) & (np.arange(q.size) != 0)].sum()
        assert mass == levy_shell_mass(Q2, 1.0, w)
        assert abs(got - mass) < 1e-13
    assert law.rate == math.fsum(law.shell_masses)


def test_levy_shell_masses_positive():
    for lvl in LEVELS:
        for alpha in (0.5, 1.0, 2.0):
            assert all(levy_shell_mass(lvl, alpha, w) > 0 for w in range(lvl.s0, lvl.s0 + 6))


@pytest.mark.parametrize(
    "quotient",
    [
        BallQuotient(Q2, 0, 2),
        BallQuotient(Q2, -2, 3),
        BallQuotient(U, 0, 3),
        BallQuotient(E, -1, 3),
        BallQuotient(W, 2, 4),
    ],
    ids=lambda q: q.key(),
)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_levy_cosets_split_the_shell_masses(quotient, alpha):
    # every coset of the shell of valuation w carries the shell mass times
    # q^(w - s) / (1 - 1/q), bit for bit, and the zero coset none: the jump
    # law the sampler inverts is built from these entries
    vec = quotient.from_shells(_jump_coset_masses(quotient, alpha))
    assert vec[0] == 0.0
    q, vals = float(quotient.q), quotient.val_pi_vector
    for w in range(quotient.lo, quotient.s):
        mass = levy_shell_mass(quotient.level, alpha, w)
        want = mass * q ** float(w - quotient.s) / (1.0 - 1.0 / q)
        assert (vec[vals == w] == want).all()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_levy_integral_routes_agree(alpha):
    for quotient in (BallQuotient(Q2, -1, 3), BallQuotient(U, 1, 3), BallQuotient(E, -1, 3)):
        rng = np.random.default_rng(17)
        phi = random_function(quotient, rng)
        phi[0] = 0.0
        direct = levy_integral(quotient, alpha, phi)
        spectral = levy_integral_spectral(quotient, alpha, phi)
        assert abs(direct - spectral) < 1e-9 * max(1.0, abs(direct))


@pytest.mark.parametrize(
    "quotient",
    [
        BallQuotient(Q2, -3, 4),
        BallQuotient(U, -1, 3),
        BallQuotient(E, -2, 4),
        BallQuotient(U.extend_unramified(3), 0, 2),  # the sextic level, 4,096 cosets
    ],
    ids=lambda q: q.key(),
)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_levy_integrals_match_their_oracles(quotient, alpha):
    # the shell-sum integral against the coset-by-coset dot product, and the
    # spectral one against the full multiplier route read at the origin
    rng = np.random.default_rng(31)
    phi = random_function(quotient, rng)
    phi[0] = 0.0
    per_coset = np.dot(phi[1:], _coset_masses(quotient, alpha)[1:])
    at_origin = -apply_spectral(quotient, phi, alpha)[0]
    assert abs(levy_integral(quotient, alpha, phi) - per_coset) <= 1e-14 * abs(per_coset)
    assert abs(levy_integral_spectral(quotient, alpha, phi) - at_origin) <= 1e-14 * abs(at_origin)


def test_levy_integral_is_kernel_apply_at_origin():
    # integrating against the jump measure is applying the negated kernel
    # form at the origin, for functions vanishing there
    q = BallQuotient(Q2, 0, 3)
    rng = np.random.default_rng(23)
    phi = random_function(q, rng)
    phi[0] = 0.0
    lhs = levy_integral(q, 1.0, phi)
    rhs = -apply_hypersingular(q, phi, 1.0)[0]
    assert abs(lhs - rhs) < 1e-12


def test_levy_integral_requires_vanishing_origin():
    q = BallQuotient(Q2, 0, 2)
    with pytest.raises(ValueError):
        levy_integral(q, 1.0, np.ones(q.size))
    with pytest.raises(ValueError):
        levy_integral_spectral(q, 1.0, np.ones(q.size))


@pytest.mark.parametrize("lvl", LEVELS, ids=lambda l: f"e{l.e}f{l.f}")
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_log_characteristic_matches_norm_power(lvl, alpha, L):
    lhs = levy_log_characteristic(lvl, alpha, -L)
    rhs = -float(lvl.p) ** (L * alpha / lvl.e)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_log_characteristic_zero_inside_unit_ball():
    for lvl in LEVELS:
        for v in (0, 1, 5):
            assert levy_log_characteristic(lvl, 1.0, v) == 0.0


def test_log_characteristic_time_scaling():
    got = levy_log_characteristic(Q2, 1.0, -2, t=0.5)
    assert abs(got - (-2.0)) < 1e-12


@settings(max_examples=40)
@given(st.floats(0.1, 3.0, allow_nan=False), st.integers(1, 4))
def test_log_characteristic_identity_property(alpha, L):
    lhs = levy_log_characteristic(Q2, alpha, -L)
    rhs = -(2.0 ** (L * alpha))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
