import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from padicfrac import base_level, process
from padicfrac.measures import levy_shell_mass, levy_tail_mass
from padicfrac.process import (
    build_jump_law,
    expected_characteristic,
    mc_characteristic,
    sample_endpoints,
    simulate_path,
    truncated_log_characteristic,
)
from padicfrac.tower import resolve_tower

Q2 = base_level(2)
U = Q2.extend_unramified(2)
E = Q2.extend_eisenstein([-2, 0])
W = resolve_tower("factorial:p=2,depth=4").level(4)


# ---------------------------------------------------------------------------
# law construction


def test_build_jump_law_validates_exponent():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 0.0, cutoff_valuation=1)
    with pytest.raises(ValueError):
        build_jump_law(Q2, -1.0, cutoff_valuation=1)


def test_build_jump_law_needs_exactly_one_cutoff():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0)
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0, cutoff_valuation=1, delta=Fraction(1, 2))


def test_build_jump_law_rejects_cutoff_below_first_shell():
    with pytest.raises(ValueError):
        build_jump_law(Q2, 1.0, cutoff_valuation=-1)
    with pytest.raises(ValueError):
        build_jump_law(W, 1.0, cutoff_valuation=3)  # shells start at 4


def test_delta_and_cutoff_valuation_agree():
    by_delta = build_jump_law(Q2, 1.0, delta=Fraction(1, 2))
    by_cut = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    assert by_delta.cutoff == by_cut.cutoff == 1
    assert by_delta.rate == by_cut.rate
    assert by_delta.cutoff == 1 and by_delta.rate == 2.5


@pytest.mark.parametrize(
    "level, alpha, cutoff, delta, rate",
    [
        (Q2, 1.0, 0, Fraction(1), 1.0),
        (Q2, 1.0, 1, Fraction(1, 2), 2.5),
        (Q2, 1.0, 2, Fraction(1, 4), 5.25),
        (Q2, 2.0, 1, Fraction(1, 2), 9.0),
    ],
)
def test_rate_is_the_shell_mass_sum(level, alpha, cutoff, delta, rate):
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    assert abs(law.rate - rate) < 1e-12
    shells = sum(
        levy_shell_mass(level, alpha, w) for w in range(level.s0, cutoff + 1)
    )
    assert abs(law.rate - shells) < 1e-12
    assert abs(law.rate - levy_tail_mass(level, alpha, delta)) < 1e-12


@pytest.mark.parametrize("level, cutoff", [(Q2, 2), (U, 3), (E, 1), (W, 4)])
def test_law_quotient_resolves_all_kept_shells(level, cutoff):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    assert law.quotient.lo == level.s0
    assert law.quotient.s == cutoff + 1
    assert law.level is level


def test_coset_probs_are_a_symmetric_distribution():
    for level, cutoff in [(Q2, 2), (E, 2), (W, 4)]:
        law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
        probs = law.coset_probs
        assert probs[0] == 0.0
        assert (probs[1:] > 0).all()
        assert abs(probs.sum() - 1.0) < 1e-12
        # the jump measure is invariant under negation, coset by coset
        assert (probs == probs[law.quotient.neg_table]).all()


# ---------------------------------------------------------------------------
# path sampling


def test_simulate_path_is_reproducible():
    law = build_jump_law(Q2, 1.0, delta=Fraction(1, 2))
    a = simulate_path(law, 3.0, seed=5)
    b = simulate_path(law, 3.0, seed=5)
    assert (a.times == b.times).all()
    assert (a.jumps == b.jumps).all()
    assert (a.states == b.states).all()
    c = simulate_path(law, 3.0, seed=5, stream=1)
    assert c.times.size != a.times.size or (c.times != a.times).any()


def test_simulate_path_invariants():
    law = build_jump_law(Q2, 1.0, delta=Fraction(1, 2))
    path = simulate_path(law, 3.0, seed=5)
    assert path.horizon == 3.0
    assert path.times.size == path.jumps.size == path.states.size == 7
    assert (np.diff(path.times) > 0).all()
    assert path.times[0] > 0 and path.times[-1] <= 3.0
    add = law.quotient.sub_table[:, law.quotient.neg_table]
    state = 0
    for k, j in enumerate(path.jumps):
        state = add[state, j]
        assert path.states[k] == state
    assert path.final_index == 3


def test_simulate_path_without_jumps_sits_at_zero():
    law = build_jump_law(Q2, 1.0, delta=Fraction(1, 2))
    path = simulate_path(law, 1e-9, seed=5)
    assert path.times.size == 0
    assert path.final_index == 0


def test_simulate_path_rejects_bad_horizon():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    with pytest.raises(ValueError):
        simulate_path(law, 0.0, seed=1)
    with pytest.raises(ValueError):
        simulate_path(law, -2.0, seed=1)


@pytest.mark.parametrize(
    "level,cutoff,t,n_paths",
    [
        (Q2, 2, 1.5, 400),
        (E, 2, 1.0, 300),
        (W, 6, 1.0, 200),
        (E, 2, 1.0, 1),
        (W, 6, 1e-9, 50),
    ],
)
def test_sample_endpoints_matches_per_path_walk(level, cutoff, t, n_paths):
    law = build_jump_law(level, 1.0, cutoff_valuation=cutoff)
    states, counts = sample_endpoints(law, t, n_paths, seed=9, stream=2)
    # the same draws in the same order, folded path by path
    rng = process._rng(9, 2)
    expect_counts = rng.poisson(law.rate * t, size=n_paths)
    jumps = rng.choice(law.quotient.size, size=int(expect_counts.sum()), p=law.coset_probs)
    add = law.quotient.sub_table[:, law.quotient.neg_table]
    expect = []
    pos = 0
    for count in expect_counts:
        state = 0
        for j in jumps[pos : pos + count]:
            state = add[state, j]
        expect.append(state)
        pos += count
    assert (counts == expect_counts).all()
    assert (states == np.array(expect)).all()
    assert states.shape == (n_paths,)
    if t < 1e-6:
        assert (counts == 0).all() and (states == 0).all()


def test_sample_endpoints_is_reproducible_and_stream_separated():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    s_a, c_a = sample_endpoints(law, 1.0, 500, seed=42)
    s_b, c_b = sample_endpoints(law, 1.0, 500, seed=42)
    assert (s_a == s_b).all() and (c_a == c_b).all()
    s_c, c_c = sample_endpoints(law, 1.0, 500, seed=42, stream=1)
    assert (c_c != c_a).any() or (s_c != s_a).any()
    assert s_a.shape == c_a.shape == (500,)
    assert (s_a >= 0).all() and (s_a < law.quotient.size).all()
    with pytest.raises(ValueError):
        sample_endpoints(law, 0.0, 10, seed=1)


def test_jump_counts_pass_poisson_goodness_of_fit():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    t, n = 1.0, 4000
    _, counts = sample_endpoints(law, t, n, seed=11)
    lam = law.rate * t
    kmax = int(stats.poisson.ppf(1 - 1e-6, lam))
    observed = np.bincount(counts, minlength=kmax + 1)[: kmax + 1].astype(float)
    observed[kmax] += (counts > kmax).sum()
    expected = stats.poisson.pmf(np.arange(kmax + 1), lam) * n
    expected[kmax] = n - expected[:kmax].sum()
    # pool the sparse upper tail until every bin expects at least 5 hits
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    gof = stats.chisquare(observed, expected)
    assert gof.pvalue > 0.01


# ---------------------------------------------------------------------------
# characteristic function


@pytest.mark.parametrize(
    "alpha, lam_valuation, t",
    [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)],
)
def test_mc_characteristic_hits_the_closed_form(alpha, lam_valuation, t):
    target = expected_characteristic(Q2, alpha, lam_valuation, t)
    estimate, stderr = mc_characteristic(
        Q2, alpha, lam_valuation, t, n_paths=4000, seed=101
    )
    assert 0 < stderr < 0.03
    assert abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr


def test_mc_characteristic_on_a_wildly_ramified_level():
    target = expected_characteristic(W, 1.0, -1, 1.0)
    assert abs(target - math.exp(-(2.0 ** 0.25))) < 1e-15
    estimate, stderr = mc_characteristic(W, 1.0, -1, 1.0, n_paths=2000, seed=7)
    assert abs(estimate.real - target) <= 3 * stderr
    assert abs(estimate.imag) <= 3 * stderr


def test_mc_characteristic_rejects_labels_inside_the_unit_ball():
    with pytest.raises(ValueError):
        mc_characteristic(Q2, 1.0, 0, 1.0, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        mc_characteristic(Q2, 1.0, 2, 1.0, n_paths=10, seed=1)


def test_mc_characteristic_is_reproducible():
    a = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3)
    b = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3)
    assert a == b
    c = mc_characteristic(Q2, 1.0, -1, 1.0, n_paths=1000, seed=3, stream=1)
    assert c != a


def test_expected_characteristic_values():
    assert expected_characteristic(Q2, 1.0, -1, 1.0) == pytest.approx(
        math.exp(-2.0), abs=1e-15
    )
    assert expected_characteristic(Q2, 2.0, -1, 1.0) == pytest.approx(
        math.exp(-4.0), abs=1e-15
    )
    assert expected_characteristic(E, 1.0, -1, 1.0) == pytest.approx(
        math.exp(-math.sqrt(2.0)), abs=1e-15
    )
    assert expected_characteristic(Q2, 1.0, 0, 5.0) == 1.0
    assert expected_characteristic(Q2, 1.0, 3, 5.0) == 1.0


@pytest.mark.parametrize("level", [Q2, U, E, W])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 2])
def test_truncated_log_characteristic_is_exact_past_the_boundary_shell(
    level, alpha, L
):
    cutoff = max(L, level.s0 + L - 1)
    law = build_jump_law(level, alpha, cutoff_valuation=cutoff)
    got = truncated_log_characteristic(law, -L, t=1.5)
    want = -1.5 * float(level.p) ** (L * alpha / level.e)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_truncated_log_characteristic_with_a_short_cutoff():
    # every kept shell lies strictly inside the label's dead zone, so the
    # truncated process only sees the total kept intensity
    law = build_jump_law(Q2, 1.0, cutoff_valuation=1)
    got = truncated_log_characteristic(law, -3, t=1.0)
    assert abs(got + law.rate) < 1e-13
    assert got > -8.0  # the full log-characteristic would be -t * 8


def test_truncated_log_characteristic_inside_the_unit_ball():
    law = build_jump_law(Q2, 1.0, cutoff_valuation=2)
    assert truncated_log_characteristic(law, 0, t=1.0) == 0.0
    assert truncated_log_characteristic(law, 3, t=2.0) == 0.0
