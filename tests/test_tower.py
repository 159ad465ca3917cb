"""Tower builders, ramification invariants, and operator spectra."""

import json
from fractions import Fraction

import pytest

from padicfrac.cli import DEFAULT_TOWER, main
from padicfrac.funcspace import BallQuotient
from padicfrac.tower import (
    TowerSpec,
    _encode_coeff,
    build_factorial_tower,
    build_qp_tower,
    build_unramified_tower,
    dump_tower,
    load_tower,
    min_positive_eigenvalue,
    resolve_tower,
    spectrum,
)


# ---------------------------------------------------------------------------
# builders and invariants


def test_factorial_tower_p2_invariants():
    t = build_factorial_tower(2, 4)
    assert [lvl.e for lvl in t] == [1, 1, 1, 4]
    assert [lvl.f for lvl in t] == [1, 1, 2, 2]
    assert [lvl.m for lvl in t] == [1, 1, 2, 8]
    assert [lvl.c for lvl in t] == [0, 0, 1, 3]
    # different exponent of the p-power root-of-unity part: e*l - p^(l-1)
    # (l = v_p(n!)), plus nothing from the unramified part
    for n, lvl in enumerate(t, start=1):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        l = 0
        while fact % 2 == 0:
            fact //= 2
            l += 1
        expected_d = lvl.e * l - 2 ** (l - 1) if l >= 1 else 0
        assert lvl.d == expected_d
    assert t.horizon.d == 8
    assert t.horizon.s0 == 4 * 3 - 8


def test_factorial_tower_p3_invariants():
    t = build_factorial_tower(3, 3)
    assert [lvl.e for lvl in t] == [1, 1, 2]
    assert [lvl.f for lvl in t] == [1, 1, 1]
    assert t.horizon.d == 1          # tame: e - 1


def test_factorial_tower_p5_invariants():
    t = build_factorial_tower(5, 5)
    assert [lvl.e for lvl in t] == [1, 1, 1, 1, 4]
    assert t.level(5).f == 2         # order of 5 mod 24
    assert t.horizon.d == 3          # tame: e - 1


def test_factorial_generator_is_root_of_unity():
    # the deepest wild generator g satisfies (1 + g)^2 = previous root
    t = build_factorial_tower(2, 4)
    L = t.horizon
    g = L.generator()
    w = (g + 1) * (g + 1)            # should be the order-4 root: zeta_4
    z4 = (w - 1)                     # = previous step generator
    prev = L.level_at_depth(2)
    assert (z4 - L.element(prev.generator())).is_zero()
    # and squaring twice more returns to 1: zeta_8^8 = 1
    zeta8 = g + 1
    acc = zeta8
    for _ in range(3):
        acc = acc * acc
    assert (acc - 1).is_zero()


def test_unramified_tower_invariants():
    t = build_unramified_tower(2, [1, 2, 6, 24])
    assert [lvl.f for lvl in t] == [1, 2, 6, 24]
    assert all(lvl.e == 1 for lvl in t)
    assert all(lvl.d == 0 for lvl in t)
    assert [lvl.s0 for lvl in t] == [0, 1, 1, 3]
    assert [lvl.q for lvl in t] == [2, 4, 64, 2**24]


def test_chain_rule_for_different():
    # d_nu = e(nu/n) * d_n + d(nu/n) holds along every tower we build
    t = build_factorial_tower(2, 4)
    for a, b in zip(t.levels, t.levels[1:]):
        assert b.e % a.e == 0
        # levels are chain prefixes, so the relative different is b.d - ratio*a.d
        assert b.d >= (b.e // a.e) * a.d


def test_builder_validation():
    with pytest.raises(ValueError):
        build_unramified_tower(2, [2, 4])
    with pytest.raises(ValueError):
        build_unramified_tower(2, [1, 2, 3])
    with pytest.raises(ValueError):
        build_qp_tower(2, 0)
    with pytest.raises(ValueError):
        build_factorial_tower(2, 0)


def test_tower_levels_form_chain():
    t = build_factorial_tower(2, 4)
    for a, b in zip(t.levels, t.levels[1:]):
        assert a.is_prefix_of(b)
        assert b.m % a.m == 0


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_base_field():
    t = build_qp_tower(2, 1)
    entries = spectrum(t, alpha=1, exponent_cap=4)
    values = [round(en.eigenvalue, 12) for en in entries]
    assert values == [0.0, 2.0, 4.0, 8.0, 16.0]
    assert [en.multiplicity for en in entries] == [1, 1, 2, 4, 8]


@pytest.mark.parametrize(
    "tower",
    [
        build_qp_tower(2, 1),
        build_qp_tower(3, 1),
        build_unramified_tower(2, [1, 2]),
        build_factorial_tower(2, 4),
        build_factorial_tower(3, 3),
    ],
    ids=lambda t: t.label,
)
def test_spectrum_multiplicity_counts_the_labels_of_each_norm(tower):
    # the closed form against the labels of valuation -N in pi^-N O / O
    H = tower.horizon
    entries = spectrum(tower, alpha=1, exponent_cap=Fraction(6, H.e))
    assert entries[0].exponent is None and entries[0].multiplicity == 1
    checked = []
    for en in entries[1:]:
        N = int(en.exponent * H.e)
        if H.q**N <= 1 << 12:
            vals = BallQuotient(H, -N, 0).val_pi_vector
            assert en.multiplicity == int((vals == -N).sum())
            checked.append(N)
    assert checked[:2] == [1, 2]


def test_spectrum_eigenvalue_two_along_unramified_tower():
    t = build_unramified_tower(2, [1, 2, 6])
    mults = []
    for horizon in (1, 2, 3):
        entries = spectrum(t, alpha=1, exponent_cap=1, horizon=horizon)
        two = [en for en in entries if en.exponent == 1]
        assert len(two) == 1
        assert two[0].eigenvalue == 2.0
        mults.append(two[0].multiplicity)
    assert mults == [1, 3, 63]


def test_spectrum_merges_exponents_exactly():
    t = build_factorial_tower(2, 4)
    entries = spectrum(t, alpha=1, exponent_cap=2)
    exps = [en.exponent for en in entries if en.exponent is not None]
    assert exps == sorted(exps)
    assert len(set(exps)) == len(exps)
    # quarter-integer exponents from e_H = 4, merged with integer ones
    assert Fraction(1, 4) in exps and Fraction(1) in exps
    one = next(en for en in entries if en.exponent == 1)
    assert one.first_level == 1           # already present over Q_p
    quarter = next(en for en in entries if en.exponent == Fraction(1, 4))
    assert quarter.first_level == 4
    # eigenvalue of exponent 1 at the horizon: labels of norm q_H^4
    assert one.multiplicity == (4 - 1) * 4**3


def test_spectrum_closed_form_fallback_on_giant_levels():
    t = build_unramified_tower(2, [1, 2, 6, 24])
    entries = spectrum(t, alpha=1, exponent_cap=1)
    one = next(en for en in entries if en.exponent == 1)
    assert one.multiplicity == (2**24 - 1)


def test_min_positive_eigenvalue():
    assert min_positive_eigenvalue(build_qp_tower(2, 1), 1) == 2.0
    assert min_positive_eigenvalue(build_qp_tower(3, 1), 1) == 3.0
    assert min_positive_eigenvalue(build_qp_tower(2, 1), 2) == 4.0
    t = build_factorial_tower(2, 4)
    assert abs(min_positive_eigenvalue(t, 1) - 2 ** 0.25) < 1e-15


def test_spectrum_alpha_scaling():
    t = build_qp_tower(2, 1)
    e1 = spectrum(t, alpha=0.5, exponent_cap=2)
    vals = [en.eigenvalue for en in e1]
    assert vals[1] == pytest.approx(2**0.5, rel=1e-15)
    assert vals[2] == pytest.approx(2.0, rel=1e-15)


# ---------------------------------------------------------------------------
# serialization and presets


def test_dump_load_round_trip():
    t = build_factorial_tower(2, 4)
    blob = json.dumps(dump_tower(t))
    t2 = load_tower(json.loads(blob))
    assert [lvl.key() for lvl in t2] == [lvl.key() for lvl in t]
    assert [lvl.d for lvl in t2] == [lvl.d for lvl in t]


@pytest.mark.parametrize("preset, n", [("unramified:p=2,f=1-2", 2), (DEFAULT_TOWER, 3)])
def test_arithmetic_leaves_level_keys_and_dumps_unchanged(tmp_path, preset, n):
    # a searched step polynomial is kept in the cache of the level it tops,
    # not on the step: keys, hashes, dict membership and the dumped file
    # stay as the level was made, and the file gives the preset's rows
    t = resolve_tower(preset)  # fresh levels above Q_p, nothing computed yet
    level = t.level(n)
    key, digest, blob = level.key(), hash(level), json.dumps(dump_tower(t))
    seen = {level: n}
    g = level.generator()
    assert not (g * g * g).is_zero()  # the product reduces by the searched polynomial
    assert (level.key(), hash(level), json.dumps(dump_tower(t))) == (key, digest, blob)
    assert level in seen and seen[level] == n
    assert "poly" in level._cache
    assert load_tower(json.loads(json.dumps(dump_tower(t)))).levels == t.levels
    path = tmp_path / "tower.json"
    path.write_text(blob)
    for argv in (["spectrum"], ["heat", "--level", str(n)]):
        tables = []
        for tower in (preset, str(path)):
            out = tmp_path / "out.csv"
            assert main([*argv, "--tower", tower, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            tables.append([line for line in lines if not line.startswith("# tower=")])
        assert tables[0] == tables[1]


def test_a_dump_with_searched_polynomials_loads_as_the_preset():
    # an older dump, written after arithmetic, spells out the polynomials
    # the search found; the loaded levels must still be the preset's
    preset = resolve_tower("unramified:p=2,f=1-2-6-24")
    doc = json.loads(json.dumps(dump_tower(preset)))
    assert not any("poly" in st for steps in doc["levels"] for st in steps)
    for (st,), parent, level in zip(doc["levels"][1:3], preset.levels, preset.levels[1:3]):
        coeffs = [[_encode_coeff(parent, c), i] for i, c in enumerate(level._coeffs_of_top())]
        st["poly"] = [["1", st["degree"]]] + coeffs
    assert doc["levels"][1][0]["poly"] == [["1", 2], ["1", 0], ["1", 1]]
    loaded = load_tower(doc)
    assert loaded.levels == preset.levels
    assert [hash(lvl) for lvl in loaded] == [hash(lvl) for lvl in preset]
    for n in (2, 3, 4):
        g, h = loaded.level(n).generator(), preset.level(n).generator()
        assert (g + h - g - g).is_zero() and not (g + h).is_zero()


def test_explicit_searched_polynomials_make_the_searched_levels():
    # given or searched, the same polynomial makes the same level, and a
    # tower so built round-trips through its dump
    preset = resolve_tower("unramified:p=2,f=1-2-6-24")
    base, u2, u6, _ = preset.levels
    e2 = base.extend_unramified(2, coeffs=u2._coeffs_of_top())
    e6 = e2.extend_unramified(3, coeffs=u6._coeffs_of_top())
    explicit = TowerSpec(p=2, label="x", levels=(base, e2, e6, e6.extend_unramified(4)))
    assert explicit.levels == preset.levels
    assert load_tower(dump_tower(explicit)).levels == explicit.levels
    # another lift of the same residue polynomial stays explicit
    assert u2._coeffs_of_top() == (1, 1)
    other = [["1", 2], ["1", 1], ["3", 0]]
    odd = load_tower({"p": 2, "levels": [[], [{"kind": "unramified", "poly": other}]]})
    assert odd.level(2).steps[-1].coeffs == (3, 1) and odd.level(2) != preset.level(2)
    assert load_tower(dump_tower(odd)).levels == odd.levels


def test_load_handwritten_file(tmp_path):
    doc = {
        "p": 2,
        "levels": [
            [],
            [{"kind": "eisenstein", "poly": [["1", 2], ["-2", 0]]}],
        ],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    t = load_tower(str(path))
    assert t.depth == 2
    assert t.level(1).m == 1
    lvl = t.level(2)
    assert (lvl.e, lvl.f, lvl.d) == (2, 1, 3)
    pi = lvl.uniformizer()
    assert (pi * pi - 2).is_zero()


def test_load_rejects_bad_input():
    with pytest.raises(ValueError):
        load_tower({"p": 2, "levels": [[{"kind": "weird", "degree": 2}]]})
    with pytest.raises(ValueError):
        load_tower({"p": 2, "levels": [[{"kind": "eisenstein", "degree": 2}]]})
    with pytest.raises(ValueError):
        load_tower(
            {"p": 2, "levels": [[{"kind": "eisenstein", "poly": [["2", 2], ["-2", 0]]}]]}
        )


def test_presets():
    t = resolve_tower("qp:p=3,depth=2")
    assert t.depth == 2 and t.p == 3
    t = resolve_tower("unramified:p=2,f=1-2-6")
    assert [lvl.f for lvl in t] == [1, 2, 6]
    t = resolve_tower("factorial:p=2,depth=4")
    assert t.horizon.e == 4
    t2 = resolve_tower("cyclotomic:p=2,depth=4")
    assert [a.key() for a in t2] == [a.key() for a in t]
    with pytest.raises(ValueError):
        resolve_tower("qp:p=2,depth=2,bogus=1")
    with pytest.raises(ValueError):
        resolve_tower("nonsense")
