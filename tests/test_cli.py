import csv
import json
import math

import pytest

from padicfrac.cli import main

Q2_TOWER = "qp:p=2,depth=1"
UNRAM_TOWER = "unramified:p=2,f=1-2-6"


def run(tmp_path, *argv, fmt="json", name="out"):
    """Run the CLI in process, returning (exit_code, parsed output)."""
    out = tmp_path / f"{name}.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(out)])
    if not out.exists():
        return code, None
    text = out.read_text()
    if fmt == "json":
        return code, json.loads(text)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = dict(
        ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("#")
    )
    rows = list(csv.DictReader(lines))
    return code, {"config": header, "rows": rows}


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_catalog(tmp_path):
    code, doc = run(
        tmp_path, "spectrum", "--tower", UNRAM_TOWER, "--alpha", "1",
        "--max-value", "16",
    )
    assert code == 0
    eigen = [r for r in doc["rows"] if r["kind"] == "eigenvalue"]
    assert {r["eigenvalue"] for r in eigen} == {0.0, 2.0, 4.0, 8.0, 16.0}
    assert [r for r in eigen if r["eigenvalue"] == 2.0][0]["multiplicity"] == 63
    trend = [r for r in doc["rows"] if r["kind"] == "min_positive"]
    assert [r["eigenvalue"] for r in trend] == [2.0, 2.0, 2.0]


def test_spectrum_contains_the_quarter_root(tmp_path):
    code, doc = run(
        tmp_path, "spectrum", "--tower", "cyclotomic:p=2,depth=4",
        "--max-value", "2",
    )
    assert code == 0
    quarter = [r for r in doc["rows"] if r["exponent"] == "1/4"]
    assert len(quarter) == 1
    assert abs(quarter[0]["eigenvalue"] - 2.0 ** 0.25) < 1e-15


def test_spectrum_single_horizon(tmp_path):
    code, doc = run(
        tmp_path, "spectrum", "--tower", UNRAM_TOWER, "--horizon", "1",
        "--max-value", "16",
    )
    assert code == 0
    eigen = [r for r in doc["rows"] if r["kind"] == "eigenvalue"]
    assert {r["eigenvalue"] for r in eigen} == {0.0, 2.0, 4.0, 8.0, 16.0}
    assert all(r["first_level"] == 1 for r in eigen)
    assert [r["multiplicity"] for r in eigen] == [1, 1, 2, 4, 8]


# ---------------------------------------------------------------------------
# apply


def test_apply_constant_function_maps_to_zero(tmp_path):
    fn = tmp_path / "const.json"
    fn.write_text(json.dumps({"lo": 0, "s": 2, "values": [[1.0, 0.0]] * 4}))
    code, doc = run(
        tmp_path, "apply", "--tower", Q2_TOWER, "--function", str(fn),
    )
    assert code == 0
    assert doc["config"]["max_pairwise_deviation"] <= 1e-12
    for row in doc["rows"]:
        for key, val in row.items():
            if key.endswith("_re") or key.endswith("_im"):
                if not key.startswith("input"):
                    assert abs(val) <= 1e-12


def test_apply_random_routes_agree(tmp_path):
    code, doc = run(
        tmp_path, "apply", "--tower", Q2_TOWER, "--lo", "-2", "--span", "4",
        "--seed", "12", "--alpha", "0.5",
    )
    assert code == 0
    assert doc["config"]["max_pairwise_deviation"] <= 1e-9
    assert len(doc["rows"]) == 16


def test_apply_rejects_wrong_value_count(tmp_path):
    fn = tmp_path / "short.json"
    fn.write_text(json.dumps({"lo": 0, "s": 2, "values": [[1.0, 0.0]] * 3}))
    code, _ = run(tmp_path, "apply", "--tower", Q2_TOWER, "--function", str(fn))
    assert code == 2


# ---------------------------------------------------------------------------
# singularity


def test_singularity_default_run_passes(tmp_path):
    code, doc = run(tmp_path, "singularity")
    assert code == 0
    assert doc["config"]["witness"] == "pass"
    rows = doc["rows"]
    assert [r["mu"] for r in rows] == ["1/2", "1/4", "1/64", "1/16777216"]
    logs = [r["log10_ratio"] for r in rows]
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert logs[-1] > 6.0


def test_singularity_single_row_is_indeterminate(tmp_path):
    code, doc = run(tmp_path, "singularity", "--horizon", "1")
    assert code == 0
    assert doc["config"]["witness"] == "indeterminate"
    assert len(doc["rows"]) == 1


# ---------------------------------------------------------------------------
# levy


def test_levy_shell_table(tmp_path):
    code, doc = run(
        tmp_path, "levy", "--tower", Q2_TOWER, "--cutoff", "2", fmt="csv",
    )
    assert code == 0
    shells = [float(r["shell_mass"]) for r in doc["rows"]]
    assert shells == [1.0, 1.5, 2.75]
    assert float(doc["rows"][-1]["mass_through_shell"]) == 5.25


def test_levy_zero_function_integrates_to_zero(tmp_path):
    fn = tmp_path / "zero.json"
    fn.write_text(json.dumps({"lo": -1, "s": 2, "values": [[0.0, 0.0]] * 8}))
    code, doc = run(
        tmp_path, "levy", "--tower", Q2_TOWER, "--function", str(fn),
    )
    assert code == 0
    assert doc["config"]["integral_direct_re"] == 0.0
    assert doc["config"]["integral_direct_im"] == 0.0
    assert doc["config"]["integral_route_gap"] == 0.0


def test_levy_function_must_vanish_at_the_origin(tmp_path):
    fn = tmp_path / "ones.json"
    fn.write_text(json.dumps({"lo": -1, "s": 2, "values": [[1.0, 0.0]] * 8}))
    code, _ = run(tmp_path, "levy", "--tower", Q2_TOWER, "--function", str(fn))
    assert code == 2


def test_levy_integrate_random_routes_agree(tmp_path):
    code, doc = run(
        tmp_path, "levy", "--tower", Q2_TOWER, "--integrate", "--seed", "9",
        "--alpha", "2",
    )
    assert code == 0
    assert doc["config"]["integral_route_gap"] <= 1e-9


# ---------------------------------------------------------------------------
# heat


def test_heat_masses(tmp_path):
    code, doc = run(tmp_path, "heat", "--tower", Q2_TOWER)
    assert code == 0
    cfg = doc["config"]
    assert abs(cfg["cylinder_mass_closed"] - 0.5 * (1 + math.exp(-2))) <= 1e-12
    assert abs(cfg["cylinder_mass_closed"] - cfg["cylinder_mass_shells"]) <= 1e-10
    assert abs(cfg["coset_mass_total"] - 1.0) <= 1e-12
    assert cfg["invariant_cylinder_mass"] == "1/2"
    total = sum(r["heat_mass"] for r in doc["rows"])
    assert abs(total - cfg["coset_mass_total"]) <= 1e-14


# ---------------------------------------------------------------------------
# simulate


def test_simulate_inside_the_unit_ball_is_exact(tmp_path):
    code, doc = run(
        tmp_path, "simulate", "--tower", Q2_TOWER, "--lam-valuation", "0",
    )
    assert code == 0
    (row,) = doc["rows"]
    assert row["estimate_re"] == 1.0 and row["estimate_im"] == 0.0
    assert row["stderr"] == 0.0 and row["expected"] == 1.0


def test_simulate_seeded_run_matches_the_closed_form(tmp_path):
    code, doc = run(
        tmp_path, "simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1",
        "--paths", "4000", "--seed", "101",
    )
    assert code == 0
    (row,) = doc["rows"]
    assert row["z_score"] <= 4.0
    assert abs(row["expected"] - math.exp(-2.0)) < 1e-15


@pytest.mark.parametrize("flags", [("--paths", "1"), ("--paths", "0"), ("--t", "0")])
def test_simulate_rejects_too_few_paths_and_empty_horizons(tmp_path, flags):
    code, doc = run(
        tmp_path, "simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1", *flags,
    )
    assert code == 2 and doc is None


# ---------------------------------------------------------------------------
# verify-all and plumbing


def test_verify_all_subset(tmp_path):
    code, doc = run(
        tmp_path, "verify-all", "--only", "heat_ball_mass,log_characteristic",
    )
    assert code == 0
    assert [r["name"] for r in doc["rows"]] == [
        "heat_ball_mass", "log_characteristic",
    ]
    assert all(r["passed"] for r in doc["rows"])


def test_verify_all_rejects_unknown_checks(tmp_path):
    code, _ = run(tmp_path, "verify-all", "--only", "bogus")
    assert code == 2


def test_unknown_tower_exits_with_config_error(tmp_path):
    code, _ = run(tmp_path, "spectrum", "--tower", "nosuch:p=2")
    assert code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reruns_are_byte_identical(tmp_path, fmt):
    argv = [
        "simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1",
        "--paths", "2000", "--seed", "7",
    ]
    code_a, _ = run(tmp_path, *argv, fmt=fmt, name="first")
    code_b, _ = run(tmp_path, *argv, fmt=fmt, name="second")
    assert code_a == code_b == 0
    first = (tmp_path / f"first.{fmt}").read_bytes()
    second = (tmp_path / f"second.{fmt}").read_bytes()
    assert first == second


def test_stdout_emission(capsys):
    code = main(["levy", "--tower", Q2_TOWER, "--cutoff", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "valuation,shell_mass,mass_through_shell" in captured.out
    assert "# command=levy" in captured.out
