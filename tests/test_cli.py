import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from padicfrac import cli
from padicfrac.cli import main
from padicfrac.funcspace import MAX_DIGIT_ENTRIES, BallQuotient
from padicfrac.measures import heat_coset_vector
from padicfrac.tower import resolve_tower

from test_measures import _reference_jump_shell_masses

SRC = Path(__file__).resolve().parents[1] / "src"
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "805d058536673f356cd99fe2b85b4edd8b97327ebd2693754504e062a9ba225e"),
        (["--alpha", "1e-2"], "7d2e62176f7776f37f12fe7c6589aafecfb13de962969024f2da917a97edd8ce"),
    ],
    ids=["default", "alpha 1e-2"],
)
def test_spectrum_rows_are_pinned(tmp_path, argv, digest):
    # at 1e-2 the default tower's largest multiplicity has 2,890 digits,
    # inside the int-to-str limit
    code, _ = run(tmp_path, "spectrum", *argv, fmt="csv")
    assert code == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("horizon", ["-1", "0", "4"])
def test_spectrum_refuses_a_horizon_outside_the_tower(tmp_path, capsys, horizon):
    # checked before the horizon level's multiplicities are bounded
    code, doc = run(tmp_path, "spectrum", "--tower", UNRAM_TOWER, "--horizon", horizon)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {
        "command": "spectrum", "error": f"--horizon {horizon} outside tower depth 3",
    }


@pytest.mark.parametrize("alpha", ["1e-3", "1e-5", "1e-300"])
def test_spectrum_refuses_multiplicities_past_the_digit_limit(alpha):
    # the exponent cap grows as 1 / alpha; its multiplicities are refused
    # before spectrum() forms one per exponent
    proc = _run_capped(["spectrum", "--alpha", alpha], 1536 << 20, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.strip().splitlines()
    record = json.loads(line)
    assert record["command"] == "spectrum"
    assert "--alpha" in record["error"] and "--max-value" in record["error"]


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


@pytest.mark.parametrize(
    "argv, size",
    [
        (["--tower", Q2_TOWER, "--lo", "-2", "--span", "4", "--seed", "12"], 16),
        # q = 4: block sums of four entries, where the matrix-vector product
        # sums in another order than a plain reduction
        (["--tower", "unramified:p=2,f=1-2", "--level", "2", "--span", "5"], 1024),
    ],
    ids=["Q_2", "q=4"],
)
def test_apply_random_routes_agree(tmp_path, argv, size):
    code, doc = run(tmp_path, "apply", *argv, "--alpha", "0.5")
    assert code == 0
    assert doc["config"]["max_pairwise_deviation"] <= 1e-9
    assert len(doc["rows"]) == size


Q3_APPLY = ("apply", "--tower", "qp:p=3", "--level", "1", "--alpha", "2", "--span", "9")


def test_apply_gate_is_relative_to_the_route_values(tmp_path):
    # values up to ~1.6e8, where the routes differ in the 16th digit
    code, doc = run(tmp_path, *Q3_APPLY)
    assert code == 0
    cfg = doc["config"]
    assert cfg["deviation_scale"] > 1e7
    assert 1e-9 < cfg["max_pairwise_deviation"] <= 1e-9 * cfg["deviation_scale"]


def test_apply_gate_catches_a_relative_perturbation(tmp_path, monkeypatch, capsys):
    spectral = cli.apply_spectral
    monkeypatch.setattr(
        cli, "apply_spectral", lambda *args: spectral(*args) * (1 + 1e-6)
    )
    code, _ = run(tmp_path, *Q3_APPLY)
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["command"] == "apply"
    assert "route deviation" in record["error"]


def test_apply_rejects_wrong_value_count(tmp_path):
    fn = tmp_path / "short.json"
    fn.write_text(json.dumps({"lo": 0, "s": 2, "values": [[1.0, 0.0]] * 3}))
    code, _ = run(tmp_path, "apply", "--tower", Q2_TOWER, "--function", str(fn))
    assert code == 2


FOUR_VALUES = "[[0, 0], [1, 0], [1, 0], [1, 0]]"


@pytest.mark.parametrize("command", ["apply", "levy"])
@pytest.mark.parametrize(
    "text, field",
    [
        ("5", "object"),
        ('{"lo": 0, "s": 2, "values": 7}', "'values'"),
        ('{"lo": null, "s": 2, "values": %s}' % FOUR_VALUES, "'lo'"),
        ('{"lo": 0, "s": 2.5, "values": %s}' % FOUR_VALUES, "'s'"),
        ('{"lo": 0, "s": 2, "values": [[0, 0], [1e400, 0], [1, 0], [1, 0]]}', "'values'"),
        ('{"lo": 0, "s": 2, "values": [[0, 0], [NaN, 0], [1, 0], [1, 0]]}', "'values'"),
    ],
    ids=["not an object", "values not a list", "lo null", "s not an integer", "1e400", "NaN"],
)
def test_malformed_function_file_is_a_config_error(tmp_path, capsys, command, text, field):
    # the value at the origin is 0, so levy reads the rest; a non-finite
    # value would reach the routes as nan
    fn = tmp_path / "fn.json"
    fn.write_text(text)
    code, doc = run(tmp_path, command, "--tower", Q2_TOWER, "--function", str(fn))
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["command"] == command and field in record["error"]


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


def test_singularity_passes_on_a_tower_that_repeats_a_level(tmp_path):
    # K_1 = K_2 = Q_2, then the degree grows 1 -> 2 -> 8
    code, doc = run(tmp_path, "singularity", "--tower", "cyclotomic:p=2,depth=4")
    assert code == 0
    assert doc["config"]["witness"] == "pass"
    rows = doc["rows"]
    assert [r["degree"] for r in rows] == [1, 1, 2, 8]
    assert rows[0]["ratio"] == rows[1]["ratio"]
    assert rows[1]["log10_ratio"] < rows[2]["log10_ratio"] < rows[3]["log10_ratio"]


@pytest.mark.parametrize("N", [1, 1023, 1024, 1074])
def test_singularity_without_a_degree_step_is_indeterminate(tmp_path, N):
    # from N = 1024 on p^(alpha N) is past float range, and the floor
    # exp(-t p^(alpha N)) is 0.0; past N = 1074 mu's mass underflows
    code, doc = run(tmp_path, "singularity", "--tower", "qp:p=2,depth=3", "--N", str(N))
    assert code == 0
    assert doc["config"]["witness"] == "indeterminate"
    assert [r["degree"] for r in doc["rows"]] == [1, 1, 1]
    if N > 1:
        assert all(r["lower_bound"] == 0.0 for r in doc["rows"])


def _perturbed_report(n, factor):
    """singularity_report with the ratio of row n scaled by factor."""
    report = cli.singularity_report

    def perturbed(*args, **kwargs):
        rows = report(*args, **kwargs)
        row = rows[n - 1]
        row["ratio"] *= factor
        row["log10_ratio"] = math.log10(row["ratio"])
        return rows

    return perturbed


@pytest.mark.parametrize(
    "n, factor",
    [
        (3, 0.5),  # the ratio falls across the degree step 1 -> 2
        (2, 1 + 1e-9),  # K_2 = K_1, yet the ratio moves
    ],
)
def test_singularity_fails_when_the_ratio_breaks_the_rule(
    tmp_path, monkeypatch, capsys, n, factor
):
    monkeypatch.setattr(cli, "singularity_report", _perturbed_report(n, factor))
    code, doc = run(tmp_path, "singularity", "--tower", "cyclotomic:p=2,depth=4")
    assert code == 1
    assert doc["config"]["witness"] == "fail"
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {
        "command": "singularity",
        "error": "heat mass does not separate from the invariant measure",
    }


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


def test_levy_refuses_shell_rows_past_the_entry_budget(tmp_path, capsys, monkeypatch):
    # 16 entries a row: 2^20 rows fill the budget, one more is refused
    # before any shell mass is formed (s0 = 0 on Q_3)
    def no_masses(*args):
        raise AssertionError("no shell mass may be formed")

    monkeypatch.setattr(cli, "_jump_shell_masses", no_masses)
    rows = MAX_DIGIT_ENTRIES // 16 + 1
    code, doc = run(tmp_path, "levy", "--tower", "qp:p=3", "--cutoff", str(rows - 1))
    assert code == 2 and doc is None
    assert json.loads(capsys.readouterr().err.strip()) == {
        "command": "levy",
        "error": f"--cutoff {rows - 1}: its shell rows exceed the size budget",
    }


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--tower", Q2_TOWER, "--seed", "9", "--alpha", "2"],
        ["--tower", "qp:p=3", "--alpha", "0.5", "--span", "4"],
        # q = 4: the shell sums against the ball sums at the origin
        ["--tower", "unramified:p=2,f=1-2", "--level", "2", "--alpha", "0.5", "--span", "5"],
    ],
    ids=["Q_2", "Q_3", "q=4"],
)
def test_levy_integrate_random_routes_agree(tmp_path, argv):
    code, doc = run(tmp_path, "levy", "--integrate", *argv)
    assert code == 0
    assert doc["config"]["integral_route_gap"] <= 1e-9


# ---------------------------------------------------------------------------
# heat


def test_heat_masses(tmp_path):
    code, doc = run(tmp_path, "heat", "--tower", Q2_TOWER)
    assert code == 0
    cfg = doc["config"]
    assert abs(cfg["cylinder_mass_closed"] - 0.5 * (1 + math.exp(-2))) <= 1e-12
    assert abs(cfg["coset_mass_total"] - 1.0) <= 1e-12
    assert cfg["invariant_cylinder_mass"] == "1/2"
    rows = doc["rows"]
    assert [r["valuation"] for r in rows] == [0, 1, 2, 3]
    assert [r["cosets"] for r in rows] == [4, 2, 1, 1]
    for r in rows:
        assert r["shell_mass"] == r["cosets"] * r["mass_per_coset"]
    total = sum(r["shell_mass"] for r in rows)
    assert abs(total - cfg["coset_mass_total"]) <= 1e-14


@pytest.mark.parametrize(
    "tower, level, span, alpha, t",
    [
        (Q2_TOWER, 1, 5, 1.0, 1.0),
        ("qp:p=3", 1, 4, 0.5, 0.3),
        (UNRAM_TOWER, 2, 4, 2.0, 1.0),
        (UNRAM_TOWER, 3, 2, 1.0, 0.1),
        ("cyclotomic:p=2,depth=4", 4, 3, 1.5, 2.0),
    ],
)
def test_heat_shell_rows_are_the_coset_vector(tmp_path, tower, level, span, alpha, t):
    code, doc = run(
        tmp_path, "heat", "--tower", tower, "--level", str(level), "--span", str(span),
        "--alpha", str(alpha), "--t", str(t),
    )
    assert code == 0
    cfg, rows = doc["config"], doc["rows"]
    quotient = BallQuotient(resolve_tower(tower).level(level), cfg["lo"], cfg["s"])
    vals = quotient.val_pi_vector
    assert [r["valuation"] for r in rows] == list(range(quotient.lo, quotient.s + 1))
    assert [r["cosets"] for r in rows] == np.bincount(vals - quotient.lo).tolist()
    # the first coset of each shell carries the per-coset mass, bit for bit
    vector = heat_coset_vector(quotient, alpha, t)
    first = [int(np.flatnonzero(vals == r["valuation"])[0]) for r in rows]
    assert [r["mass_per_coset"] for r in rows] == vector[first].tolist()
    assert (vector == np.array([r["mass_per_coset"] for r in rows])[vals - quotient.lo]).all()


def test_default_heat_runs_within_a_memory_limit():
    # the top level of the default tower at span 3 has 2^72 cosets: one row
    # per shell needs none of them
    proc = _run_capped(["heat", "--format", "json"], 1536 << 20, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    cfg, rows = doc["config"], doc["rows"]
    assert cfg["cylinder_mass_closed"] == 0.135335334774646
    assert abs(cfg["coset_mass_total"] - 1.0) <= 1e-12
    assert [r["cosets"] for r in rows] == [
        (2**24 - 1) * 2**48, (2**24 - 1) * 2**24, 2**24 - 1, 1,
    ]


@pytest.mark.parametrize("span", [1100, 2000])
def test_heat_runs_past_float_range(tmp_path, span):
    # counts above 2^1024, per-coset masses below 2^-1074 and eigenvalues
    # past float range: the shell masses are still finite and sum to 1
    code, doc = run(tmp_path, "heat", "--tower", "qp:p=2", "--span", str(span))
    assert code == 0
    cfg, rows = doc["config"], doc["rows"]
    assert abs(cfg["coset_mass_total"] - 1.0) <= 1e-12
    assert [r["valuation"] for r in rows] == list(range(span + 1))
    assert rows[0]["cosets"] == 2 ** (span - 1) and rows[-1]["cosets"] == 1
    assert all(math.isfinite(r["mass_per_coset"]) for r in rows)
    assert rows[0]["shell_mass"] == 0.5 * (1 - math.exp(-2))  # (1 - 1/q)(1 - u_1)
    assert rows[-1]["shell_mass"] == rows[-1]["mass_per_coset"] == 0.0


@pytest.mark.parametrize(
    "tower, level, span",
    [
        ("unramified:p=3,f=1-2-6-18-54-162", 6, 1),
        ("unramified:p=2,f=1-2-6-18-54-162-486-1458", 8, 1),
        ("unramified:p=2,f=1-2-6-18-54-162", 6, 6),
    ],
)
def test_heat_runs_where_q_is_past_float_range(tmp_path, tower, level, span):
    # q = 3^162, 2^1458 and 2^162: every mass printed still lies in [0, 1]
    code, doc = run(
        tmp_path, "heat", "--tower", tower, "--level", str(level), "--span", str(span),
    )
    assert code == 0
    cfg, rows = doc["config"], doc["rows"]
    assert abs(cfg["coset_mass_total"] - 1.0) <= cfg["tolerance"]
    # the N = 1 cylinder keeps 1/q + (1 - 1/q) exp(-p) at alpha = t = 1,
    # and 1/q is far below the last digit
    p = int(tower.split("p=")[1].split(",")[0])
    assert abs(cfg["cylinder_mass_closed"] - math.exp(-p)) <= 1e-15
    assert len(rows) == span + 1
    assert all(0.0 <= r["shell_mass"] <= 1.0 for r in rows)


@pytest.mark.parametrize("alpha", ["0.001", "1e-300"])
def test_heat_runs_at_a_small_alpha(tmp_path, alpha):
    # the decay factors die only after thousands of shells at alpha = 0.001,
    # and never at 1e-300, where every eigenvalue rounds to 1; the masses
    # come from the shells of the quotient alone
    start = time.perf_counter()
    code, doc = run(tmp_path, "heat", "--tower", "qp:p=2", "--alpha", alpha)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    cfg = doc["config"]
    assert abs(cfg["coset_mass_total"] - 1.0) <= cfg["tolerance"]
    # the N = 1 cylinder of Q_2 keeps 1/2 + exp(-2^alpha) / 2 at t = 1
    expected = 0.5 + 0.5 * math.exp(-(2.0 ** float(alpha)))
    assert abs(cfg["cylinder_mass_closed"] - expected) <= 1e-15


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [["heat", "--span", "596"], ["heat", "--N", "596"], ["heat", "--N", "700"]],
    ids=" ".join,
)
def test_numbers_past_the_digit_limit_are_a_config_error(capsys, argv, fmt):
    # a coset count, or the invariant mass's denominator, past the
    # 4,300-digit int-to-str limit: one record, and nothing half written
    code = main([*argv, "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert json.loads(line)["command"] == "heat"


@pytest.mark.parametrize("t", ["-0.5", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["heat", "singularity", "simulate"])
def test_heat_refuses_a_bad_horizon(tmp_path, capsys, command, t):
    code, doc = run(tmp_path, command, "--tower", "qp:p=2", "--t", t)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"command": command, "error": "--t must be positive and finite"}


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


@pytest.mark.parametrize(
    "argv, log_expected",
    [
        (["--tower", Q2_TOWER, "--lam-valuation", "-1", "--paths", "4000", "--seed", "101"],
         -2.0),
        # q = 2^1458: the label's phase law forms no power of q
        (["--tower", "unramified:p=2,f=1-2-6-18-54-162-486-1458"], -2.0),
        # kappa = 9 residues: the phase histogram folds on an odd prime
        (["--tower", "qp:p=3", "--alpha", "0.5", "--lam-valuation", "-2"], -3.0),
        # kappa = 3^9 residues: the guide is capped at 2^16 buckets on an odd prime
        (["--tower", "qp:p=3", "--lam-valuation", "-9", "--t", "1e-3"], -19.683),
    ],
    ids=["Q_2", "q=2^1458", "Q_3", "Q_3 kappa=3^9"],
)
def test_simulate_seeded_run_matches_the_closed_form(tmp_path, argv, log_expected):
    # log_expected = -t p^(alpha L / e) at the label of valuation -L
    code, doc = run(tmp_path, "simulate", *argv)
    assert code == 0
    (row,) = doc["rows"]
    assert row["z_score"] <= 4.0
    assert abs(row["expected"] - math.exp(log_expected)) < 1e-15


@pytest.mark.parametrize("flags", [("--paths", "1"), ("--paths", "0"), ("--t", "0")])
def test_simulate_rejects_too_few_paths_and_empty_horizons(tmp_path, flags):
    code, doc = run(
        tmp_path, "simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1", *flags,
    )
    assert code == 2 and doc is None


def test_simulate_with_equal_paths_has_no_z_score(tmp_path, capsys):
    # at t = 1e-9 no path jumps, so every path gives 1 and the stderr is 0
    code, doc = run(
        tmp_path, "simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1",
        "--t", "1e-9", "--paths", "100",
    )
    assert code == 2 and doc is None
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["command"] == "simulate"
    assert "z-score" in record["error"]


def _run_capped(argv, limit, timeout):
    """Run the CLI in a subprocess under its own address-space limit."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "padicfrac.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=cap_memory,
    )


def test_default_simulate_runs_within_a_memory_limit():
    # the default tower's top level (q = 2^24) once needed a 2^24-coset jump
    # quotient; the phase law of the label needs kappa = 2 residues
    proc = _run_capped(["simulate", "--format", "json"], 1 << 30, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["level"] == 4 and doc["rows"][0]["z_score"] <= 4.0


@pytest.mark.parametrize("lam_valuation, code", [(-20, 0), (-21, 2)])
def test_the_phase_table_is_held_to_the_entry_budget(lam_valuation, code):
    # kappa = 2^20 residues at 16 entries each fill the budget; 2^21 are
    # refused before any table or draw
    argv = ["simulate", "--tower", "qp:p=2", "--lam-valuation", str(lam_valuation),
            "--t", "1e-5", "--format", "json"]
    proc = _run_capped(argv, 1536 << 20, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert json.loads(proc.stderr.strip().splitlines()[-1]) == {
            "command": "simulate",
            "error": "label too deep: its phase table exceeds the size budget",
        }


def test_deep_label_simulates_within_a_memory_limit():
    # the jump law of a label of valuation -19 on Q_2 stops at its boundary
    # shell: a 2^19-coset quotient, inside the digit-matrix budget
    argv = ["simulate", "--tower", "qp:p=2", "--lam-valuation", "-19", "--t", "1e-5",
            "--format", "json"]
    proc = _run_capped(argv, 1536 << 20, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["config"]["lam_valuation"] == -19


# mc_characteristic holds at most 7 int64 entries per path at its peak
MAX_PATHS = MAX_DIGIT_ENTRIES // 7


@pytest.mark.parametrize("paths", [MAX_PATHS, MAX_PATHS + 1, 200_000_000])
def test_simulate_paths_are_held_to_the_entry_budget(paths):
    # the largest --paths accepted runs within the limit; one more is
    # refused before any draw
    argv = ["simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1",
            "--paths", str(paths), "--format", "json"]
    proc = _run_capped(argv, 1536 << 20, timeout=120)
    if paths == MAX_PATHS:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["paths"] == paths
        return
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {
        "command": "simulate",
        "error": "n_paths too large: its per-path arrays exceed the size budget",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--level", "1", "--span", "26"],  # 2^26 cosets: 1 GiB of values
        ["apply"],  # the top level at span 3: 2^48 cosets
        ["levy", "--integrate"],
    ],
    ids=" ".join,
)
def test_oversized_random_function_fails_fast_within_a_memory_limit(argv):
    # the quotient is refused before its random function is drawn
    proc = _run_capped(argv, 1536 << 20, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {
        "command": argv[0], "error": "quotient too large to enumerate",
    }


@pytest.mark.parametrize(
    "argv, code",
    [
        # the invariant mass of level 1 underflows, and the heat mass would
        # take one term per unit of N e: refused before either is formed
        (["singularity", "--N", "30000000"], 2),
        # the widest shell's (q - 1) q^(span - 1) cosets, or the invariant
        # mass's denominator q^(N e), past the int-to-str digit limit:
        # refused before the O(span + N e) masses are formed
        (["heat", "--tower", "qp:p=3", "--span", "30000000"], 2),
        (["heat", "--tower", "qp:p=3", "--N", "100000000"], 2),
        # 16 entries charged per output row: 3 * 10^7 shell rows are
        # refused before any mass is formed
        (["levy", "--tower", "qp:p=3", "--cutoff", "30000000", "--alpha", "1e-8"], 2),
        # the largest span and N that still render at q = 2^24
        (["heat", "--span", "595"], 0),
        (["heat", "--N", "595"], 0),
        (["spectrum"], 0),
        (["singularity"], 0),
        (["levy"], 0),
        (["verify-all"], 0),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit {value}",
)
def test_runs_end_or_are_refused_within_a_memory_limit(argv, code):
    start = time.perf_counter()
    proc = _run_capped([*argv, "--format", "json"], 1536 << 20, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    if code:
        assert elapsed < 2.0
        assert proc.stdout == ""
        (line,) = proc.stderr.strip().splitlines()
        assert json.loads(line)["command"] == argv[0]
    else:
        assert json.loads(proc.stdout)["rows"]


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


@pytest.mark.parametrize("alpha", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize(
    "command", ["spectrum", "apply", "singularity", "levy", "heat", "simulate"]
)
def test_non_positive_alpha_is_a_config_error(tmp_path, capsys, command, alpha):
    # an infinite alpha would give nan route values
    code, doc = run(tmp_path, command, "--tower", Q2_TOWER, "--alpha", alpha)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"command": command, "error": "--alpha must be positive and finite"}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, "--tolerance", value)
        for command in ("apply", "levy", "heat")
        for value in ("nan", "inf", "-1")
    ]
    + [("simulate", "--z-max", value) for value in ("nan", "inf", "0", "-1")],
)
def test_gates_refuse_values_that_pass_or_fail_everything(
    tmp_path, capsys, command, flag, value
):
    # no comparison with nan holds, so a nan gate passes anything, and a
    # negative one fails everything
    code, doc = run(tmp_path, command, "--tower", Q2_TOWER, flag, value)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    error = {
        "--tolerance": "--tolerance must be finite and nonnegative",
        "--z-max": "--z-max must be positive and finite",
    }[flag]
    assert json.loads(line) == {"command": command, "error": error}


def _nan_times(route):
    return lambda *args, **kwargs: route(*args, **kwargs) * math.nan


@pytest.mark.parametrize(
    "argv, route, nan_route, error",
    [
        (["apply"], "apply_spectral", _nan_times, "route deviation"),
        (["levy", "--integrate"], "levy_integral_spectral", _nan_times, "integral routes differ"),
        (["heat"], "heat_shell_masses", lambda route: lambda *a: [math.nan] * len(route(*a)),
         "coset masses sum to"),
        (["simulate"], "mc_characteristic", lambda route: lambda *a, **k: (complex(math.nan), 0.1),
         "estimate is nan"),
    ],
    ids=["apply", "levy", "heat", "simulate"],
)
def test_gates_fail_a_nan(tmp_path, monkeypatch, capsys, argv, route, nan_route, error):
    # every comparison with nan is false, so each gate asks for "not x <= bound"
    monkeypatch.setattr(cli, route, nan_route(getattr(cli, route)))
    code, _ = run(tmp_path, argv[0], "--tower", Q2_TOWER, *argv[1:])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["command"] == argv[0] and record["error"].startswith(error)


@pytest.mark.parametrize(
    "argv",
    [
        ["levy", "--tower", "qp:p=2", "--cutoff", "1100"],
        ["singularity", "--tower", "qp:p=2,depth=2", "--N", "2000"],
        ["singularity", "--tower", "qp:p=2,depth=3", "--N", "1075"],
        ["spectrum", "--tower", "qp:p=2", "--max-value", "1e308"],
        ["simulate", "--tower", "qp:p=2", "--lam-valuation", "-1100"],
        # lambda_1 stays in range, but a jump shell mass is past it
        ["levy", "--tower", "qp:p=2", "--alpha", "600", "--cutoff", "1"],
        ["apply", "--tower", "qp:p=2", "--alpha", "1e3"],
    ],
    ids=" ".join,
)
def test_numbers_out_of_float_range_are_a_config_error(tmp_path, capsys, argv):
    code, doc = run(tmp_path, *argv)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["command"] == argv[0]
    assert record["error"].startswith("a number is out of floating-point range")


@pytest.mark.parametrize(
    "argv",
    [
        ["heat", "--tower", "qp:p=1", "--span", "2"],
        ["spectrum", "--tower", "qp:p=0"],
        ["heat", "--tower", "qp:p=4"],
        ["simulate", "--tower", "qp:p=6"],
        ["heat", "--tower", "unramified:p=6,f=1-2"],
        ["heat", "--tower", "nine.json"],
    ],
    ids=" ".join,
)
def test_a_p_that_is_no_prime_is_a_config_error(tmp_path, argv):
    # p = 1 once hung in the valuation loop, and p = 4 or 6 printed the
    # masses of no field
    (tmp_path / "nine.json").write_text(json.dumps(
        {"p": 9, "label": "custom", "levels": [[], [{"kind": "unramified", "degree": 2}]]}
    ))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    proc = _run_capped(argv, 1536 << 20, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.strip().splitlines()
    record = json.loads(line)
    assert record["command"] == argv[0] and record["error"].startswith("p = ")


MALFORMED_TOWER_FILES = {
    "no-p.json": {"label": "custom", "levels": [[]]},
    "no-levels.json": {"p": 2, "label": "custom"},
    "list.json": [2, [[]]],
    "level-not-a-list.json": {"p": 2, "levels": [[], 5]},
    "step-not-an-object.json": {"p": 2, "levels": [[], [5]]},
    "power-above-degree.json": {"p": 2, "levels": [[], [
        {"kind": "unramified", "degree": 2, "poly": [["1", 2], ["1", 5], ["1", 0]]}]]},
    "number-coefficient.json": {"p": 2, "levels": [[], [
        {"kind": "eisenstein", "poly": [["1", 2], [2, 0]]}]]},
    "float-p.json": {"p": 2.5, "levels": [[]]},
    "float-degree.json": {"p": 2, "levels": [[], [{"kind": "unramified", "degree": 2.5}]]},
    "poly-not-a-list.json": {"p": 2, "levels": [[], [{"kind": "eisenstein", "poly": 5}]]},
    "float-power.json": {"p": 2, "levels": [[], [
        {"kind": "eisenstein", "poly": [["-2", 0], ["1", 2.5]]}]]},
}


@pytest.mark.parametrize(
    "tower, field",
    [
        ("qp:depth=2", "p="),
        ("unramified:p=2", "f="),
        ("factorial:p=2", "depth="),
        ("no-p.json", "'p'"),
        ("no-levels.json", "'levels'"),
        ("list.json", "'p'"),
        ("level-not-a-list.json", "'levels'"),
        ("step-not-an-object.json", "'levels'"),
        ("power-above-degree.json", "poly powers"),
        ("number-coefficient.json", "coefficient"),
        ("float-p.json", "'p'"),
        ("float-degree.json", "integer degree"),
        ("poly-not-a-list.json", "'poly'"),
        ("float-power.json", "'poly'"),
    ],
)
def test_a_malformed_tower_is_a_config_error(tmp_path, capsys, tower, field):
    # each once ended in a traceback with the exit status of a failed
    # assertion, or ("p": 2.5, "degree": 2.5, power 2.5) ran as if it were
    # an integer
    if tower in MALFORMED_TOWER_FILES:
        path = tmp_path / tower
        path.write_text(json.dumps(MALFORMED_TOWER_FILES[tower]))
        tower = str(path)
    code, doc = run(tmp_path, "heat", "--tower", tower)
    assert code == 2 and doc is None
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["command"] == "heat" and field in record["error"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_small_primes_run(tmp_path, p):
    code, doc = run(tmp_path, "heat", "--tower", f"qp:p={p}")
    assert code == 0 and doc["rows"]


def test_tiny_alpha_runs(tmp_path):
    # q^(alpha/m) - 1 = 2^(1e-17) - 1 rounds to 0 next to 1: the jump masses
    # take it from expm1 and never divide by it
    code, doc = run(tmp_path, "apply", "--tower", "qp:p=2", "--alpha", "1e-17")
    assert code == 0
    cfg = doc["config"]
    assert cfg["max_pairwise_deviation"] <= cfg["tolerance"] * cfg["deviation_scale"]
    code, doc = run(tmp_path, "levy", "--tower", "qp:p=2", "--alpha", "1e-17", "--integrate")
    assert code == 0
    assert doc["config"]["integral_route_gap"] <= doc["config"]["tolerance"]


def test_jump_shells_at_a_residue_field_past_float_range(tmp_path):
    # q = 2^1458: no power of q is formed, 1/q underflows to 0.0
    tower = "unramified:p=2,f=1-2-6-18-54-162-486-1458"
    code, doc = run(tmp_path, "levy", "--tower", tower)
    assert code == 0
    level = resolve_tower(tower).level(8)
    ks = [row["valuation"] - level.s0 for row in doc["rows"]]
    assert ks == [0, 1, 2]
    for row, ref in zip(doc["rows"], _reference_jump_shell_masses(level, 1.0, ks)):
        assert abs(Decimal(row["shell_mass"]) - ref) <= Decimal("1e-15") * ref


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


def _one_dumps(config, columns, rows):
    doc = {
        "config": {k: cli._jsonable(v) for k, v in config.items()},
        "columns": columns,
        "rows": [{k: cli._jsonable(row[k]) for k in columns} for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--tower", UNRAM_TOWER, "--max-value", "16"],
        ["levy", "--tower", Q2_TOWER, "--integrate", "--span", "4"],
        ["heat", "--tower", "qp:p=2", "--span", "5"],
        ["singularity"],
        ["simulate", "--tower", Q2_TOWER, "--lam-valuation", "-1", "--paths", "2000"],
        ["apply", "--tower", "qp:p=2", "--span", "4"],
        ["verify-all", "--only", "heat_ball_mass,log_characteristic"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_written_row_by_row_is_one_dumps(argv):
    # the JSON document is written a row at a time, byte for byte the
    # indented dumps of the whole document
    args = cli._build_parser().parse_args([*argv, "--format", "json"])
    config, columns, rows, _ = args.func(args)
    out = io.StringIO()
    cli._write(out, config, columns, rows, "json")
    assert out.getvalue() == _one_dumps(config, columns, rows)


def test_json_rows_of_every_value_kind_are_one_dumps():
    config = {"b": Fraction(3, 4), "a": np.float64(0.5), "c": np.int64(7), "note": 'say "x"\ny'}
    rows = [
        {"x": math.nan, "y": -math.inf, "z": "a,b\n", "w": None, "v": True},
        {"x": 10**40, "y": Fraction(-1, 3), "z": "", "w": [1, 2], "v": {"k": 1}},
    ]
    for columns, kept in [(["z", "x", "y", "w", "v"], rows), (["x"], rows[:1]), (["x"], []), ([], [{}])]:
        for cfg in (config, {}):
            out = io.StringIO()
            cli._write(out, cfg, columns, kept, "json")
            assert out.getvalue() == _one_dumps(cfg, columns, kept)


_PEAK = """
import resource, sys
from padicfrac.cli import main
code = main(["levy", "--tower", "qp:p=3", "--cutoff", "99999", "--alpha", "1e-8",
             "--format", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_json_at_many_rows_peaks_near_csv(tmp_path):
    # 10^5 levy rows: the JSON writer holds a row of text at a time, as CSV
    # does, so its peak stays within 1.2 times the CSV peak
    peaks = {}
    for fmt in ("csv", "json"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK, fmt, str(tmp_path / f"out.{fmt}")],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        code, peaks[fmt] = map(int, proc.stdout.split())
        assert proc.returncode == 0 and code == 0, proc.stderr
    assert len(json.loads((tmp_path / "out.json").read_text())["rows"]) == 100_000
    assert peaks["json"] <= 1.2 * peaks["csv"]
