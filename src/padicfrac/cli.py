"""Command-line front end.

One subcommand per computation family: ``spectrum`` (eigenvalue catalog),
``apply`` (run a function through all operator routes), ``singularity``
(invariant-vs-heat cylinder masses down a tower), ``levy`` (jump-measure
shells and integrals), ``heat`` (heat masses, one row per quotient shell),
``simulate`` (seeded jump-process Monte Carlo), and ``verify-all`` (the
whole self-verification suite).

Every run resolves its full configuration (defaults included) into the
output header, and output bytes depend only on (config, seed): floats are
rendered with ``repr``, keys are sorted, CSV columns are fixed per command.
Tables go to ``--out`` or stdout; human progress lines go to stderr.  Exit
status is 0 exactly when the run's built-in assertions hold, 1 on a failed
assertion (with a machine-readable record on stderr), 2 on bad input or on
numbers out of floating-point range.
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import acceptance
from .funcspace import MAX_DIGIT_ENTRIES, BallQuotient, random_function
from .measures import (
    heat_cylinder_mass,
    heat_shell_masses,
    levy_integral,
    levy_integral_spectral,
    mu_cylinder_mass,
    singularity_report,
)
from .process import expected_characteristic, mc_characteristic
from .tower import min_positive_eigenvalue, resolve_tower, spectrum
from .vladimirov import _jump_shell_masses, apply_hypersingular, apply_spectral

DEFAULT_TOWER = "unramified:p=2,f=1-2-6-24"


class CommandError(Exception):
    """Bad configuration or input; maps to exit status 2."""


# ---------------------------------------------------------------------------
# canonical rendering


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _render(config, columns, rows, fmt):
    if fmt == "json":
        doc = {
            "config": {k: _jsonable(v) for k, v in config.items()},
            "columns": columns,
            "rows": [{k: _jsonable(row[k]) for k in columns} for row in rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    for key in sorted(config):
        buf.write(f"# {key}={_fmt(config[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in columns])
    return buf.getvalue()


def _emit(args, config, columns, rows):
    text = _render(config, columns, rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _fail(command, reason, **details):
    record = {"command": command, "error": reason}
    record.update({k: _jsonable(v) for k, v in details.items()})
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# shared argument handling


def _add_common(sub, tower=True):
    sub.add_argument("--tower", default=DEFAULT_TOWER if tower else None,
                     help="tower preset string or JSON tower file")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _pick_level(tower, args, flag):
    """(level, n) for the --level (or --horizon) n, the top level by default."""
    n = getattr(args, flag)
    n = tower.depth if n is None else n
    if not 1 <= n <= tower.depth:
        raise CommandError(f"--{flag} {n} outside tower depth {tower.depth}")
    return tower.level(n), n


def _check_t(args):
    if not 0.0 < args.t < math.inf:
        raise CommandError("--t must be positive and finite")


def _check_renders(factor, q, k, what, remedy):
    """Refuse a run whose output holds factor * q**k (1 <= factor < q) past
    the int-to-str digit limit, before anything is formed: the log bound
    first, so that no power past the limit is ever formed, then the exact
    compare.  Rendering refuses exactly the integers >= 10**limit."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if k * math.log10(q) > limit + 1 or factor * q**k >= 10**limit:
        raise CommandError(f"{what} of more than {limit} decimal digits; {remedy}")


def _load_function(args, level):
    """Resolve the function input for apply/levy: an explicit JSON file
    ({"lo": int, "s": int, "values": [[re, im], ...]}) or a seeded random
    function on the ball quotient given by --lo/--span."""
    if args.function is not None:
        try:
            with open(args.function, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CommandError(f"cannot read function file: {exc}") from exc
        if not isinstance(doc, dict):
            raise CommandError(
                "function file must hold a JSON object with fields 'lo', 's' and 'values'"
            )
        for field in ("lo", "s", "values"):
            if field not in doc:
                raise CommandError(f"function file misses field {field!r}")
        for field in ("lo", "s"):
            if type(doc[field]) is not int:  # a bool is an int too
                raise CommandError(f"field {field!r} must be an integer")
        quotient = BallQuotient(level, doc["lo"], doc["s"])
        values = doc["values"]
        if not isinstance(values, list):
            raise CommandError("field 'values' must be a list of [re, im] pairs")
        if len(values) != quotient.size:
            raise CommandError(
                f"field 'values' has {len(values)} entries, quotient needs "
                f"{quotient.size}"
            )
        try:
            out = np.array([complex(re, im) for re, im in values])
        except (TypeError, ValueError) as exc:
            raise CommandError(f"field 'values' must hold [re, im] pairs: {exc}")
        # JSON reads NaN, Infinity and 1e400 as floats the routes cannot use
        if not np.isfinite(out).all():
            raise CommandError("field 'values' must hold finite numbers")
        return quotient, out
    lo = args.lo if args.lo is not None else level.s0 - 1
    quotient = BallQuotient(level, lo, lo + args.span)
    # the routes need the digit matrix, so refuse before drawing |G| values
    quotient.check_enumerable()
    rng = np.random.default_rng(args.seed)
    return quotient, random_function(quotient, rng)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args):
    tower = resolve_tower(args.tower)
    if args.max_value <= 0:
        raise CommandError("--max-value must be positive")
    _, horizon = _pick_level(tower, args, "horizon")
    cap = max(1, math.ceil(math.log(max(args.max_value, 2.0))
                           / math.log(tower.q1) / args.alpha))
    # the largest multiplicity, (q - 1) q^(N - 1) at N = cap e on the horizon
    # level, must render: refuse it before spectrum() visits every exponent
    H = tower.level(horizon)
    _check_renders(
        H.q - 1, H.q, cap * H.e - 1,
        f"--alpha {args.alpha!r} and --max-value {args.max_value!r} reach multiplicities",
        "raise --alpha or lower --max-value",
    )
    entries = [
        en
        for en in spectrum(tower, args.alpha, exponent_cap=cap, horizon=horizon)
        if en.eigenvalue <= args.max_value * (1 + 1e-12)
    ]
    config = {
        "command": "spectrum", "tower": args.tower, "alpha": args.alpha,
        "max_value": args.max_value, "horizon": horizon, "format": args.format,
    }
    columns = ["kind", "horizon", "exponent", "eigenvalue", "first_level",
               "multiplicity"]
    rows = [
        {
            "kind": "eigenvalue", "horizon": horizon,
            "exponent": "" if en.exponent is None else str(Fraction(en.exponent)),
            "eigenvalue": en.eigenvalue, "first_level": en.first_level,
            "multiplicity": en.multiplicity,
        }
        for en in entries
    ]
    for h in range(1, horizon + 1):
        rows.append({
            "kind": "min_positive", "horizon": h, "exponent": "",
            "eigenvalue": min_positive_eigenvalue(tower, args.alpha, horizon=h),
            "first_level": "", "multiplicity": "",
        })
    eigs = [r["eigenvalue"] for r in rows if r["kind"] == "eigenvalue"]
    ok = eigs == sorted(eigs) and all(
        r["multiplicity"] >= 1 for r in rows if r["kind"] == "eigenvalue"
    )
    failures = [] if ok else ["spectrum rows are not sorted with positive multiplicity"]
    return config, columns, rows, failures


def cmd_apply(args):
    tower = resolve_tower(args.tower)
    level, n = _pick_level(tower, args, "level")
    quotient, values = _load_function(args, level)
    routes = {
        "hypersingular": apply_hypersingular(quotient, values, args.alpha),
        "spectral": apply_spectral(quotient, values, args.alpha),
    }
    names = sorted(routes)
    deviation = float(np.abs(routes["hypersingular"] - routes["spectral"]).max())
    # the tolerance is relative to the largest route value, absolute below 1
    scale = max(1.0, *(float(np.abs(route).max()) for route in routes.values()))
    config = {
        "command": "apply", "tower": args.tower, "level": n,
        "alpha": args.alpha, "lo": quotient.lo, "s": quotient.s,
        "function": args.function or f"random(seed={args.seed})",
        "tolerance": args.tolerance, "deviation_scale": scale,
        "max_pairwise_deviation": deviation, "format": args.format,
    }
    columns = ["coset", "valuation", "input_re", "input_im"]
    for name in names:
        columns += [f"{name}_re", f"{name}_im"]
    vals = quotient.val_pi_vector
    rows = []
    for g in range(quotient.size):
        row = {
            "coset": g, "valuation": int(vals[g]),
            "input_re": float(values[g].real), "input_im": float(values[g].imag),
        }
        for name in names:
            row[f"{name}_re"] = float(routes[name][g].real)
            row[f"{name}_im"] = float(routes[name][g].imag)
        rows.append(row)
    failures = []
    # every gate reads "not x <= bound", so that a nan fails it
    if not deviation <= args.tolerance * scale:
        failures.append(
            f"route deviation {deviation!r} exceeds tolerance {args.tolerance!r} "
            f"x scale {scale!r}"
        )
    return config, columns, rows, failures


def cmd_singularity(args):
    tower = resolve_tower(args.tower)
    _, horizon = _pick_level(tower, args, "horizon")
    _check_t(args)
    report = singularity_report(tower, alpha=args.alpha, t=args.t, N=args.N)[:horizon]
    # the ratio must grow across each step that grows the degree; a step
    # that keeps it repeats the field, and so the ratio
    steps = list(zip(report, report[1:]))
    if not any(b["degree"] > a["degree"] for a, b in steps):
        witness = "indeterminate"
    else:
        separates = all(
            b["log10_ratio"] > a["log10_ratio"]
            if b["degree"] > a["degree"]
            else b["ratio"] == a["ratio"]
            for a, b in steps
        )
        bounded = all(row["heat"] >= row["lower_bound"] for row in report)
        witness = "pass" if separates and bounded else "fail"
    config = {
        "command": "singularity", "tower": args.tower, "alpha": args.alpha,
        "t": args.t, "N": args.N, "horizon": horizon, "witness": witness,
        "format": args.format,
    }
    columns = ["n", "degree", "mu", "heat", "lower_bound", "ratio", "log10_ratio"]
    failures = [] if witness != "fail" else [
        "heat mass does not separate from the invariant measure"
    ]
    return config, columns, report, failures


def cmd_levy(args):
    tower = resolve_tower(args.tower)
    level, n = _pick_level(tower, args, "level")
    cutoff = args.cutoff if args.cutoff is not None else level.s0 + 2
    if cutoff < level.s0:
        raise CommandError(f"--cutoff {cutoff} lies below the first shell {level.s0}")
    # each output row charged 16 entries, as residues and counts are
    if 16 * (cutoff - level.s0 + 1) > MAX_DIGIT_ENTRIES:
        raise CommandError(f"--cutoff {cutoff}: its shell rows exceed the size budget")
    config = {
        "command": "levy", "tower": args.tower, "level": n,
        "alpha": args.alpha, "cutoff": cutoff, "tolerance": args.tolerance,
        "format": args.format,
    }
    columns = ["valuation", "shell_mass", "mass_through_shell"]
    rows, running = [], 0.0
    shells = range(level.s0, cutoff + 1)
    for w, mass in zip(shells, _jump_shell_masses(level, args.alpha, shells)):
        running += mass
        rows.append({
            "valuation": w, "shell_mass": mass, "mass_through_shell": running,
        })
    failures = []
    if args.function is not None or args.integrate:
        quotient, values = _load_function(args, level)
        if args.function is None:
            values[0] = 0.0  # a random integrand, pinned to vanish at zero
        direct = levy_integral(quotient, args.alpha, values)
        spectral = levy_integral_spectral(quotient, args.alpha, values)
        gap = abs(direct - spectral)
        config.update({
            "integral_direct_re": direct.real, "integral_direct_im": direct.imag,
            "integral_spectral_re": spectral.real,
            "integral_spectral_im": spectral.imag,
            "integral_route_gap": float(gap),
            "quotient_lo": quotient.lo, "quotient_s": quotient.s,
        })
        if not gap <= args.tolerance:
            failures.append(
                f"integral routes differ by {gap!r} > {args.tolerance!r}"
            )
    return config, columns, rows, failures


def cmd_heat(args):
    tower = resolve_tower(args.tower)
    level, n = _pick_level(tower, args, "level")
    if args.N < 0:
        raise CommandError("--N must be nonnegative")
    _check_t(args)
    # the widest shell's coset count, (q - 1) q^(span - 1), and the invariant
    # mass's denominator q^(N e) must render; the masses cost O(span + N e)
    if args.span >= 1:  # else the quotient below refuses it
        _check_renders(level.q - 1, level.q, args.span - 1,
                       f"--span {args.span} reaches coset counts", "lower --span")
    _check_renders(1, level.q, args.N * level.e,
                   f"--N {args.N} reaches an invariant mass denominator", "lower --N")
    closed = heat_cylinder_mass(level, args.alpha, args.t, args.N)
    lo = level.s0
    quotient = BallQuotient(level, lo, lo + args.span)
    whole = heat_shell_masses(quotient, args.alpha, args.t)
    masses = quotient.per_coset(whole)
    rows = [
        {"valuation": w, "cosets": k, "mass_per_coset": m, "shell_mass": x}
        for w, k, m, x in zip(range(lo, quotient.s + 1), quotient.shell_sizes(), masses, whole)
    ]
    total = math.fsum(row["shell_mass"] for row in rows)
    config = {
        "command": "heat", "tower": args.tower, "level": n, "alpha": args.alpha,
        "t": args.t, "N": args.N, "lo": lo, "s": lo + args.span,
        "cylinder_mass_closed": closed,
        "invariant_cylinder_mass": mu_cylinder_mass(level, args.N),
        "coset_mass_total": total, "tolerance": args.tolerance,
        "format": args.format,
    }
    columns = ["valuation", "cosets", "mass_per_coset", "shell_mass"]
    failures = []
    if not abs(total - 1.0) <= args.tolerance:
        failures.append(f"coset masses sum to {total!r}, not 1")
    return config, columns, rows, failures


def cmd_simulate(args):
    tower = resolve_tower(args.tower)
    level, n = _pick_level(tower, args, "level")
    _check_t(args)
    expected = expected_characteristic(level, args.alpha, args.lam_valuation, args.t)
    if args.lam_valuation >= 0:
        estimate, stderr = complex(1.0), 0.0
        z = 0.0
    else:
        estimate, stderr = mc_characteristic(
            level, args.alpha, args.lam_valuation, args.t,
            n_paths=args.paths, seed=args.seed,
        )
        if stderr == 0:
            raise CommandError(
                "every path gave the same value, so no z-score exists; "
                "raise --t or --paths"
            )
        z = abs(estimate.real - expected) / stderr
    config = {
        "command": "simulate", "tower": args.tower, "level": n,
        "alpha": args.alpha, "t": args.t, "lam_valuation": args.lam_valuation,
        "paths": args.paths, "seed": args.seed, "z_max": args.z_max,
        "format": args.format,
    }
    columns = ["estimate_re", "estimate_im", "stderr", "expected", "z_score"]
    rows = [{
        "estimate_re": estimate.real, "estimate_im": estimate.imag,
        "stderr": stderr, "expected": expected, "z_score": float(z),
    }]
    failures = []
    if not z <= args.z_max:
        failures.append(f"estimate is {z!r} standard errors from the closed form")
    if not abs(estimate.imag) <= args.z_max * stderr:
        failures.append("imaginary part inconsistent with a symmetric jump law")
    return config, columns, rows, failures


def cmd_verify_all(args):
    checks = acceptance.ALL_CHECKS
    if args.only:
        wanted = args.only.split(",")
        by_name = {c.__name__.removeprefix("check_"): c for c in checks}
        missing = [w for w in wanted if w not in by_name]
        if missing:
            raise CommandError(
                f"unknown checks {missing}; know {sorted(by_name)}"
            )
        checks = [by_name[w] for w in wanted]
    results = []
    for check in checks:
        res = check()
        print(res.line(), file=sys.stderr)
        results.append(res)
    config = {
        "command": "verify-all",
        "checks": ",".join(r.name for r in results),
        "format": args.format,
    }
    columns = ["name", "passed", "detail"]
    rows = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    failures = [f"check {r.name} failed: {r.detail}" for r in results if not r.passed]
    return config, columns, rows, failures


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="padicfrac",
        description="fractional diffusion computations on towers of p-adic "
                    "field extensions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalue catalog of a tower")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--max-value", type=float, default=16.0)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=cmd_spectrum)

    ap = subs.add_parser("apply", help="run a function through every operator route")
    _add_common(ap)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--level", type=int, default=None)
    ap.add_argument("--function", default=None, help="JSON function file")
    ap.add_argument("--lo", type=int, default=None)
    ap.add_argument("--span", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.set_defaults(func=cmd_apply)

    sg = subs.add_parser(
        "singularity", help="invariant vs heat cylinder masses down a tower"
    )
    _add_common(sg)
    sg.add_argument("--alpha", type=float, default=1.0)
    sg.add_argument("--t", type=float, default=1.0)
    sg.add_argument("--N", type=int, default=1)
    sg.add_argument("--horizon", type=int, default=None)
    sg.set_defaults(func=cmd_singularity)

    lv = subs.add_parser("levy", help="jump-measure shells and integrals")
    _add_common(lv)
    lv.add_argument("--alpha", type=float, default=1.0)
    lv.add_argument("--level", type=int, default=None)
    lv.add_argument("--cutoff", type=int, default=None)
    lv.add_argument("--function", default=None, help="JSON function file")
    lv.add_argument("--integrate", action="store_true",
                    help="integrate a seeded random function "
                         "(zeroed on the zero coset)")
    lv.add_argument("--lo", type=int, default=None)
    lv.add_argument("--span", type=int, default=3)
    lv.add_argument("--seed", type=int, default=0)
    lv.add_argument("--tolerance", type=float, default=1e-9)
    lv.set_defaults(func=cmd_levy)

    ht = subs.add_parser("heat", help="heat masses and their distribution over the shells")
    _add_common(ht)
    ht.add_argument("--alpha", type=float, default=1.0)
    ht.add_argument("--level", type=int, default=None)
    ht.add_argument("--t", type=float, default=1.0)
    ht.add_argument("--N", type=int, default=1)
    ht.add_argument("--span", type=int, default=3)
    ht.add_argument("--tolerance", type=float, default=1e-12)
    ht.set_defaults(func=cmd_heat)

    sm = subs.add_parser("simulate", help="seeded jump-process Monte Carlo")
    _add_common(sm)
    sm.add_argument("--alpha", type=float, default=1.0)
    sm.add_argument("--level", type=int, default=None)
    sm.add_argument("--t", type=float, default=1.0)
    sm.add_argument("--lam-valuation", type=int, default=-1)
    sm.add_argument("--paths", type=int, default=10_000)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--z-max", type=float, default=4.0)
    sm.set_defaults(func=cmd_simulate)

    va = subs.add_parser("verify-all", help="run the self-verification suite")
    _add_common(va, tower=False)
    va.add_argument("--only", default=None,
                    help="comma-separated subset of check names")
    va.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 < getattr(args, "alpha", 1.0) < math.inf:
            raise CommandError("--alpha must be positive and finite")
        # every comparison with nan is false, so a nan gate would pass anything
        if not 0.0 <= getattr(args, "tolerance", 0.0) < math.inf:
            raise CommandError("--tolerance must be finite and nonnegative")
        if not 0.0 < getattr(args, "z_max", 1.0) < math.inf:
            raise CommandError("--z-max must be positive and finite")
        config, columns, rows, failures = args.func(args)
        # rendering can fail too: an int past the int-to-str digit limit
        _emit(args, config, columns, rows)
    except (CommandError, ValueError, OSError) as exc:
        _fail(args.command, str(exc))
        return 2
    # a float that rounds to 0 as a divisor is out of range too
    except (OverflowError, ZeroDivisionError) as exc:
        _fail(args.command, f"a number is out of floating-point range: {exc}")
        return 2
    if failures:
        for reason in failures:
            _fail(args.command, reason)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
