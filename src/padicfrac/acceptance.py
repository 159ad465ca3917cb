"""End-to-end verification suite for the whole package.

Nine independent checks, each pinning a headline property of the operator,
its measures, or the simulator against an exact or closed-form oracle at
desk scale.  Every check returns a :class:`CheckResult` with a one-line
detail string and its elapsed time, and also enforces a runtime budget so
regressions in the cached-table machinery surface here.  ``ALL_CHECKS``
lists them in order; the command line front end and the test suite both
call into this module.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .funcspace import (
    BallQuotient,
    fourier,
    inverse_fourier,
    plancherel_defect,
    random_function,
)
from .measures import (
    heat_cylinder_mass,
    heat_density,
    levy_integral,
    levy_log_characteristic,
    mu_ball_mass,
    singularity_report,
)
from .padic import ExtElement, base_level, project_T
from .process import (
    build_jump_law,
    expected_characteristic,
    mc_characteristic,
    poisson_gof_pvalue,
    sample_counts,
)
from .tower import (
    build_factorial_tower,
    build_qp_tower,
    build_unramified_tower,
    resolve_tower,
    spectrum,
)
from .vladimirov import apply_hypersingular, apply_spectral, eigenvalue_estimates

__all__ = ["CheckResult", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


def _finish(name, t0, budget, ok, detail):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ok = False
        detail += f"; OVER BUDGET {elapsed:.1f}s > {budget}s"
    return CheckResult(name=name, passed=bool(ok), detail=detail, elapsed=elapsed)


def _base_levels():
    q2 = base_level(2)
    return q2, q2.extend_unramified(2), q2.extend_eisenstein([-2, 0])


def check_route_agreement():
    """Hypersingular-kernel and spectral-multiplier routes coincide on
    random locally constant functions over four qualitatively different
    levels (base, unramified, ramified, composite unramified)."""
    t0 = time.perf_counter()
    q2, u, e = _base_levels()
    sextic = u.extend_unramified(3)
    cases = [
        BallQuotient(q2, -4, 6),   # 2**10 cosets
        BallQuotient(u, -1, 4),    # 4**5 cosets
        BallQuotient(e, -5, 5),    # 2**10 cosets
        BallQuotient(sextic, 1, 2),  # 64 cosets
    ]
    alphas = (0.5, 1.0, 2.0)
    tol = 1e-9
    worst = 0.0
    rng = np.random.default_rng(1001)
    for bq in cases:
        assert bq.size <= 1024
        for k in range(100):
            f = random_function(bq, rng)
            alpha = alphas[k % len(alphas)]
            dev = np.abs(
                apply_hypersingular(bq, f, alpha) - apply_spectral(bq, f, alpha)
            ).max()
            worst = max(worst, float(dev))
    ok = worst <= tol
    detail = (
        f"max route deviation {worst:.2e} <= {tol:.0e} "
        f"(4 levels x 100 functions, groups up to 1024 cosets)"
    )
    return _finish("route_agreement", t0, 60.0, ok, detail)


def check_character_eigenrelation():
    """Measured kernel-form eigenvalues on additive characters match the
    norm power |a|**alpha for every label with 1 < |a| <= 16."""
    t0 = time.perf_counter()
    q2, u, e = _base_levels()
    cases = [
        BallQuotient(q2, 0, 4),   # labels of norm 2..16
        BallQuotient(u, 1, 5),    # labels of norm 2..16
        BallQuotient(e, -1, 7),   # labels of norm sqrt(2)..16
    ]
    tol = 1e-10
    worst, checked = 0.0, 0
    for bq in cases:
        lvl = bq.level
        vals = bq.dual().val_pi_vector
        for alpha in (0.5, 1.0, 2.0):
            measured = eigenvalue_estimates(bq, alpha)
            for b, w in enumerate(vals):
                norm = float(lvl.p) ** (-w / lvl.e)
                if not 1.0 < norm <= 16.0:
                    continue
                target = norm**alpha
                rel = abs(measured[b] - target) / target
                worst = max(worst, float(rel))
                checked += 1
    ok = checked > 0 and worst <= tol
    detail = f"max relative eigenvalue error {worst:.2e} <= {tol:.0e} ({checked} labels)"
    return _finish("character_eigenrelation", t0, 30.0, ok, detail)


def check_spectrum_catalog():
    """The exact spectrum: powers of the base residue size on the
    unramified factorial-degree tower, a fourth root of 2 on the wildly
    ramified tower, and horizon-monotone multiplicities."""
    t0 = time.perf_counter()
    unram = build_unramified_tower(2, [1, 2, 6])
    eigs = {entry.eigenvalue for entry in spectrum(unram, 1.0, exponent_cap=4)}
    set_ok = eigs == {0.0, 2.0, 4.0, 8.0, 16.0}

    wild = resolve_tower("cyclotomic:p=2,depth=4")
    wild_entries = spectrum(wild, 1.0, exponent_cap=1)
    quarter = [en for en in wild_entries if en.exponent == Fraction(1, 4)]
    root_ok = (
        len(quarter) == 1
        and abs(quarter[0].eigenvalue - 2.0 ** 0.25) < 1e-15
    )

    mults = []
    for horizon in (1, 2, 3):
        entries = spectrum(unram, 1.0, exponent_cap=1, horizon=horizon)
        (two,) = [en for en in entries if en.exponent == 1]
        mults.append(two.multiplicity)
    mult_ok = mults == [1, 3, 63] and all(a < b for a, b in zip(mults, mults[1:]))

    ok = set_ok and root_ok and mult_ok
    detail = (
        f"eigenvalues {sorted(eigs)}, 2**(1/4) present: {root_ok}, "
        f"multiplicity of 2 per horizon {mults}"
    )
    return _finish("spectrum_catalog", t0, 10.0, ok, detail)


def check_cylinder_singularity():
    """Heat mass of the shrinking cylinders stays bounded below while their
    invariant measure collapses factorially, so the two measures separate."""
    t0 = time.perf_counter()
    tower = build_unramified_tower(2, [1, 2, 6, 24])
    rows = singularity_report(tower, alpha=1.0, t=1.0, N=1)
    floor = 0.5 * math.exp(-2.0)
    mu_ok = all(
        row["mu"] == Fraction(1, 2 ** math.factorial(n))
        for n, row in enumerate(rows, start=1)
    )
    heat_ok = all(row["heat"] >= floor for row in rows)
    logs = [row["log10_ratio"] for row in rows]
    log_ok = all(a < b for a, b in zip(logs, logs[1:])) and logs[-1] > 6.0
    ok = mu_ok and heat_ok and log_ok and rows[-1]["mu"] == Fraction(1, 2**24)
    detail = (
        f"mu exact 2**-n!, heat >= {floor:.5f}, "
        f"log10(heat/mu) {[round(x, 3) for x in logs]} increasing"
    )
    return _finish("cylinder_singularity", t0, 10.0, ok, detail)


def check_heat_ball_mass():
    """Closed form for the time-1 heat mass of the first cylinder on the
    base field, cross-checked against the density oracle summed over the
    shells w = 1..79 inside it (the rest weigh below 2^-79)."""
    t0 = time.perf_counter()
    q2 = base_level(2)
    closed = heat_cylinder_mass(q2, 1.0, 1.0, 1)
    target = 0.5 * (1.0 + math.exp(-2.0))
    q = float(q2.q)
    shells = math.fsum(
        heat_density(q2, 1.0, 1.0, w) * (1.0 - 1.0 / q) * q ** (-w) for w in range(1, 80)
    )
    closed_ok = abs(closed - target) <= 1e-12
    shells_ok = abs(shells - closed) <= 1e-10
    ok = closed_ok and shells_ok
    detail = (
        f"|closed - (1+e**-2)/2| = {abs(closed - target):.2e} <= 1e-12, "
        f"|shells - closed| = {abs(shells - closed):.2e} <= 1e-10"
    )
    return _finish("heat_ball_mass", t0, 5.0, ok, detail)


def check_log_characteristic():
    """Shell-sum log-characteristic of the jump measure equals -t|a|**alpha
    outside the unit ball and vanishes identically inside it."""
    t0 = time.perf_counter()
    q2 = base_level(2)
    u = q2.extend_unramified(2)
    tol = 1e-9
    worst = 0.0
    for lvl in (q2, u):
        for L in (1, 2, 3):
            for t_val in (0.5, 1.0, 2.0):
                for alpha in (1.0, 2.0):
                    got = levy_log_characteristic(lvl, alpha, -L, t_val)
                    want = -t_val * (2.0**L) ** alpha
                    worst = max(worst, abs(got - want))
    zeros_ok = all(
        levy_log_characteristic(lvl, alpha, v, 1.0) == 0.0
        for lvl in (q2, u)
        for alpha in (1.0, 2.0)
        for v in (0, 1, 3)
    )
    ok = worst <= tol and zeros_ok
    detail = (
        f"max |shell sum + t|a|**alpha| = {worst:.2e} <= {tol:.0e} "
        f"(36 cases), exact zero inside the unit ball: {zeros_ok}"
    )
    return _finish("log_characteristic", t0, 10.0, ok, detail)


def check_kernel_jump_consistency():
    """The operator evaluated as an explicit group-law sum of increments
    against the per-coset jump masses agrees pointwise with the kernel
    route's radial cascade of ball averages on random cylindrical
    functions."""
    t0 = time.perf_counter()
    q2, u, e = _base_levels()
    cases = [
        BallQuotient(q2, -2, 3),
        BallQuotient(u, 0, 3),
        BallQuotient(e, -1, 4),
    ]
    alphas = (0.5, 1.0, 2.0)
    tol = 1e-9
    worst = 0.0
    rng = np.random.default_rng(7001)
    for bq in cases:
        # add[i, j] = index of rep_i + rep_j, by carrying digit sums
        dT = bq.digit_matrix.T
        add = bq.index_of_digits((dT[:, :, None] + dT[:, None, :]).reshape(bq.D, -1))
        add = add.reshape(bq.size, bq.size)
        for k in range(20):
            f = random_function(bq, rng)
            alpha = alphas[k % len(alphas)]
            kernel_route = apply_hypersingular(bq, f, alpha)
            points = rng.choice(bq.size, size=20, replace=False)
            for idx in points:
                increments = f[add[idx]] - f[idx]
                jump_route = -levy_integral(bq, alpha, increments)
                worst = max(worst, abs(kernel_route[idx] - jump_route))
    ok = worst <= tol
    detail = (
        f"max |kernel - jump| = {worst:.2e} <= {tol:.0e} "
        f"(3 levels x 20 functions x 20 points)"
    )
    return _finish("kernel_jump_consistency", t0, 30.0, ok, detail)


def check_monte_carlo():
    """Seeded compound-Poisson simulation reproduces the characteristic
    function within three standard errors, and the jump counts pass a
    Poisson chi-square test at the 1% level.  The Poisson test reads only
    the counts, so it draws them alone (``sample_counts``): no jump, no
    endpoint."""
    t0 = time.perf_counter()
    q2 = base_level(2)
    n_paths, seed = 100_000, 2718
    cases = [(1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0)]
    ok = True
    zs, pvals = [], []
    for alpha, v, t_val in cases:
        target = expected_characteristic(q2, alpha, v, t_val)
        est, stderr = mc_characteristic(q2, alpha, v, t_val, n_paths, seed)
        z = abs(est.real - target) / stderr
        zs.append(z)
        ok = ok and z <= 3.0 and abs(est.imag) <= 3.0 * stderr

        law = build_jump_law(q2, alpha, delta=Fraction(1, 2 ** (-v)))
        counts = sample_counts(law, t_val, n_paths, seed)
        pval = poisson_gof_pvalue(counts, law.rate * t_val)
        pvals.append(pval)
        ok = ok and pval > 0.01
    detail = (
        f"z-scores {[round(z, 2) for z in zs]} <= 3, "
        f"Poisson GOF p-values {[round(p, 3) for p in pvals]} > 0.01 "
        f"({n_paths} paths, seed {seed})"
    )
    return _finish("monte_carlo", t0, 120.0, ok, detail)


def check_exact_structure():
    """Exact bookkeeping: unit ball mass, Plancherel, Fourier inversion,
    projection tower compatibility, and ramification accounting."""
    t0 = time.perf_counter()
    q2, u, e = _base_levels()
    wild = resolve_tower("factorial:p=2,depth=4").level(4)
    levels = [q2, u, e, wild]

    mass_ok = all(mu_ball_mass(lvl, lvl.s0) == 1 for lvl in levels)
    mass_ok = mass_ok and all(
        BallQuotient(lvl, lvl.s0, lvl.s0 + 2).mu_total_mass == 1 for lvl in levels
    )

    rng = np.random.default_rng(31)
    fourier_worst = 0.0
    for lvl in (q2, u, e):
        bq = BallQuotient(lvl, lvl.s0 - 1, lvl.s0 + 2)
        f = random_function(bq, rng)
        fourier_worst = max(
            fourier_worst,
            float(np.abs(inverse_fourier(bq, fourier(bq, f)) - f).max()),
            float(plancherel_defect(bq, f)),
        )
    fourier_ok = fourier_worst <= 1e-12

    sextic = u.extend_unramified(3)
    pyrng = random.Random(17)

    def rand_element(lvl):
        def pay(node):
            if node.depth == 0:
                return Fraction(pyrng.randint(-9, 9), 1 + pyrng.randint(0, 3))
            return tuple(pay(node.parent) for _ in range(node.steps[-1].degree))

        return ExtElement(lvl, pay(lvl))

    factorial = build_factorial_tower(2, 4)
    chains = [(sextic, u, q2), (factorial.level(4), factorial.level(3), q2)]
    proj_ok = True
    for top, mid, bottom in chains:
        for _ in range(5):
            z = rand_element(top)
            direct = project_T(z, bottom)
            via = project_T(project_T(z, mid), bottom)
            proj_ok = proj_ok and (direct - via).is_zero()

    towers = [
        build_qp_tower(2, 3),
        build_unramified_tower(2, [1, 2, 6, 24]),
        factorial,
        build_factorial_tower(3, 3),
    ]
    chain_ok = True
    for tower in towers:
        for a, b in zip(tower.levels, tower.levels[1:]):
            ratio = b.e // a.e
            rel_d = b.d - ratio * a.d
            chain_ok = (
                chain_ok
                and b.e == ratio * a.e
                and b.m % a.m == 0
                and isinstance(rel_d, int)
                and rel_d >= 0
                and (rel_d == 0 or b.e > a.e)
            )

    ok = mass_ok and fourier_ok and proj_ok and chain_ok
    detail = (
        f"ball mass exact: {mass_ok}, fourier/plancherel defect "
        f"{fourier_worst:.2e} <= 1e-12, projection towers exact: {proj_ok}, "
        f"ramification ledger exact: {chain_ok}"
    )
    return _finish("exact_structure", t0, 30.0, ok, detail)


ALL_CHECKS = (
    check_route_agreement,
    check_character_eigenrelation,
    check_spectrum_catalog,
    check_cylinder_singularity,
    check_heat_ball_mass,
    check_log_characteristic,
    check_kernel_jump_consistency,
    check_monte_carlo,
    check_exact_structure,
)
