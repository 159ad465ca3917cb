"""One test per end-to-end verification check.

Each test runs a single check from padicfrac.acceptance, prints its
one-line PASS/FAIL summary (visible with -s or in the captured output),
and fails with that same line if the check does not hold.
"""

from collections import Counter

import numpy as np
import pytest

from padicfrac import acceptance
from padicfrac.funcspace import random_function
from padicfrac.measures import levy_integral
from padicfrac.vladimirov import apply_hypersingular, apply_spectral


@pytest.mark.parametrize(
    "check",
    acceptance.ALL_CHECKS,
    ids=[c.__name__.removeprefix("check_") for c in acceptance.ALL_CHECKS],
)
def test_acceptance(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def test_check_names_are_unique():
    names = [c.__name__ for c in acceptance.ALL_CHECKS]
    assert len(names) == len(set(names)) == 9


def _recording(monkeypatch, name, calls):
    """Rebind acceptance.<name> to record (quotient, alpha, row bytes) for
    every row it is given."""
    route = getattr(acceptance, name)

    def recorded(bq, *args):
        alpha, values = args if name.startswith("levy") else args[::-1]
        rows = np.asarray(values).reshape(-1, bq.size)
        calls.extend((bq.key(), alpha, row.tobytes()) for row in rows)
        return route(bq, *args)

    monkeypatch.setattr(acceptance, name, recorded)


def test_batched_route_checks_match_their_oracle_loops(monkeypatch):
    # the oracles: one route call per function and one jump integral per
    # point, on the checks' quotients, seeds, alphas and draw order.  Each
    # check must hand every function (every increment row) to its routes
    # at its alpha, and report the worst deviation of the oracle loop, so
    # no stack drops a function, a point or an alpha
    alphas = (0.5, 1.0, 2.0)
    worst, want = 0.0, []
    rng = np.random.default_rng(1001)
    for bq in acceptance._route_agreement_cases():
        for k in range(100):
            f = random_function(bq, rng)
            alpha = alphas[k % 3]
            dev = np.abs(apply_hypersingular(bq, f, alpha) - apply_spectral(bq, f, alpha)).max()
            worst = max(worst, float(dev))
            want.append((bq.key(), alpha, f.tobytes()))
    hyp, spec = [], []
    _recording(monkeypatch, "apply_hypersingular", hyp)
    _recording(monkeypatch, "apply_spectral", spec)
    detail = acceptance.check_route_agreement().detail
    assert detail.startswith(f"max route deviation {worst:.2e} <= "), detail
    assert Counter(hyp) == Counter(spec) == Counter(want)

    worst, want = 0.0, []
    rng = np.random.default_rng(7001)
    for bq in acceptance._kernel_jump_cases():
        dig = bq.digit_matrix
        for k in range(20):
            f = random_function(bq, rng)
            alpha = alphas[k % 3]
            kernel_route = apply_hypersingular(bq, f, alpha)
            for idx in rng.choice(bq.size, size=20, replace=False):
                increments = f[bq.index_of_digits((dig[idx] + dig).T)] - f[idx]
                jump_route = -levy_integral(bq, alpha, increments)
                worst = max(worst, abs(kernel_route[idx] - jump_route))
                want.append((bq.key(), alpha, increments.tobytes()))
    jumps = []
    _recording(monkeypatch, "levy_integral", jumps)
    detail = acceptance.check_kernel_jump_consistency().detail
    assert detail.startswith(f"max |kernel - jump| = {worst:.2e} <= "), detail
    assert Counter(jumps) == Counter(want)
