"""The three benchmark workloads, run inside one child interpreter.

Each workload has a set-up, which the benchmark charges to ``setup_s``, and
a closed loop of operations with a single caller.  Every operation checks
its own result; one that misses its check, or raises, is a failed op.
Library functions are looked up on their modules at call time, so the
traced run sees the wrappers the span recorder installs.

* ``verify`` runs the nine ``acceptance.ALL_CHECKS`` in order, as
  ``padicfrac verify-all`` does, in a fresh interpreter; one op is one
  check, and a check passes when its own ``passed`` is true.  The checks
  keep their built-in seeds.
* ``operator`` cycles seeded random functions (zero at the origin) over
  fixed quotients at alpha in {0.5, 1, 2}; one op runs the six operator and
  measure routes on one function and checks that they agree.
* ``monte_carlo`` cycles ``mc_characteristic`` over 16 fixed cases with the
  same number of paths each; one op is one case, checked against
  ``expected_characteristic``.
"""

import math
import statistics
import threading
import time
import traceback
from fractions import Fraction

import numpy as np

from padicfrac import acceptance, funcspace, measures, padic, process, vladimirov

ALPHAS = (0.5, 1.0, 2.0)
HEAT_T = 1.0
ROUTE_TOL = 1e-9
MC_PATHS = 10_000
MC_Z_MAX = 5.0
MC_CASES = ((1.0, -1, 1.0), (1.0, -2, 0.5), (2.0, -1, 1.0), (0.5, -3, 1.0))
MC_WARM_PATHS = 500


def _levels():
    q2 = padic.base_level(2)
    q3 = padic.base_level(3)
    return {
        "Q_2": q2,
        "Q_2-u2": q2.extend_unramified(2),
        "Q_2-e2": q2.extend_eisenstein([-2, 0]),
        "Q_3": q3,
        "Q_3-e2": q3.extend_eisenstein([-3, 0]),
    }


def _guarded(op, *args):
    """Run one op; an exception is a failed op, reported on stderr."""
    try:
        return bool(op(*args))
    except Exception:  # noqa: BLE001 -- the loop must go on and count it
        traceback.print_exc()
        return False


class Speedometer:
    """Gauges how fast the machine runs while the ops run.

    On a shared virtual machine (2 vCPUs of a 2.1 GHz Xeon) the same work
    took up to a third longer in one minute than in the next, whatever the
    program did.  While the timed loop runs, a thread runs a fixed reference
    kernel every ``PERIOD_S`` and records its CPU seconds; an op interval's
    scaled time is its wall time times ``REF_S`` over the median reading
    taken within ``PERIOD_S`` of the interval, which cancels most of that
    drift.  The kernel mixes the three kinds of work the workloads do: exact
    rational arithmetic, a memory-streaming matrix-vector product and a
    Python loop over numpy scalar lookups.
    """

    REF_S = 0.01  # nominal kernel seconds; scaled times are seconds at this speed
    PERIOD_S = 0.5

    def __init__(self):
        self.matrix = np.linspace(-1.0, 1.0, 1024 * 1024).reshape(1024, 1024)
        self.vector = np.ones(1024)
        self.table = np.arange(64 * 64).reshape(64, 64) * 37 % 64
        self.readings = []  # (perf_counter at the reading, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self.read()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.read()

    def _loop(self):
        while not self._stop.wait(self.PERIOD_S):
            self.read()

    def read(self):
        """Run the kernel once; returns and records its CPU seconds."""
        c0 = time.thread_time()
        a = Fraction(1, 3)
        for i in range(1, 800):
            a = Fraction(a.numerator % 1009 + i, a.denominator % 1013 + 7) * Fraction(3, 5)
        for _ in range(10):
            self.matrix @ self.vector
        state = 0
        for j in range(12000):
            state = self.table[state % 64, j % 64]
        cpu_s = time.thread_time() - c0
        self.readings.append((time.perf_counter(), cpu_s))
        return cpu_s

    def scaled(self, t0, t1):
        """Scaled seconds of the interval [t0, t1]; call after the exit."""
        near = [r for t, r in self.readings if t0 - self.PERIOD_S <= t <= t1 + self.PERIOD_S]
        if not near:
            near = [min(self.readings, key=lambda tr: abs(tr[0] - t1))[1]]
        return (t1 - t0) * self.REF_S / statistics.median(near)


def _run_ops(ops, counts):
    for op, args in ops:
        counts["ops"] += 1
        counts["failed"] += not _guarded(op, *args)


def _cycles(cycle, seconds, counts):
    """Run whole cycles of ops, ``cycle(k)`` giving the (op, args) pairs of
    cycle k, until ``seconds`` of cycles have passed; returns each cycle as
    a one-interval list [(start, end)].  Every cycle holds the same ops, so
    the median cycle time is a throughput that stray slow moments barely
    move."""
    cycles = []
    elapsed = 0.0
    k = 0
    while elapsed < seconds:
        t0 = time.perf_counter()
        _run_ops(cycle(k), counts)
        t1 = time.perf_counter()
        cycles.append([(t0, t1)])
        elapsed += t1 - t0
        k += 1
    return cycles


# -- verify --------------------------------------------------------------


class Verify:
    """No set-up beyond the import: every table is built inside a check."""

    # layers the traced run must see spans from
    LAYERS = ("acceptance", "cli", "funcspace", "measures", "padic", "process", "tower", "vladimirov")

    def __init__(self, seed, recorder):
        self.warm = {"ops": 0, "failed": 0}
        self.checks = []
        for check in acceptance.ALL_CHECKS:
            name = check.__name__.removeprefix("check_")
            if recorder is not None:
                check = recorder.wrap(f"acceptance.{name}", "acceptance", check)
            self.checks.append((name, check))

    def run(self, seconds, counts, extra):
        """One cold pass over the checks, which is the workload's one cycle,
        as one interval per check; each check is timed from outside."""
        check_s = extra.setdefault("check_s", {})
        intervals = []
        for name, check in self.checks:
            t0 = time.perf_counter()
            ok = _guarded(lambda: check().passed)
            intervals.append((t0, time.perf_counter()))
            check_s[name] = intervals[-1][1] - t0
            counts["ops"] += 1
            counts["failed"] += not ok
        return [intervals]


# -- operator --------------------------------------------------------------

# (level, lo, s): |G| = 64, 256, 1024 on Q_2 and Q_2-u2; 64, 256 on the
# Eisenstein level x^2 - 2, whose cold subtraction table grows like 3^D and
# would take ~30 s at 1024; 81, 729 on Q_3; 81 on x^2 - 3.  Every quotient
# has lo <= s0 <= s, the operator's domain.
OPERATOR_QUOTIENTS = (
    ("Q_2", -3, 3), ("Q_2", -4, 4), ("Q_2", -5, 5),
    ("Q_2-u2", -1, 2), ("Q_2-u2", -1, 3), ("Q_2-u2", -1, 4),
    ("Q_2-e2", -4, 2), ("Q_2-e2", -5, 3),
    ("Q_3", -2, 2), ("Q_3", -3, 3),
    ("Q_3-e2", -3, 1),
)


def operator_op(bq, f, alpha):
    hyp = vladimirov.apply_hypersingular(bq, f, alpha)
    spec = vladimirov.apply_spectral(bq, f, alpha)
    heat = vladimirov.semigroup_apply(bq, f, alpha, HEAT_T)
    jump = measures.levy_integral(bq, alpha, f)
    jump_spec = measures.levy_integral_spectral(bq, alpha, f)
    mass = measures.heat_coset_vector(bq, alpha, HEAT_T)
    return (
        np.abs(hyp - spec).max() <= ROUTE_TOL
        and abs(jump - jump_spec) <= ROUTE_TOL
        and abs(heat.sum() - f.sum()) <= ROUTE_TOL
        and abs(mass.sum() - 1.0) <= ROUTE_TOL
    )


class Operator:
    """Set-up draws one seeded function per (quotient, alpha) and builds
    the quotients' tables by running each of those ops once, so the timed
    loop only reads cached tables."""

    LAYERS = ("cli", "funcspace", "measures", "vladimirov")

    def __init__(self, seed, recorder):
        levels = _levels()
        rng = np.random.default_rng(seed)
        self.ops = []
        for name, lo, s in OPERATOR_QUOTIENTS:
            bq = funcspace.BallQuotient(levels[name], lo, s)
            for alpha in ALPHAS:
                f = funcspace.random_function(bq, rng)
                f[0] = 0.0
                self.ops.append((operator_op, (bq, f, alpha)))
        self.warm = {"ops": 0, "failed": 0}
        _run_ops(self.ops, self.warm)

    def run(self, seconds, counts, extra):
        return _cycles(lambda k: self.ops, seconds, counts)


# -- monte_carlo -------------------------------------------------------------


def mc_op(level, alpha, v, t, n_paths, seed, stream):
    est, stderr = process.mc_characteristic(level, alpha, v, t, n_paths, seed, stream)
    target = process.expected_characteristic(level, alpha, v, t)
    return (
        stderr > 0.0
        and math.isfinite(est.real)
        and abs(est.real - target) <= MC_Z_MAX * stderr
        and abs(est.imag) <= MC_Z_MAX * stderr
    )


class MonteCarlo:
    """Set-up runs every case once on a few paths, which builds its jump
    law's tables; op k of the timed loop draws its paths from Philox stream
    k + 1 of the workload seed, so no two ops share a sample."""

    LEVELS = ("Q_2", "Q_2-u2", "Q_2-e2", "Q_3")
    LAYERS = ("cli", "process")

    def __init__(self, seed, recorder):
        levels = _levels()
        self.seed = seed
        self.cases = [
            (levels[name], alpha, v, t)
            for name in self.LEVELS
            for alpha, v, t in MC_CASES
        ]
        self.warm = {"ops": 0, "failed": 0}
        _run_ops([(mc_op, c + (MC_WARM_PATHS, seed, 0)) for c in self.cases], self.warm)

    def run(self, seconds, counts, extra):
        n = len(self.cases)
        extra["paths_per_op"] = MC_PATHS
        return _cycles(
            lambda k: [
                (mc_op, c + (MC_PATHS, self.seed, 1 + k * n + i)) for i, c in enumerate(self.cases)
            ],
            seconds,
            counts,
        )


WORKLOADS = {"verify": Verify, "operator": Operator, "monte_carlo": MonteCarlo}
