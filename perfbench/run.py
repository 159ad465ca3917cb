"""Benchmark of the padicfrac package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Three closed-loop workloads, each with a
single caller in a single process (see ``workloads.py`` for what an op is):

* ``verify``      -- the nine verify-all checks, cold; the headline path.
* ``operator``    -- warm operator routes over fixed quotients.
* ``monte_carlo`` -- the compound-Poisson sampler over 16 fixed cases.

Every child interpreter gets the checkout's ``src`` as its only
``PYTHONPATH`` entry, one BLAS/OpenMP thread, a fixed hash seed and an
address-space limit (``RLIMIT_AS``, set on the child only), so a table that
grows too large fails its op with ``MemoryError`` instead of exhausting the
machine.  A run first starts ``SETUP_SAMPLES - 1`` children that only set
up, then children that set up and run the timed loop until ``--seconds``
of timed work are done (one for ``operator`` and ``monte_carlo``; whole
cold passes for ``verify``).

End-to-end metrics (``--trace 0``), each the same for every workload:

* ``ops_per_s``    -- ops per cycle over the median scaled cycle time.  A
  cycle is the fixed sequence of ops a workload repeats: one cold pass of
  the nine checks on ``verify``, the 33 (quotient, alpha) applies on
  ``operator``, the 16 cases on ``monte_carlo``.  A scaled time is the
  wall time times the nominal over the measured time of a fixed reference
  kernel run beside it (``workloads.Speedometer``), so the figure follows
  the program and not the moment's speed of a shared machine.
* ``peak_rss_mib`` -- peak RSS of the largest child, from RUSAGE_CHILDREN.
* ``setup_s``      -- median over the children of the time from starting
  the interpreter to the first timed op (imports, plus the table builds of
  ``operator``), scaled by the reference kernel's time measured right
  after set-up.

Lines above the result also print the workload's own figures in plain
wall-clock terms (median cycle, not scaled): ``verify_s`` and
``check_s.<check>`` for ``verify``, ``operator_apply_per_s``,
``mc_paths_per_s``, and the counts ``ops`` and ``ops_failed``, which are
also the result's ``attempted`` and ``failed``.  With ``--trace 1`` one
traced child reports the per-layer metrics named in ``BENCHMARK.json``
(see ``spans.py``) and fails when a layer its workload must exercise
recorded no span.  Each run writes its details, with the environment, to
``perfbench/out/``.  The last line of standard output is the result object.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MEMORY_LIMIT = 1536 << 20
THREADS = 1
SETUP_SAMPLES = 3
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# the workloads' own figures, printed above the result
FIGURE_UNITS = {
    "ops": "count",
    "ops_failed": "count",
    "verify_s": "s",
    "check_s": "s",
    "operator_apply_per_s": "1/s",
    "mc_paths_per_s": "paths/s",
}


class ChildFailed(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def _confine():
    # runs in the child before exec: cap its address space and keep it, and
    # the speedometer thread that gauges it, on one CPU
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _spawn(args, phase, deadline):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), preexec_fn=_confine,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{phase} child exceeded the run budget") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} child exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = (res["setup_end"] - t0) * res["setup_scale"]
    return res


def measure(args, spec):
    """Run the children; returns (attempted, failed, metrics, details)."""
    deadline = time.monotonic() + BUDGET_S
    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    runs = []
    timed_s = 0.0
    while not runs or (not args.trace and timed_s < args.seconds):
        if runs and time.monotonic() + 2 * sum(runs[-1]["cycle_s"]) > deadline:
            break
        runs.append(_spawn(args, "run", deadline))
        timed_s += sum(runs[-1]["cycle_s"])
    setups = [r["setup_s"] for r in setups + runs]
    cycle_s = statistics.median(t for r in runs for t in r["cycle_s"])
    scaled_s = statistics.median(t for r in runs for t in r["scaled_s"])
    ops_per_s = runs[0]["cycle_ops"] / scaled_s
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    details = {
        "ops": attempted,
        "ops_failed": failed,
        "runs": len(runs),
        "timed_s": timed_s,
        "cycle_s": [t for r in runs for t in r["cycle_s"]],
        "scaled_s": [t for r in runs for t in r["scaled_s"]],
        "setup_samples_s": setups,
        "import_s": [r["import_s"] for r in runs],
        "env": dict(
            runs[0]["env"],
            nproc=os.cpu_count(),
            threads=THREADS,
            rlimit_as_mib=MEMORY_LIMIT >> 20,
        ),
    }
    if args.workload == "verify":
        details["verify_s"] = cycle_s
        for name in runs[0]["check_s"]:
            details[f"check_s.{name}"] = statistics.median(r["check_s"][name] for r in runs)
    elif args.workload == "operator":
        details["operator_apply_per_s"] = runs[0]["cycle_ops"] / cycle_s
    elif args.workload == "monte_carlo":
        details["mc_paths_per_s"] = runs[0]["cycle_ops"] * runs[0]["paths_per_op"] / cycle_s

    if args.trace:
        trace = runs[0]["trace"]
        values = trace.pop("metrics")
        declared = spec["per_layer"]
        # a layer metric with no span behind it (a check or function this
        # workload never reached, or one the package no longer has) reads 0
        trace["unreported"] = [m["name"] for m in declared if m["name"] not in values]
        values = {m["name"]: values.get(m["name"], 0) for m in declared}
        details["trace"] = trace
    else:
        values = {
            "ops_per_s": ops_per_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return attempted, failed, metrics, details


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "padicfrac" / "__init__.py").is_file():
        print(f"no padicfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        attempted, failed, metrics, details = measure(args, spec)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    missing = details.get("trace", {}).get("missing_layers", [])
    correct = failed == 0 and not missing

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "correct": correct, "metrics": metrics, **details}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + " ".join(f"{k}={v}" for k, v in sorted(details["env"].items())))
    for key in sorted(details):
        unit = FIGURE_UNITS.get(key.split(".")[0])
        if unit:
            print(f"{key} {details[key]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if missing:
        print(f"no spans recorded for layers {missing}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
