"""One benchmark child: import the package, set up a workload, run it.

Started by ``run.py`` in a fresh interpreter with a pinned environment and
an address-space limit.  With ``--phase setup`` it stops after set-up; with
``--phase run`` it also runs the timed loop.  Its last line of standard
output is one JSON object for the parent; diagnostics go to standard error.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import padicfrac.cli

    import_s = time.perf_counter() - t0
    where = Path(padicfrac.cli.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        print(f"padicfrac imported from {where}, not from this checkout", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.add_span("cli.import_s", "cli", import_s)
        recorder.install()
    import numpy
    import scipy
    import workloads

    kind = workloads.WORKLOADS[args.workload]
    state = kind(args.seed, recorder)
    out = {"setup_end": time.monotonic(), "import_s": import_s}
    # set-up is gauged right after it ends, outside the set-up time
    speed = workloads.Speedometer()
    reading = statistics.median(speed.read() for _ in range(5))
    out["setup_scale"] = speed.REF_S / reading
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.phase == "run":
        counts = {"ops": 0, "failed": 0}
        extra = {}
        top0 = recorder.top_s if recorder else 0.0
        with speed:
            cycles = state.run(args.seconds, counts, extra)
        cycle_s = [sum(t1 - t0 for t0, t1 in c) for c in cycles]
        scaled_s = [sum(speed.scaled(t0, t1) for t0, t1 in c) for c in cycles]
        timed_s = sum(cycle_s)
        out.update(
            cycle_s=cycle_s,
            scaled_s=scaled_s,
            cycle_ops=counts["ops"] // len(cycle_s),
            ops=counts["ops"] + state.warm["ops"],
            failed=counts["failed"] + state.warm["failed"],
            **extra,
        )
        if recorder is not None:
            metrics = recorder.metrics()
            metrics["trace.coverage"] = (recorder.top_s - top0) / timed_s
            metrics["trace.ops_per_s"] = out["cycle_ops"] / statistics.median(scaled_s)
            out["trace"] = recorder.summary()
            out["trace"]["metrics"] = metrics
            out["trace"]["missing_layers"] = [
                layer for layer in kind.LAYERS if not recorder.layer_spans.get(layer)
            ]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
