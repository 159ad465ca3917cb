"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/report.py --seeds 10 [--out FILE]

For each workload: ``--seeds`` untraced runs with seeds 1..N, then one
traced run with seed 1.  The report gives, per end-to-end metric, the
median, the quartiles and their distance as a share of the median (the
spread the benchmark's bounds are held against); the tracing overhead as
the traced run's ``ops_per_s`` against the untraced median; and the seed
table of layer numbers merged from the traced runs.  Written as sorted-key
JSON to ``--out`` (default ``perfbench/out/report.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / q2, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "report.json")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("quartiles need at least two seeds")
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}, "seed_table": []}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        entry = {
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            entry["metrics"][m["name"]] = s
            print(f"{workload} {m['name']} median {s['median']:.6g} spread {s['iqr_share']:.4f}"
                  f" (bound {m['bound']})", flush=True)
        traced = run_once(workload, 1, seconds, 1)
        detail = json.loads((HERE / "out" / f"{workload}-seed1-trace1.json").read_text())
        untraced = entry["metrics"]["ops_per_s"]["median"]
        entry["trace_overhead"] = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / untraced
        entry["trace_coverage"] = traced["metrics"]["trace.coverage"]["value"]
        entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
        report["seed_table"] += [dict(row, workload=workload) for row in detail["trace"]["seed_table"]]
        report["workloads"][workload] = entry
        print(f"{workload} trace overhead {entry['trace_overhead']:.4f}", flush=True)
    report["env"] = detail["env"]
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
