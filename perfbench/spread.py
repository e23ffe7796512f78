"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload dense_d1k --seeds 100-109 --seconds 50

runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the spread: the distance
between the quartiles over the median, which BENCHMARK.json's bounds are
judged against.  The result lines of the runs are kept in
perfbench/out/spread-<workload>.json.  --baseline also makes one traced
run on the first seed and writes the workload's entry of
perfbench/baseline.json: the summary, the environment, the step sizes and
epochs to target from the first run's record, and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    with open(os.path.join(OUT, f"{workload}-s{seed}-t{trace}.json")) as fh:
        return json.load(fh)


def write_baseline(workload, seeds, seconds, results, table):
    first = record(workload, seeds[0], 0)
    traced = run_once(workload, seeds[0], seconds, trace=1)
    path = os.path.join(HERE, "baseline.json")
    with open(path) as fh:
        base = json.load(fh)
    base["about"] = (
        "Per workload: the median, quartiles and spread of each end-to-end metric over "
        "one --trace 0 run per seed, and the per-layer metrics of one --trace 1 run on "
        "the first seed, made on the machine described under environment."
    )
    base["environment"] = first["environment"]
    base["sim_spec"] = first["sim_spec"]
    base["calibration_ref_s"] = first["calibration_ref_s"]
    base["workloads"][workload] = {
        "seeds": seeds,
        "seconds": seconds,
        "spec": first["workload_spec"],
        "gamma": first["info"]["gamma"],
        "d": first["info"]["d"],
        "epochs_to_target": {k[4:]: v["epochs"] for k, v in first["info"].items()
                             if k.startswith("ttt.")},
        "correct": [r["correct"] for r in results],
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "run_wall_s": [round(record(workload, s, 0)["run_wall_s"], 1) for s in seeds],
        "end_to_end": table,
        "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        "traced_run_wall_s": round(record(workload, seeds[0], 1)["run_wall_s"], 1),
    }
    with open(path, "w") as fh:
        json.dump(base, fh, indent=1)
        fh.write("\n")


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 100-109")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    results = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, args.seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} {r['attempted'] - r['failed']}/{r['attempted']}",
              flush=True)
    with open(os.path.join(OUT, f"spread-{args.workload}.json"), "w") as fh:
        json.dump({"seeds": args.seeds, "results": results}, fh, indent=1)

    table = summary(results)
    width = max(len(k) for k in table)
    for name, s in table.items():
        print(f"{name:<{width}}  median {s['median']:>12.6g} {s['unit']:<5}  spread {s['spread']:.3f}")
    if args.baseline:
        write_baseline(args.workload, args.seeds, args.seconds, results, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
