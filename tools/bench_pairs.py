"""Parent/change benchmark pairs, written to a BENCH_<n>.json claim file.

Usage (from the root of a checkout, with the parent commit checked out in
another directory):

    python3 tools/bench_pairs.py --parent ../parent --change . --seed 3000 \
        --out BENCH_6.json

For each workload of BENCHMARK.json it makes ten pairs of perfbench/run.py
runs at the benchmark's run_seconds, one pair per seed, one run at a time,
so the two sides of a pair meet the same host; the side that runs first
alternates from pair to pair.  It records, for every end-to-end metric,
the median, quartiles and spread of each side as perfbench/spread.py
defines them (the definition BENCHMARK.json's bounds are judged against),
the ratio of the medians (change over parent) and the number of pairs the
change wins, and three verdicts: `gain`, when the change wins at least nine
in ten pairs and its median differs from the parent's, in the better
direction, by more than the distance between the parent's quartiles;
`within_bound`, when the change's median is no worse than the parent's by
more than the metric's BENCHMARK.json bound (a fraction of the parent's
median); and `unresolved`, when either side's spread is above that bound and
not every change run beats every parent run: such runs cannot tell a move
within the bound from none, so the metric is reported as unresolved, not as
unchanged.  It prints one line per workload naming the metrics that gained,
any out of bound and any unresolved, with src_lines and native_lines, parent
-> change.  It also makes one --trace 1 pair on the first seed and keeps
every metric of that pair.  Every run's gate result is kept, and so are
src_lines and native_lines, the totals of `wc -l src/asyncopt/*.py` and of
`wc -l src/asyncopt/*.c`, of each checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from spread import summary  # noqa: E402  (one definition of median, quartiles, spread)

PAIRS = 10


def run_once(checkout, workload, seed, seconds, trace):
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True, timeout=900, check=True,
        )
    except subprocess.CalledProcessError as exc:
        tail = "\n".join((exc.stderr or "").strip().splitlines()[-20:])
        print(f"{os.path.abspath(checkout)} {workload} s{seed} t{trace}: perfbench/run.py "
              f"exited with {exc.returncode}; the end of its stderr:\n{tail}", file=sys.stderr,
              flush=True)
        raise
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{os.path.basename(os.path.abspath(checkout))} {workload} s{seed} t{trace}: "
          f"correct={out['correct']} failed={out['failed']}", file=sys.stderr, flush=True)
    return out


def src_lines(checkout, pattern="*.py"):
    """The total of `wc -l src/asyncopt/<pattern>`: newline characters, as wc counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "asyncopt", pattern)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def compare(spec, parent_runs, change_runs):
    sides = {"parent": parent_runs, "change": change_runs}
    summaries = {side: summary(runs) for side, runs in sides.items()}
    table = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in sides.items()}
        wins = sum((b < a) if lower else (b > a)
                   for a, b in zip(values["parent"], values["change"]))
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side in sides:
            s = summaries[side][name]
            row[side] = {k: s[k] for k in ("median", "q1", "q3", "spread")}
            row[side]["values"] = values[side]
        parent, change = row["parent"]["median"], row["change"]["median"]
        gained = parent - change if lower else change - parent
        row["ratio"] = change / parent
        row["change_wins"] = wins
        row["gain"] = wins >= 0.9 * len(values["parent"]) and gained > (
            row["parent"]["q3"] - row["parent"]["q1"])
        row["within_bound"] = gained >= -m["bound"] * parent
        apart = (max(values["change"]) < min(values["parent"]) if lower
                 else min(values["change"]) > max(values["parent"]))
        row["unresolved"] = max(row[side]["spread"] for side in sides) > m["bound"] and not apart
        table[name] = row
    return table


def verdict(workload, table, sizes):
    """One line: the metrics that gained, any whose median is out of bound,
    any unresolved, and each of sizes (a name -> {"parent", "change"} map),
    parent -> change."""
    gains = [k for k, row in table.items() if row["gain"]]
    out = [k for k, row in table.items() if not row["within_bound"]]
    unresolved = [k for k, row in table.items() if row["unresolved"]]
    size = "; ".join(f"{k} {v['parent']} -> {v['change']}" for k, v in sizes.items())
    return (f"{workload}: gain in {', '.join(gains) or 'none'}; "
            f"out of bound: {', '.join(out) or 'none'}; "
            f"unresolved: {', '.join(unresolved) or 'none'}; {size}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=ROOT)
    ap.add_argument("--seed", type=int, default=3000, help="first seed; pair k uses seed + k")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = [args.seed + k for k in range(PAIRS)]
    result = {
        "about": " ".join(__doc__.split("\n\n")[3].split()),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds,
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "native_lines": {"parent": src_lines(args.parent, "*.c"),
                         "change": src_lines(args.change, "*.c")},
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        parent_runs, change_runs = [], []
        for k, s in enumerate(seeds):
            sides = [(args.parent, parent_runs), (args.change, change_runs)]
            for path, runs in sides[::-1] if k % 2 else sides:
                runs.append(run_once(path, w, s, seconds, 0))
        traced = {side: run_once(path, w, seeds[0], seconds, 1)["metrics"]
                  for side, path in (("parent", args.parent), ("change", args.change))}
        table = compare(spec, parent_runs, change_runs)
        print(verdict(w, table, {k: result[k] for k in ("src_lines", "native_lines")}),
              flush=True)
        result["workloads"][w] = {
            "gates": {side: [{"correct": r["correct"], "failed": r["failed"]} for r in runs]
                      for side, runs in (("parent", parent_runs), ("change", change_runs))},
            "end_to_end": table,
            "per_layer_first_seed": {
                k: {side: traced[side][k]["value"] for side in traced} for k in traced["change"]
            },
        }
        with open(args.out, "w") as fh:  # rewritten after each workload
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
