"""asyncopt benchmark: one workload run, printed as a metric table plus a JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense_d1k --seed 0 --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same stages
with spans recorded around every call into asyncopt and prints the
per-layer metrics instead.  Every run also executes the correctness gate;
the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (environment, step sizes, time-to-target epochs, gate
results) goes to perfbench/out/, and traced runs write their spans there.
Nothing is written outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import asyncopt  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

if not asyncopt.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"asyncopt was imported from {asyncopt.__file__}, not from src/ of this checkout")

import stages  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = os.path.join(HERE, "out")


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_revision():
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed):
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "seed": seed,
        "workers": list(stages.WORKERS),
        "scaling_judged_against": min(max(stages.WORKERS), os.cpu_count() or 1),
    }


def end_to_end(run):
    m = run.value
    return {
        "setup_s": (m("setup_s"), "s"),
        "peak_rss_mb": (_rss_mb(), "MB"),
        "sgm_us_per_sample": (m("us.sgm"), "us"),
        "hogwild_us_per_sample.w1": (m("us.hogwild.w1"), "us"),
        "hogwild_us_per_sample.w2": (m("us.hogwild.w2"), "us"),
        "ascd_us_per_sample.w1": (m("us.ascd.w1"), "us"),
        "kromagnon_us_per_sample.w1": (m("us.kromagnon.w1"), "us"),
        "kromagnon_us_per_sample.w2": (m("us.kromagnon.w2"), "us"),
        "svrg_dense_us_per_sample": (m("us.svrg_dense"), "us"),
        "time_to_target_s.kromagnon.w1": (m("ttt.kromagnon.w1"), "s"),
        "time_to_target_s.kromagnon.w2": (m("ttt.kromagnon.w2"), "s"),
        "time_to_target_s.svrg_dense": (m("ttt.svrg_dense"), "s"),
        "kromagnon_vs_dense": (m("ttt.svrg_dense") / m("ttt.kromagnon.w1"), "ratio"),
        "stats_s": (m("stats_s"), "s"),
        "sim_check_s": (m("sim_check_s"), "s"),
    }


def per_layer(run, tracer):
    m, info = run.value, run.info
    us_sparse = m("us.svrg_sparse")
    samples = {k: info[f"ttt.{k}"]["samples"] for k in ("kromagnon.w1", "kromagnon.w2")}
    out = {
        "data.parse_libsvm_s": (m("data.parse_libsvm"), "s"),
        "data.remap_covered_s": (m("data.remap_covered"), "s"),
        "data.gen_synthetic_s": (m("data.gen_synthetic"), "s"),
        "objectives.build_s": (m("objectives.build"), "s"),
        "objectives.term_grad_vals_us": (m("objectives.term_grad_vals_us"), "us"),
        "objectives.full_grad_coord_us": (m("objectives.full_grad_coord_us"), "us"),
        "objectives.full_grad_ms": (m("objectives.full_grad_ms"), "ms"),
        "objectives.value_ms": (m("objectives.value_ms"), "ms"),
        "objectives.full_grad_calls": (tracer.counts["full_grad_calls"], "count"),
        "objectives.solve_reference_s": (m("objectives.solve_reference"), "s"),
        "serial.svrg_sparse_us_per_sample": (us_sparse, "us"),
        "serial.scd_us_per_sample": (m("us.scd"), "us"),
        "serial.dense_step_us_per_sample": (m("us.svrg_dense") - us_sparse, "us"),
        "engine.add_clamped_us": (m("engine.add_clamped_us"), "us"),
        "engine.overhead_us.hogwild": (m("us.hogwild.w1") - m("us.sgm"), "us"),
        "engine.overhead_us.kromagnon": (m("us.kromagnon.w1") - us_sparse, "us"),
        "engine.overhead_us.ascd": (m("us.ascd.w1") - m("us.scd"), "us"),
        "engine.scaling.w2.hogwild": (m("us.hogwild.w1") / m("us.hogwild.w2"), "ratio"),
        "engine.scaling.w2.kromagnon": (m("us.kromagnon.w1") / m("us.kromagnon.w2"), "ratio"),
        "engine.checkpoint_s": (m("engine.checkpoint_s"), "s"),
        "engine.tau_observed.w2": (m("engine.tau_observed.w2"), "count"),
        "engine.tau_median.w2": (m("engine.tau_median.w2"), "count"),
        "engine.sample_efficiency.w2": (
            samples["kromagnon.w1"] / samples["kromagnon.w2"], "ratio"),
        "ttt.epochs.kromagnon.w1": (info["ttt.kromagnon.w1"]["epochs"], "count"),
        "ttt.epochs.kromagnon.w2": (info["ttt.kromagnon.w2"]["epochs"], "count"),
        "ttt.epochs.svrg_dense": (info["ttt.svrg_dense"]["epochs"], "count"),
        "hypergraph.conflict_stats_s": (m("hypergraph.conflict_stats"), "s"),
        "hypergraph.conflict_stats_peak_mb": (info["conflict_stats_peak_mb"], "MB"),
        "hypergraph.pair_work": (info["pair_work"], "count"),
        "hypergraph.coordinate_weights_s": (m("hypergraph.coordinate_weights"), "s"),
        "sim.gen_schedule_s": (m("sim.gen_schedule"), "s"),
        "sim.schedule_mb": (stages.SIM.T * stages.SIM.tau * stages.SIM.d / 1e6, "MB"),
        "sim.simulate_s": (m("sim.simulate"), "s"),
        "sim.simulate_noq_s": (m("sim.simulate_noq"), "s"),
        "sim.checks_s": (m("sim.checks_s"), "s"),
        "count.samples": (tracer.counts["samples"], "count"),
        "count.checkpoints": (tracer.counts["checkpoints"], "count"),
        "count.threads_started": (tracer.counts["threads_started"], "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "bench.calibration_ms": (m("calibration_s") * 1e3, "ms"),
    }
    for layer, s in tracer.self_times().items():
        out[f"self_s.{layer}"] = (s, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(stages.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    w = stages.WORKLOADS[args.workload]
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    tracer = Tracer(run_id=tag, enabled=bool(args.trace))
    run = stages.Run(w, args.seed, args.seconds, tracer, OUT)
    t_start = time.perf_counter()
    try:
        run.prep()
        run.setup()
        run.oracle()
        if tracer.enabled:
            run.count_full_grad_calls()
        run.measure()
        if tracer.enabled:
            run.micro()
            metrics = per_layer(run, tracer)
            metrics["trace.overhead_s"] = (run.tracing_overhead(), "s")
        else:
            metrics = end_to_end(run)
    finally:
        if os.path.exists(run.path):
            os.remove(run.path)
    wall = time.perf_counter() - t_start

    gate = run.gate
    record = {
        "workload": w.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "workload_spec": asdict(w),
        "sim_spec": asdict(stages.SIM),
        "info": run.info,
        "calibration_ref_s": stages.CAL_REF_S,
        "repeats": run.t,
        "gate": [{"check": n, "ok": ok, "detail": d} for n, ok, d in gate.results],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_wall_s": wall,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if tracer.enabled:
        tracer.write(os.path.join(OUT, f"spans-{tag}.json"))

    for name, ok, detail in gate.results:
        if not ok:
            print(f"GATE FAILED {name}: {detail}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"gate: {gate.attempted - gate.failed}/{gate.attempted} ok, "
          f"reps={run.info['reps']}, run wall {wall:.1f} s")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
