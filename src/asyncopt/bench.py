"""Benchmark harness: solver x dataset x worker-count grids with normalized
objective traces and time-to-target speedup tables.

Protocol: every run's objective trace is normalized so the initial objective
maps to 1 and the minimum attained across the whole grid maps to 0 (diverged
runs are excluded from the minimum).  Speedups are the time each
configuration takes to reach 99.9% / 99.99% of its own run's progress to its
own minimum, relative to the 1-worker run of the same algorithm.  Wall time
excludes dataset loading and objective construction but includes the SVRG
snapshot gradients.
"""

from __future__ import annotations

import csv
import os
import platform
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import SyntheticSpec, gen_synthetic, parse_edge_list, parse_libsvm
from .engine import (
    SPARSE_INCONSISTENT,
    measure_speedup,
    run_ascd,
    run_hogwild,
    run_kromagnon,
    time_to_progress,
)
from .hypergraph import conflict_stats, intersection_probability_bound, tau_bound_comparison
from .objectives import (
    least_squares_objective,
    logistic_objective,
    vertex_cover_objective,
)
from .serial import (
    THEOREM_RULE,
    SolverConfig,
    resolve_config,
    run_scd,
    run_sgm,
    run_svrg_dense,
    run_svrg_sparse,
)

__all__ = ["BenchPlan", "build_objective", "run_plan", "summarize"]

SERIAL_ALGOS = ("sgm", "scd", "svrg_dense", "svrg_sparse")
ASYNC_ALGOS = ("hogwild", "ascd", "kromagnon")
ALL_ALGOS = SERIAL_ALGOS + ASYNC_ALGOS


@dataclass
class BenchPlan:
    problem: str = "logreg"  # linreg | logreg | vertexcover
    dataset: str | None = None  # libsvm path (regression) or edge list (cover)
    synthetic: SyntheticSpec | None = None
    l2_reg: float = 1e-2
    beta: float = 1.0
    algorithms: tuple = ("hogwild", "kromagnon", "svrg_dense")
    workers: tuple = (1, 2, 4)
    epochs: int = 50
    epoch_size: int | None = None  # default: n samples per epoch
    snapshot_interval: int = 2
    seeds: tuple = (0,)
    gamma: float | None = None  # overrides the theorem-derived defaults
    eps: float = 1e-2  # accuracy parameter feeding the SGM/Hogwild step rule
    outdir: str = "bench_out"
    stats_budget: int = 1_000_000_000

    def __post_init__(self):
        if self.problem not in ("linreg", "logreg", "vertexcover"):
            raise ValueError(f"unknown problem {self.problem!r}")
        bad = set(self.algorithms) - set(ALL_ALGOS)
        if bad:
            raise ValueError(f"unknown algorithms: {sorted(bad)}")
        if any(w < 1 for w in self.workers):
            raise ValueError("worker counts must be >= 1")
        if self.dataset is None and self.synthetic is None and self.problem != "vertexcover":
            raise ValueError("need a dataset path or a synthetic spec")


def build_objective(plan: BenchPlan):
    if plan.problem == "vertexcover":
        if plan.dataset is None:
            raise ValueError("vertexcover needs an edge-list path")
        problem = parse_edge_list(plan.dataset, beta=plan.beta)
        return vertex_cover_objective(problem)
    if plan.dataset is not None:
        data = parse_libsvm(plan.dataset, l2_reg=plan.l2_reg)
    else:
        data = gen_synthetic(plan.synthetic, l2_reg=plan.l2_reg)
    if plan.problem == "logreg":
        data.labels = np.where(data.labels > 0, 1.0, -1.0)
        return logistic_objective(data)
    return least_squares_objective(data)


def run_solver(obj, algo, cfg, workers=1, mode=SPARSE_INCONSISTENT):
    """Run one solver from x0 = 0 with f traced.

    Returns (RunResult, OverlapReport), the report None for serial solvers.
    """
    x0 = np.zeros(obj.d)
    if algo == "kromagnon":
        return run_kromagnon(obj, None, cfg, x0, workers, mode, track_f=True, log_updates=False)
    if algo in ASYNC_ALGOS:
        run = run_hogwild if algo == "hogwild" else run_ascd
        return run(obj, cfg, x0, workers, mode, track_f=True, log_updates=False)
    if algo == "svrg_sparse":
        return run_svrg_sparse(obj, None, cfg, x0, track_f=True), None
    run = {"sgm": run_sgm, "scd": run_scd, "svrg_dense": run_svrg_dense}[algo]
    return run(obj, cfg, x0, track_f=True), None


def _with_origin(run, f0):
    """The run with the t=0 point prepended, so normalization and targets see the start."""
    return replace(
        run, trace_iter=np.concatenate([[0], run.trace_iter]),
        trace_wall=np.concatenate([[0.0], run.trace_wall]),
        trace_f=np.concatenate([[f0], run.trace_f]),
    )


def conflict_summary(obj) -> dict:
    """Conflict-graph statistics of every term and the staleness budgets they imply."""
    st = conflict_stats([obj.term_support(i) for i in range(obj.n)], obj.d)
    this_tau, prior_tau = tau_bound_comparison(st, obj.n)
    return {
        "avg_conflict_degree": st.avg_conflict_degree,
        "max_conflict_degree": st.max_conflict_degree,
        "max_left_degree": st.max_left_degree,
        "max_right_degree": st.max_right_degree,
        "intersection_prob_bound": intersection_probability_bound(st, obj.n),
        "tau_budget_avg_degree": this_tau,
        "tau_budget_bipartite": prior_tau,
    }


def _stats_block(obj, budget):
    cost = int((obj.weights.counts**2).sum())  # the pair work of conflict_stats
    lines = [f"stats_cost={cost}"]
    if cost > budget:
        lines.append("conflict_stats=skipped (cost above budget)")
    else:
        lines += [f"{k}={v}" for k, v in conflict_summary(obj).items()]
    return "\n".join(lines)


def run_plan(plan: BenchPlan) -> str:
    """Execute the grid; returns the artifact directory path."""
    obj = build_objective(plan)
    c = obj.constants
    os.makedirs(plan.outdir, exist_ok=True)
    runs_dir = os.path.join(plan.outdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    S = plan.epoch_size if plan.epoch_size is not None else obj.n
    E = plan.epochs
    f0 = obj.value(np.zeros(obj.d))
    results = {}
    gammas = {}
    diverged = []
    for algo in plan.algorithms:
        worker_list = plan.workers if algo in ASYNC_ALGOS else (1,)
        rule = "explicit" if plan.gamma is not None else THEOREM_RULE[algo]
        # flat runs take S * E samples with a checkpoint every S, the epochal runs' grid
        cfg = SolverConfig(gamma=plan.gamma, step_rule=rule, eps=plan.eps, total_iters=S * E,
                           epoch_size=S, epochs=E, snapshot_interval=plan.snapshot_interval,
                           log_every=S)
        cfg = resolve_config(cfg, obj, algo)
        gammas[algo] = (cfg.gamma, rule)
        for w in worker_list:
            for seed in plan.seeds:
                run, _ = run_solver(obj, algo, replace(cfg, seed=seed), w)
                key = (algo, w, seed)
                results[key] = run
                if run.diverged:
                    diverged.append(key)

    # grid minimum over non-diverged runs (for the shared normalization)
    fmins = [
        float(np.nanmin(r.trace_f))
        for k, r in results.items()
        if not r.diverged and r.trace_f is not None
    ]
    fmin = min(fmins) if fmins else f0
    denom = (f0 - fmin) if f0 != fmin else 1.0

    for (algo, w, seed), run in results.items():
        run = _with_origin(run, f0)
        fnorm = (run.trace_f - fmin) / denom
        path = os.path.join(runs_dir, f"{algo}_w{w}_s{seed}.csv")
        with open(path, "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow(["iter", "wall_s", "f", "f_normalized"])
            for row in zip(run.trace_iter, run.trace_wall, run.trace_f, fnorm):
                wcsv.writerow(row)

    # speedup tables (per algorithm, per seed, at both targets)
    for algo in plan.algorithms:
        if algo not in ASYNC_ALGOS:
            continue
        path = os.path.join(plan.outdir, f"speedup_{algo}.csv")
        with open(path, "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow(
                ["seed", "workers", "time_999", "speedup_999", "time_9999", "speedup_9999"]
            )
            for seed in plan.seeds:
                grid = {}
                for w in plan.workers:
                    run = results.get((algo, w, seed))
                    if run is not None and not run.diverged:
                        grid[w] = _with_origin(run, f0)
                if 1 not in grid:
                    continue
                t999 = measure_speedup(grid, 0.999)
                t9999 = measure_speedup(grid, 0.9999)
                for w in sorted(grid):
                    wcsv.writerow([
                        seed, w,
                        t999[w]["time_to_target"], t999[w]["speedup"],
                        t9999[w]["time_to_target"], t9999[w]["speedup"],
                    ])

    with open(os.path.join(plan.outdir, "stats.txt"), "w") as fh:
        fh.write(_stats_block(obj, plan.stats_budget) + "\n")

    manifest = {
        "problem": plan.problem,
        "dataset": plan.dataset or "",
        "synthetic": "" if plan.synthetic is None else repr(asdict(plan.synthetic)),
        "l2_reg": plan.l2_reg,
        "beta": plan.beta,
        "algorithms": ",".join(plan.algorithms),
        "workers": ",".join(map(str, plan.workers)),
        "epochs": E,
        "epoch_size": S,
        "snapshot_interval": plan.snapshot_interval,
        "seeds": ",".join(map(str, plan.seeds)),
        "eps": plan.eps,
        "L": c.L,
        "m": c.m,
        "M": c.M,
        "L_term": c.L_term,
        "kappa": c.kappa,
        "n": c.n,
        "d": c.d,
        "f0": f0,
        "fmin_grid": fmin,
        "diverged": ";".join(f"{a}_w{w}_s{s}" for a, w, s in diverged),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    for algo, (gamma, rule) in gammas.items():
        manifest[f"gamma_{algo}"] = gamma
        manifest[f"gamma_rule_{algo}"] = rule
    with open(os.path.join(plan.outdir, "manifest.txt"), "w") as fh:
        for k, v in manifest.items():
            fh.write(f"{k}={v}\n")
    return plan.outdir


def read_key_values(path):
    """A flat key=value file (a manifest or a plan); blank and # lines are skipped."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
    return out


def _read_run_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    wall = np.array([float(r["wall_s"]) for r in rows])
    f = np.array([float(r["f"]) for r in rows])
    fn = np.array([float(r["f_normalized"]) for r in rows])
    return wall, f, fn


def summarize(outdir, write_csv=True):
    """Digest an artifact directory into per-algorithm summary rows."""
    runs_dir = os.path.join(outdir, "runs")
    manifest_path = os.path.join(outdir, "manifest.txt")
    warnings = []
    if not os.path.isdir(runs_dir) or not os.listdir(runs_dir):
        warnings.append("no runs found")
        return {"rows": [], "warnings": warnings, "kromagnon_vs_dense": None}
    if not os.path.exists(manifest_path):
        warnings.append("manifest.txt missing")
    rows = []
    for name in sorted(os.listdir(runs_dir)):
        if not name.endswith(".csv"):
            continue
        stem = name[:-4]
        algo, wtag, stag = stem.rsplit("_", 2)
        w = int(wtag[1:])
        seed = int(stag[1:])
        wall, f, fn = _read_run_csv(os.path.join(runs_dir, name))
        rows.append({
            "algo": algo, "workers": w, "seed": seed,
            "best_normalized": float(fn.min()),
            "time_999": time_to_progress(wall, fn, 0.999),
            "wall_total": float(wall[-1]),
        })
    # speedups relative to the 1-worker run of the same algo/seed
    times = {(r["algo"], r["workers"], r["seed"]): r["time_999"] for r in rows}
    for row in rows:
        base, t = times.get((row["algo"], 1, row["seed"])), row["time_999"]
        row["speedup_999"] = base / t if base and t else None
    # headline comparison: kromagnon vs dense SVRG time-to-99.9%
    ratio = None
    k1 = [(r["time_999"]) for r in rows if r["algo"] == "kromagnon" and r["workers"] == 1]
    d1 = [(r["time_999"]) for r in rows if r["algo"] == "svrg_dense"]
    if k1 and d1 and k1[0] and d1[0]:
        ratio = d1[0] / k1[0]
    if write_csv:
        path = os.path.join(outdir, "summary.csv")
        with open(path, "w", newline="") as fh:
            fieldnames = ["algo", "workers", "seed", "best_normalized",
                          "time_999", "speedup_999", "wall_total"]
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            for row in rows:
                w.writerow({k: row.get(k) for k in fieldnames})
    return {"rows": rows, "warnings": warnings, "kromagnon_vs_dense": ratio}
