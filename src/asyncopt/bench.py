"""Benchmark harness: solver x dataset x worker-count grids with normalized
objective traces and one time-to-target digest.

Protocol: every run starts at x0 = 0, and its objective trace is normalized
so the initial objective f0 maps to 1 and the grid minimum maps to 0.  The
grid minimum is the least of f0 and every non-diverged run's values, so a
grid where no run beats the start keeps its orientation.  ``summarize``
digests the run files into ``summary.csv``: the time each run takes to reach
99.9% / 99.99% of its own progress to its own minimum, and its speedup over
the 1-worker run of the same algorithm; a diverged run gets no time.  Wall
time excludes dataset loading and objective construction but includes the
SVRG snapshot gradients.  The solver names are those of serial.SOLVERS.
"""

from __future__ import annotations

import csv
import os
import platform
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import SyntheticSpec, gen_synthetic, parse_edge_list, parse_libsvm, remap_covered
from .engine import _with_origin, run, time_to_progress
from .hypergraph import conflict_stats, intersection_probability_bound, tau_bound_comparison
from .objectives import (
    least_squares_objective,
    logistic_objective,
    vertex_cover_objective,
)
from .serial import SOLVERS, SolverConfig, resolve_config

__all__ = ["BenchPlan", "build_objective", "run_plan", "summarize"]

_TARGETS = {"999": 0.999, "9999": 0.9999}  # summary column tag -> progress fraction


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
        bad = set(self.algorithms) - set(SOLVERS)
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
    d = data.d
    data, kept = remap_covered(data)  # the objectives need every coordinate covered
    if kept.size < d:
        print(f"asyncopt: dropped {d - kept.size} of {d} feature columns that no row uses",
              file=sys.stderr)
    if plan.problem == "logreg":
        data.labels = np.where(data.labels > 0, 1.0, -1.0)
        return logistic_objective(data)
    return least_squares_objective(data)


def conflict_summary(obj) -> dict:
    """Conflict-graph statistics of every term and the staleness budgets they imply."""
    st = conflict_stats(obj.A, obj.d)
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
        lines.append(f"conflict_stats=skipped (pair work {cost} above stats_budget {budget})")
    else:
        lines += [f"{k}={v}" for k, v in conflict_summary(obj).items()]
    return "\n".join(lines)


def run_plan(plan: BenchPlan) -> str:
    """Execute the grid; returns the artifact directory path."""
    obj = build_objective(plan)
    c = obj.constants
    S = plan.epoch_size if plan.epoch_size is not None else obj.n
    E = plan.epochs
    x0 = np.zeros(obj.d)
    f0 = obj.value(x0)
    configs = {}  # every run's config, resolved before any file is made
    gammas = {}
    for algo in plan.algorithms:
        rule = "explicit" if plan.gamma is not None else SOLVERS[algo].rule
        # flat runs take S * E samples with a checkpoint every S, the epochal runs' grid
        cfg = SolverConfig(gamma=plan.gamma, step_rule=rule, eps=plan.eps, total_iters=S * E,
                           epoch_size=S, epochs=E, snapshot_interval=plan.snapshot_interval,
                           log_every=S)
        cfg = resolve_config(cfg, obj, algo)
        gammas[algo] = (cfg.gamma, rule)
        configs[algo] = [replace(cfg, seed=seed) for seed in plan.seeds]
    runs_dir = os.path.join(plan.outdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    results = {}
    diverged = []
    for algo, cfgs in configs.items():
        for w in plan.workers if SOLVERS[algo].threaded else (1,):
            for cfg in cfgs:
                res, _ = run(obj, algo, cfg, x0, w, track_f=True)
                key = (algo, w, cfg.seed)
                results[key] = res
                if res.diverged:
                    diverged.append(key)

    # grid minimum over f0 and the non-diverged runs (for the shared normalization)
    fmin = min([f0] + [float(np.nanmin(r.trace_f)) for r in results.values() if not r.diverged])
    denom = (f0 - fmin) if f0 != fmin else 1.0

    for (algo, w, seed), res in results.items():
        res = _with_origin(res, f0)
        fnorm = (res.trace_f - fmin) / denom
        path = os.path.join(runs_dir, f"{algo}_w{w}_s{seed}.csv")
        with open(path, "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow(["iter", "wall_s", "f", "f_normalized"])
            for row in zip(res.trace_iter, res.trace_wall, res.trace_f, fnorm):
                wcsv.writerow(row)

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
    summarize(plan.outdir)
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
    manifest = read_key_values(manifest_path) if os.path.exists(manifest_path) else {}
    diverged = set(manifest.get("diverged", "").split(";"))
    rows = []
    for name in sorted(os.listdir(runs_dir)):
        if not name.endswith(".csv"):
            continue
        stem = name[:-4]
        algo, wtag, stag = stem.rsplit("_", 2)
        wall, _, fn = _read_run_csv(os.path.join(runs_dir, name))
        row = {"algo": algo, "workers": int(wtag[1:]), "seed": int(stag[1:]),
               "best_normalized": float(fn.min()), "wall_total": float(wall[-1])}
        for tag, frac in _TARGETS.items():
            row[f"time_{tag}"] = None if stem in diverged else time_to_progress(wall, fn, frac)
        rows.append(row)
    # speedups relative to the 1-worker run of the same algo/seed
    for tag in _TARGETS:
        times = {(r["algo"], r["workers"], r["seed"]): r[f"time_{tag}"] for r in rows}
        for row in rows:
            base, t = times.get((row["algo"], 1, row["seed"])), row[f"time_{tag}"]
            row[f"speedup_{tag}"] = base / t if base and t else None
    # headline comparison: kromagnon vs dense SVRG time-to-99.9%
    ratio = None
    k1 = [(r["time_999"]) for r in rows if r["algo"] == "kromagnon" and r["workers"] == 1]
    d1 = [(r["time_999"]) for r in rows if r["algo"] == "svrg_dense"]
    if k1 and d1 and k1[0] and d1[0]:
        ratio = d1[0] / k1[0]
    if write_csv:
        path = os.path.join(outdir, "summary.csv")
        with open(path, "w", newline="") as fh:
            fieldnames = ["algo", "workers", "seed", "best_normalized", "time_999",
                          "speedup_999", "time_9999", "speedup_9999", "wall_total"]
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            for row in rows:
                w.writerow({k: row[k] for k in fieldnames})
    return {"rows": rows, "warnings": warnings, "kromagnon_vs_dense": ratio}
