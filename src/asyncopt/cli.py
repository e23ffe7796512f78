"""Command line interface: stats, run, bench, summarize."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bench import (BenchPlan, build_objective, conflict_summary, read_key_values, run_plan,
                    summarize)
from .data import SyntheticSpec
from .engine import FULL_SNAPSHOT, SPARSE_INCONSISTENT, check_workers, run
from .serial import SOLVERS, SolverConfig, resolve_config, trace_to_csv
from .vectors import LinfBall


def _add_data_args(p):
    p.add_argument("--problem", default="logreg",
                   choices=["linreg", "logreg", "vertexcover"])
    p.add_argument("--data", default=None,
                   help="libsvm file (regression) or edge list (vertexcover)")
    p.add_argument("--synthetic", default=None, metavar="N,D,NNZ",
                   help="generate a synthetic dataset of this shape")
    p.add_argument("--synthetic-seed", type=int, default=0)
    p.add_argument("--l2-reg", type=float, default=1e-2)
    p.add_argument("--beta", type=float, default=1.0)


def _synthetic_spec(shape, problem, seed):
    n, d, nnz = (int(t) for t in shape.split(","))
    model = "logistic" if problem == "logreg" else "linear"
    return SyntheticSpec(n=n, d=d, nnz=nnz, label_model=model, seed=seed)


def _plan_from_args(args):
    synthetic = None
    if args.synthetic:
        synthetic = _synthetic_spec(args.synthetic, args.problem, args.synthetic_seed)
    return BenchPlan(
        problem=args.problem, dataset=args.data, synthetic=synthetic,
        l2_reg=args.l2_reg, beta=args.beta,
    )


def _refused_as_usage(args, make):
    """make(), with a refused input (a data file that cannot be opened or that
    the loader refuses, a refused setting) reported as a usage error, as
    argparse's own refusals are."""
    try:
        return make()
    except (OSError, ValueError) as exc:
        args.usage_error(str(exc))


def _objective(args):
    return _refused_as_usage(args, lambda: build_objective(_plan_from_args(args)))


def cmd_stats(args):
    obj = _objective(args)
    st = conflict_summary(obj)
    print(f"terms (n):              {obj.n}")
    print(f"coordinates (d):        {obj.d}")
    print(f"avg conflict degree:    {st['avg_conflict_degree']:.4f}")
    print(f"max conflict degree:    {st['max_conflict_degree']}")
    print(f"max left degree:        {st['max_left_degree']}")
    print(f"max right degree:       {st['max_right_degree']}")
    print(f"intersection P bound:   {st['intersection_prob_bound']:.6f}")
    print(f"tau budget (avg deg):   {st['tau_budget_avg_degree']:.4f}")
    print(f"tau budget (bipartite): {st['tau_budget_bipartite']:.4f}")
    return 0


def cmd_run(args):
    obj = _objective(args)
    rule = "explicit" if args.gamma is not None else SOLVERS[args.mode].rule
    common = dict(gamma=args.gamma, step_rule=rule, eps=1e-2, seed=args.seed,
                  linf=LinfBall(args.linf_radius))

    def settings():
        if SOLVERS[args.mode].epochal:
            cfg = SolverConfig(epoch_size=args.epoch_size or obj.n, epochs=args.epochs or 5,
                               log_every=args.log_every, **common)
        else:
            T = args.iters or (args.epochs or 5) * (args.epoch_size or obj.n)
            cfg = SolverConfig(total_iters=T, log_every=args.log_every or max(1, T // 20),
                               **common)
        cfg = resolve_config(cfg, obj, args.mode)
        check_workers(args.mode, args.workers)
        return cfg

    cfg = _refused_as_usage(args, settings)
    if rule != "explicit":
        print(f"step size {cfg.gamma:.3e} from rule {rule}", file=sys.stderr)
    mode = FULL_SNAPSHOT if args.read == "full" else SPARSE_INCONSISTENT
    res, rep = run(obj, args.mode, cfg, np.zeros(obj.d), args.workers, mode, track_f=True,
                   log_updates=False)
    final_f = obj.value(res.x)
    print(f"iterations: {res.iters}")
    print(f"final objective: {final_f:.10g}")
    print(f"wall time: {res.wall_time:.3f}s")
    print(f"diverged: {res.diverged}")
    if rep is not None:
        print(f"tau observed: {rep.tau_observed}")
    if args.out:
        trace_to_csv(res, args.out, epoch_size=cfg.epoch_size or args.epoch_size)
        print(f"trace written to {args.out}")
    return 1 if res.diverged else 0


def _plan_value(field, value):
    """A BenchPlan field value from its config-file or command-line text."""
    if not isinstance(value, str):
        return value
    kind = field.type.split(" |")[0]
    if kind == "tuple":
        return tuple(type(field.default[0])(t) for t in value.split(","))
    if kind == "SyntheticSpec":
        return value  # its label model depends on the final problem
    return {"str": str, "int": int, "float": float}[kind](value)


def _bench_plan(args):
    # config-file values first, then command-line flags; unset flags are None
    raw = read_key_values(args.config) if args.config else {}
    flags = vars(args)
    values = {}
    for f in dataclasses.fields(BenchPlan):
        v = flags.get("data" if f.name == "dataset" else f.name)
        if v is None:
            v = raw.get(f.name)
        if v is not None:
            values[f.name] = _plan_value(f, v)
    if "synthetic" in values:
        values["synthetic"] = _synthetic_spec(
            values["synthetic"], values.get("problem", BenchPlan.problem), args.synthetic_seed
        )
    return BenchPlan(**values)


def cmd_bench(args):
    outdir = _refused_as_usage(args, lambda: run_plan(_bench_plan(args)))
    print(f"benchmark artifacts in {outdir}")
    return 0


def cmd_summarize(args):
    report = summarize(args.dir)
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if not report["rows"]:
        return 0
    hdr = f"{'algo':<12} {'workers':>7} {'seed':>4} {'best_norm':>10} {'t_999':>9} {'speedup':>8}"
    print(hdr)
    for r in report["rows"]:
        t = f"{r['time_999']:.3f}" if r["time_999"] is not None else "-"
        s = f"{r['speedup_999']:.2f}" if r.get("speedup_999") else "-"
        print(f"{r['algo']:<12} {r['workers']:>7} {r['seed']:>4} "
              f"{r['best_normalized']:>10.4f} {t:>9} {s:>8}")
    if report["kromagnon_vs_dense"] is not None:
        print(f"kromagnon vs dense SVRG time-to-99.9% ratio: "
              f"{report['kromagnon_vs_dense']:.2f}x")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="asyncopt",
        description="Lock-free asynchronous stochastic optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="hypergraph conflict statistics")
    _add_data_args(p)
    p.set_defaults(func=cmd_stats, usage_error=p.error)

    p = sub.add_parser("run", help="run a single solver")
    _add_data_args(p)
    p.add_argument("--mode", default="hogwild", choices=list(SOLVERS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--read", default="sparse", choices=["sparse", "full"])
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--epoch-size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--linf-radius", type=float, default=None)
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--out", default=None, help="write the trace CSV here")
    p.set_defaults(func=cmd_run, usage_error=p.error)

    p = sub.add_parser("bench", help="run a benchmark grid")
    _add_data_args(p)
    # unset flags leave the config file's value or BenchPlan's default
    p.set_defaults(problem=None, l2_reg=None, beta=None)
    p.add_argument("--config", default=None, help="key=value plan file")
    p.add_argument("--algorithms", default=None)
    p.add_argument("--workers", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--epoch-size", type=int, default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_bench, usage_error=p.error)

    p = sub.add_parser("summarize", help="summarize a benchmark directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_summarize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
