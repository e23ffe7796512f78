"""Deterministic staleness simulator for the fake-iterate view.

Instead of real threads, a visibility schedule says exactly which recent
writes each step fails to see.  That makes the "fake" iterate sequence and
the read sequence both explicit, so the per-step distance expansion, the
seed-averaged recursion, and the staleness error bounds can be checked
numerically rather than argued about.
"""

import numpy as np

import asyncopt as ao
from asyncopt.hypergraph import conflict_stats
from asyncopt.sim import (
    check_hogwild_bounds,
    check_recursion,
    check_step_identity,
    gen_schedule,
    simulate,
)


def main():
    data = ao.gen_synthetic(
        ao.SyntheticSpec(n=100, d=20, nnz=3, label_model="linear", seed=1),
        l2_reg=1.0,
    )
    obj = ao.least_squares_objective(data)
    xstar = ao.solve_reference(obj)
    gamma = 0.01
    T = 200
    tau = 3

    print(f"instance: n={obj.n}, d={obj.d}, tau={tau}, gamma={gamma}")

    traces = []
    for seed in range(20):
        sched = gen_schedule(T, tau, obj.d, seed=100 + seed, style="random")
        cfg = ao.SolverConfig(gamma=gamma, total_iters=T, seed=seed)
        traces.append(
            simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar,
                     record_q=False)
        )

    rep = check_step_identity(traces[0])
    print(f"per-step distance identity: ok={rep['ok']} "
          f"max_error={rep['max_error']:.2e}")

    rep = check_recursion(traces, obj.constants)
    print(f"seed-averaged recursion:    ok={rep['ok']} "
          f"worst_margin={rep['worst_margin']:.3e}")

    st = conflict_stats(obj.A, obj.d)
    a0 = float(xstar @ xstar)
    M = obj.grad_norm_bound(xstar, 2.0 * np.sqrt(a0))
    rep = check_hogwild_bounds(traces, obj.constants, st.avg_conflict_degree, M=M)
    print(f"staleness error bounds:     r1_ok={rep['r1_ok']} r2_ok={rep['r2_ok']}")
    print(f"  r1 bound={rep['r1_bound']:.3e} worst margin={rep['r1_worst_margin']:.3e}")
    print(f"  r2 bound={rep['r2_bound']:.3e} worst margin={rep['r2_worst_margin']:.3e}")

    # adversarial schedules: every in-window write is hidden
    sched = gen_schedule(T, tau, obj.d, style="adversarial_stale")
    cfg = ao.SolverConfig(gamma=gamma, total_iters=T, seed=0)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar,
                  record_q=False)
    print(f"adversarial staleness: max read mismatch "
          f"||xhat - x||^2 = {tr.r1.max():.3e}, final a_T = {tr.a[-1]:.3e}")


if __name__ == "__main__":
    main()
