"""Lock-free parallel SGM on sparse logistic regression.

Runs the serial baseline and the shared-memory solver at several worker
counts with the same theorem-derived step size, then reports the final
objective, the observed sample-interval overlap (tau), and time to reach
99.9% of each run's own progress.
"""

import numpy as np

import asyncopt as ao
from asyncopt.engine import measure_speedup


def main():
    spec = ao.SyntheticSpec(n=20_000, d=200, nnz=10, label_model="logistic", seed=0)
    data = ao.gen_synthetic(spec, l2_reg=1e-2)
    obj = ao.logistic_objective(data)
    print(f"problem: n={obj.n} terms, d={obj.d} coordinates")
    print(f"constants: L={obj.constants.L:.3f} m={obj.constants.m:.3f} "
          f"kappa={obj.constants.kappa:.1f}")

    gamma = 1.0 / (10.0 * obj.constants.L)
    T = 60_000
    cfg = ao.SolverConfig(gamma=gamma, total_iters=T, seed=0, log_every=T // 20)
    x0 = np.zeros(obj.d)

    runs = {}
    for workers in (1, 2, 4):
        res, rep = ao.run_hogwild(obj, cfg, x0, workers=workers, track_f=True)
        runs[workers] = res
        print(f"workers={workers}: f={obj.value(res.x):.6f} "
              f"wall={res.wall_time:.2f}s tau_observed={rep.tau_observed}")

    table = measure_speedup(runs, obj.value(x0), target_fraction=0.999)
    for w, row in sorted(table.items()):
        s = f"{row['speedup']:.2f}x" if row["speedup"] else "-"
        print(f"time to 99.9% progress, {w} workers: "
              f"{row['time_to_target']:.3f}s (speedup {s})")
    print("note: with the native stretch kernels the workers run outside the "
          "interpreter lock, so scaling is bounded by the cores and by how often "
          "terms share coordinates (README, 'Native stretch kernels')")


if __name__ == "__main__":
    main()
