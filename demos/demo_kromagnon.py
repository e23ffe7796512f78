"""Sparse asynchronous SVRG versus the dense serial variant.

The sparse variant only touches the coordinates of the sampled term,
reweighting the snapshot correction by the inverse coordinate frequency
so the update stays unbiased.  On a sparse problem each step costs
O(nnz) instead of O(d), which is where the practical gap comes from.
"""

import numpy as np

import asyncopt as ao


def main():
    spec = ao.SyntheticSpec(n=20_000, d=500, nnz=10, label_model="linear", seed=1)
    data = ao.gen_synthetic(spec, l2_reg=0.1)
    obj = ao.least_squares_objective(data)
    xstar = ao.solve_reference(obj)
    a0 = float(xstar @ xstar)
    print(f"problem: n={obj.n}, d={obj.d}, nnz/row=10, kappa={obj.constants.kappa:.1f}")

    cfg = ao.SolverConfig(
        step_rule="svrg_theorem3", eps=1e-3 * a0, a0=a0,
        epoch_size=obj.n, snapshot_interval=1, seed=0,
    )
    x0 = np.zeros(obj.d)

    dense = ao.run_svrg_dense(obj, cfg, x0, xstar=xstar, track_f=True)
    print(f"dense SVRG:   a_final={float((dense.x - xstar) @ (dense.x - xstar)):.3e} "
          f"wall={dense.wall_time:.2f}s")

    sparse = ao.run_svrg_sparse(obj, obj.weights, cfg, x0, xstar=xstar, track_f=True)
    print(f"sparse SVRG:  a_final={float((sparse.x - xstar) @ (sparse.x - xstar)):.3e} "
          f"wall={sparse.wall_time:.2f}s")

    res, rep = ao.run_kromagnon(
        obj, obj.weights, cfg, x0, workers=4, xstar=xstar, track_f=True,
    )
    print(f"async sparse: a_final={float((res.x - xstar) @ (res.x - xstar)):.3e} "
          f"wall={res.wall_time:.2f}s tau_observed={rep.tau_observed}")

    print("\nper-epoch squared distance (dense vs sparse, same seed):")
    total = len(dense.epoch_a)
    for k, (da, sa) in enumerate(zip(dense.epoch_a, sparse.epoch_a)):
        if k % 5 == 0 or k == total - 1:
            print(f"  epoch {k + 1}: dense={da:.3e} sparse={sa:.3e}")


if __name__ == "__main__":
    main()
