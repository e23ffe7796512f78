"""The step-kernel seam: serial and threaded drivers of the same kernel.

A 1-worker async run must reproduce its serial counterpart bit for bit on
any shape, and every solver must stop at its first non-finite checkpoint.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.engine import FULL_SNAPSHOT, SPARSE_INCONSISTENT, run_ascd, run_hogwild, run_kromagnon
from asyncopt.serial import SolverConfig, run_scd, run_sgm, run_svrg_dense, run_svrg_sparse

from conftest import make_ridge_desk, make_vc_desk

MODES = st.sampled_from([SPARSE_INCONSISTENT, FULL_SNAPSHOT])
RADII = st.sampled_from([None, 0.05])


def assert_same_run(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.trace_iter, b.trace_iter)
    assert np.array_equal(a.trace_f, b.trace_f)
    assert a.iters == b.iters and a.diverged == b.diverged


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 80), d=st.integers(1, 30), nnz=st.integers(1, 4),
    problem=st.sampled_from(["linreg", "logreg"]), radius=RADII, mode=MODES,
    data_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
    log_every=st.integers(0, 25), snapshot_interval=st.integers(1, 2),
)
def test_one_worker_async_equals_serial(
    n, d, nnz, problem, radius, mode, data_seed, seed, log_every, snapshot_interval,
):
    assume(nnz <= d)
    model = "logistic" if problem == "logreg" else "linear"
    data = ao.gen_synthetic(ao.SyntheticSpec(n, d, nnz, label_model=model, seed=data_seed),
                            l2_reg=0.1)
    data, _ = ao.remap_covered(data)
    obj = (ao.logistic_objective if problem == "logreg" else ao.least_squares_objective)(data)
    gamma = 0.5 / obj.constants.L_term
    x0 = np.zeros(obj.d)
    linf = ao.LinfBall(radius)
    flat = SolverConfig(gamma=gamma, total_iters=60, seed=seed, linf=linf, log_every=log_every)
    cd = SolverConfig(gamma=gamma / obj.d, total_iters=30, seed=seed, linf=linf,
                      log_every=log_every)
    ep = SolverConfig(gamma=gamma, epoch_size=20, epochs=3, seed=seed, linf=linf,
                      snapshot_interval=snapshot_interval, log_every=20)

    res, _ = run_hogwild(obj, flat, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_sgm(obj, flat, x0, track_f=True))
    res, _ = run_ascd(obj, cd, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_scd(obj, cd, x0, track_f=True))
    res, _ = run_kromagnon(obj, None, ep, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_svrg_sparse(obj, None, ep, x0, track_f=True))


@settings(max_examples=15, deadline=None)
@given(
    num_vertices=st.integers(3, 12), num_edges=st.integers(1, 20), radius=RADII,
    mode=MODES, graph_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
)
def test_one_worker_kromagnon_equals_serial_on_box(
    num_vertices, num_edges, radius, mode, graph_seed, seed,
):
    assume(num_edges <= num_vertices * (num_vertices - 1) // 2)
    obj = ao.vertex_cover_objective(
        make_vc_desk(num_vertices=num_vertices, num_edges=num_edges, seed=graph_seed), box=True
    )
    cfg = SolverConfig(gamma=1e-4, epoch_size=30, epochs=3, seed=seed,
                       linf=ao.LinfBall(radius), log_every=30)
    x0 = np.full(obj.d, 0.5)
    res, _ = run_kromagnon(obj, None, cfg, x0, workers=1, mode=mode, track_f=True)
    serial = run_svrg_sparse(obj, None, cfg, x0, track_f=True)
    assert_same_run(res, serial)
    assert res.x.min() >= 0.0 and res.x.max() <= (radius or 1.0)


def _async(run):
    def call(*args, **kw):
        res, rep = run(*args, **kw)
        assert len(rep.log) == res.iters
        return res
    return call


SOLVERS = {
    "sgm": lambda obj, flat, ep: run_sgm(obj, flat, np.zeros(obj.d), track_f=True),
    "scd": lambda obj, flat, ep: run_scd(obj, flat, np.zeros(obj.d), track_f=True),
    "svrg_dense": lambda obj, flat, ep: run_svrg_dense(obj, ep, np.zeros(obj.d), track_f=True),
    "svrg_sparse": lambda obj, flat, ep: run_svrg_sparse(
        obj, None, ep, np.zeros(obj.d), track_f=True),
    "hogwild": lambda obj, flat, ep: _async(run_hogwild)(
        obj, flat, np.zeros(obj.d), workers=2, track_f=True),
    "ascd": lambda obj, flat, ep: _async(run_ascd)(
        obj, flat, np.zeros(obj.d), workers=2, track_f=True),
    "kromagnon": lambda obj, flat, ep: _async(run_kromagnon)(
        obj, None, ep, np.zeros(obj.d), workers=2, track_f=True),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_divergent_run_stops_at_first_nonfinite_checkpoint(algo):
    obj = ao.least_squares_objective(
        make_ridge_desk(n=30, d=10, nnz=3, scale=0.8, bscale=1.0, seed=4, l2_reg=0.1)
    )
    gamma = 30.0 / obj.constants.L_term  # far past 2 / L_term, with gamma * m < 1
    flat = SolverConfig(gamma=gamma, total_iters=3000, seed=0, log_every=100)
    ep = SolverConfig(gamma=gamma, epoch_size=100, epochs=30, seed=0, log_every=100)
    res = SOLVERS[algo](obj, flat, ep)
    assert res.diverged
    assert 0 < res.iters < 3000
    assert res.trace_iter[-1] == res.iters
    assert not np.isfinite(res.x).all()
