"""The kernel seam: the serial loop, the threaded driver and the simulator
run the same kernel.

A 1-worker async run and a zero-delay simulation must reproduce their
serial counterpart bit for bit on any shape, and every solver must stop at
its first non-finite checkpoint.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.engine import (FULL_SNAPSHOT, SPARSE_INCONSISTENT, run, run_ascd, run_hogwild,
                             run_kromagnon)
from asyncopt.serial import SOLVERS, SolverConfig, run_scd, run_sgm, run_svrg_sparse, scd
from asyncopt.sim import gen_schedule, simulate

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
                      snapshot_interval=snapshot_interval, log_every=log_every)

    res, _ = run_hogwild(obj, flat, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_sgm(obj, flat, x0, track_f=True))
    res, _ = run_ascd(obj, cd, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_scd(obj, cd, x0, track_f=True))
    res, _ = run_kromagnon(obj, None, ep, x0, workers=1, mode=mode, track_f=True)
    assert_same_run(res, run_svrg_sparse(obj, None, ep, x0, track_f=True))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 80), d=st.integers(1, 30), nnz=st.integers(1, 4),
    algo=st.sampled_from(["sgm", "scd", "svrg_sparse"]),
    data_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
    snapshot_interval=st.integers(1, 2),
)
def test_zero_tau_simulation_equals_serial(n, d, nnz, algo, data_seed, seed, snapshot_interval):
    assume(nnz <= d)
    data = ao.gen_synthetic(ao.SyntheticSpec(n, d, nnz, label_model="linear", seed=data_seed),
                            l2_reg=0.1)
    obj = ao.least_squares_objective(ao.remap_covered(data)[0])
    xstar = ao.solve_reference(obj)
    x0 = np.zeros(obj.d)
    gamma = 0.5 / obj.constants.L_term
    if algo == "svrg_sparse":
        cfg = SolverConfig(gamma=gamma, epoch_size=20, epochs=3, seed=seed,
                           snapshot_interval=snapshot_interval)
        serial = run_svrg_sparse(obj, None, cfg, x0)
    else:
        run = run_sgm if algo == "sgm" else run_scd
        cfg = SolverConfig(gamma=gamma / obj.d if algo == "scd" else gamma, total_iters=60,
                           seed=seed)
        serial = run(obj, cfg, x0)
    trace = simulate(obj, cfg, x0, gen_schedule(60, 0, obj.d, style="none"), algo,
                     xstar=xstar, record_q=False)
    assert np.array_equal(trace.X[-1], serial.x)


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


def test_runs_start_inside_their_bounds(ridge_small):
    # one sample writes at most 3 of the 10 coordinates; the others must not stay at x0
    obj, _ = ridge_small
    x0 = np.ones(obj.d)
    flat = SolverConfig(gamma=0.01, total_iters=1, seed=0, linf=ao.LinfBall(0.05))
    ep = SolverConfig(gamma=0.01, epoch_size=1, epochs=1, seed=0, linf=ao.LinfBall(0.05))
    runs = [run_sgm(obj, flat, x0), run_scd(obj, flat, x0), run_svrg_sparse(obj, None, ep, x0),
            run_hogwild(obj, flat, x0)[0], run_ascd(obj, flat, x0)[0],
            run_kromagnon(obj, None, ep, x0)[0]]
    for res in runs:
        assert np.abs(res.x).max() <= 0.05


def _wrapper(algo, obj, cfg, x0):
    """The named run_* function of the public API, at one worker."""
    fn = getattr(ao, f"run_{algo}")
    weights = (None,) if fn in (ao.run_svrg_sparse, ao.run_kromagnon) else ()
    res = fn(obj, *weights, cfg, x0, track_f=True)
    return res[0] if SOLVERS[algo].threaded else res


@pytest.mark.parametrize("problem", ["linreg", "logreg"])
@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_run_by_name_equals_its_wrapper(algo, problem):
    model = "logistic" if problem == "logreg" else "linear"
    data = ao.gen_synthetic(ao.SyntheticSpec(50, 12, 3, label_model=model, seed=5), l2_reg=0.1)
    data, _ = ao.remap_covered(data)
    obj = (ao.logistic_objective if problem == "logreg" else ao.least_squares_objective)(data)
    gamma = 0.5 / obj.constants.L_term
    if SOLVERS[algo].epochal:
        cfg = SolverConfig(gamma=gamma, epoch_size=20, epochs=3, seed=3, log_every=7)
    else:  # a coordinate step is d times a coordinate of the gradient
        scale = obj.d if SOLVERS[algo].kernel is scd else 1
        cfg = SolverConfig(gamma=gamma / scale, total_iters=60, seed=3, log_every=7)
    x0 = np.zeros(obj.d)
    res, rep = ao.run(obj, algo, cfg, x0, track_f=True)
    assert_same_run(res, _wrapper(algo, obj, cfg, x0))
    assert (rep is None) == (not SOLVERS[algo].threaded)
    if not SOLVERS[algo].threaded:
        with pytest.raises(ValueError, match="workers=1"):
            ao.run(obj, algo, cfg, x0, workers=2)


def test_run_rejects_unknown_name(ridge_small):
    obj, _ = ridge_small
    with pytest.raises(ValueError, match="unknown solver"):
        ao.run(obj, "kromagnn", SolverConfig(gamma=0.01, total_iters=10), np.zeros(obj.d))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_divergent_run_stops_at_first_nonfinite_checkpoint(algo):
    obj = ao.least_squares_objective(
        make_ridge_desk(n=30, d=10, nnz=3, scale=0.8, bscale=1.0, seed=4, l2_reg=0.1)
    )
    gamma = 30.0 / obj.constants.L_term  # far past 2 / L_term, with gamma * m < 1
    if SOLVERS[algo].epochal:
        cfg = SolverConfig(gamma=gamma, epoch_size=100, epochs=30, seed=0, log_every=100)
    else:
        cfg = SolverConfig(gamma=gamma, total_iters=3000, seed=0, log_every=100)
    workers = 2 if SOLVERS[algo].threaded else 1
    res, rep = run(obj, algo, cfg, np.zeros(obj.d), workers, track_f=True)
    if rep is not None:
        assert len(rep.log) == res.iters
    assert res.diverged
    assert 0 < res.iters < 3000
    assert res.trace_iter[-1] == res.iters
    assert not np.isfinite(res.x).all()
