"""The kernel seam: the engine's one worker loop, serial or threaded, and the
simulator run the same kernel.

A 1-worker async run and a zero-delay simulation must reproduce their
serial counterpart bit for bit on any shape, and every solver must stop at
its first non-finite checkpoint.  The native stretch kernels must match the
NumPy path they replace to 1e-12 relative (they sum a_i . x in another
order), and when they cannot be built every run falls back to NumPy.
"""

import os
import shutil
import stat
import subprocess
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt import _stretch, sim
from asyncopt.engine import (FULL_SNAPSHOT, SPARSE_INCONSISTENT, SampleLog, run, run_ascd,
                             run_hogwild, run_kromagnon)
from asyncopt.serial import (SOLVERS, Kernel, SolverConfig, _second_moment, run_scd, run_sgm,
                             run_svrg_sparse, scd, sgm, svrg_dense, svrg_sparse)
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


@pytest.mark.parametrize("problem", ["linreg", "logreg"])
def test_int64_index_arrays_are_narrowed_and_run_natively(problem):
    # an objective of a CSR with int64 index arrays stores A and its CSC as
    # int32, binds every kernel natively, and runs every solver as the
    # objective of the same CSR held in int32 does, bit for bit
    model = "logistic" if problem == "logreg" else "linear"
    data = ao.gen_synthetic(ao.SyntheticSpec(50, 12, 3, label_model=model, seed=5), l2_reg=0.1)
    data, _ = ao.remap_covered(data)
    X = data.X.copy()
    X.indices, X.indptr = X.indices.astype(np.int64), X.indptr.astype(np.int64)
    wide = ao.RegressionDataset(X, data.labels, data.l2_reg)
    assert wide.X.indices.dtype == wide.X.indptr.dtype == np.int64
    make = ao.logistic_objective if problem == "logreg" else ao.least_squares_objective
    obj, ref = make(wide), make(data)
    assert wide.X.indices.dtype == np.int64  # the caller's matrix is left as it is
    for M in (obj.A, obj._Ac):
        assert M.indices.dtype == M.indptr.dtype == np.int32
    y = np.zeros(obj.d)
    gamma = 0.5 / obj.constants.L_term
    for algo, solver in sorted(SOLVERS.items()):
        snap = (y, obj.full_grad(y)) if solver.epochal else ()
        assert solver.kernel(obj, *snap).stretch is not None
        if solver.epochal:
            cfg = SolverConfig(gamma=gamma, epoch_size=20, epochs=3, seed=3, log_every=7)
        else:
            scale = obj.d if solver.kernel is scd else 1
            cfg = SolverConfig(gamma=gamma / scale, total_iters=60, seed=3, log_every=7)
        x0 = np.zeros(obj.d)
        assert_same_run(ao.run(obj, algo, cfg, x0, track_f=True)[0],
                        ao.run(ref, algo, cfg, x0, track_f=True)[0])


def test_narrow_leaves_a_matrix_past_int32_as_it_is():
    # more columns than int32 can index: the index arrays stay int64, and
    # the kernels of such a matrix run their NumPy reference
    M = sp.csr_matrix((np.ones(2), np.array([0, 2**31 + 9]), np.array([0, 1, 2])),
                      shape=(2, 2**31 + 10))
    assert M.indices.dtype == np.int64
    assert _stretch.narrow(M) is M
    assert not _stretch.is_int32(M)


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


def _problem(problem, n, d, nnz, data_seed):
    if problem == "vertexcover":  # its box [0, 1] clamps every write
        nv = max(3, d)
        edges = min(n, nv * (nv - 1) // 2)
        return ao.vertex_cover_objective(make_vc_desk(nv, edges, seed=data_seed), box=True)
    if problem == "ragged":  # logistic over rows of 1 to about 2 nnz entries
        rng = np.random.default_rng(data_seed)
        X = sp.random(n, d, density=nnz / d, random_state=rng, format="csr") + sp.csr_matrix(
            (rng.standard_normal(n), (np.arange(n), rng.integers(d, size=n))), shape=(n, d))
        data = ao.RegressionDataset(X, rng.choice([-1.0, 1.0], size=n), l2_reg=0.1)
        return ao.logistic_objective(ao.remap_covered(data)[0])
    model = "logistic" if problem == "logreg" else "linear"
    data = ao.gen_synthetic(ao.SyntheticSpec(n, d, nnz, label_model=model, seed=data_seed),
                            l2_reg=0.1)
    data, _ = ao.remap_covered(data)
    return (ao.logistic_objective if problem == "logreg" else ao.least_squares_objective)(data)


def _numpy_only(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every kernel on its NumPy path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_stretch, "load", lambda: None)
        return fn(*args, **kwargs)


def _close(native, ref, scale):
    return np.abs(native - ref).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(["linreg", "logreg", "vertexcover", "ragged"]),
    algo=st.sampled_from(["sgm", "scd", "svrg_sparse", "svrg_dense"]), radius=RADII,
    n=st.integers(1, 60), d=st.integers(1, 20), nnz=st.integers(1, 4),
    data_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
)
def test_native_kernels_match_numpy(problem, algo, radius, n, d, nnz, data_seed, seed):
    assume(nnz <= d)
    _check_native_matches_numpy(problem, algo, radius, n, d, nnz, data_seed, seed)


@pytest.mark.parametrize("problem", ["linreg", "logreg", "vertexcover", "ragged"])
@pytest.mark.parametrize("radius", [None, 0.05])
def test_native_scd_matches_numpy(problem, radius):
    # every problem and clamp for SCD, whose C loop walks a column's rows
    # side by side: the ragged rows leave a tail past the shortest row
    _check_native_matches_numpy(problem, "scd", radius, 50, 14, 3, data_seed=2, seed=9)


def _check_native_matches_numpy(problem, algo, radius, n, d, nnz, data_seed, seed):
    obj = _problem(problem, n, d, nnz, data_seed)
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-1.0, 1.0, (2, obj.d))
    factory = SOLVERS[algo].kernel
    snap = (y, obj.full_grad(y)) if SOLVERS[algo].epochal else ()
    native, ref = factory(obj, *snap), _numpy_only(factory, obj, *snap)
    assert native.stretch is not None and ref.stretch is None
    dirs = [(native.direction(s, x), ref.direction(s, x)) for s in range(native.samples)]
    scale = max(float(np.abs(g).max()) for _, (_, g) in dirs)
    for (idx, g), (ref_idx, ref_g) in dirs:
        assert np.array_equal(idx, ref_idx)
        assert _close(g, ref_g, scale)
    # the enumeration: the native moment against the loop over direction,
    # E_s ||g||^2 and the sum of g over every sample
    sums = np.zeros((2, obj.d))
    moments = [_second_moment(k, x, out) for k, out in zip((native, ref), sums)]
    assert _close(moments[0], moments[1], moments[1])
    assert _close(sums[0], sums[1], scale * native.samples)

    # whole runs: the native stretch against the NumPy sampling loop (an SCD
    # step moves its coordinate by gamma * d * grad_v f)
    gamma = 0.5 / obj.constants.L_term / (obj.d if algo == "scd" else 1)
    linf = ao.LinfBall(radius)
    if SOLVERS[algo].epochal:
        cfg = SolverConfig(gamma=gamma, epoch_size=20, epochs=2, seed=seed, linf=linf)
    else:
        cfg = SolverConfig(gamma=gamma, total_iters=40, seed=seed, linf=linf, log_every=7)
    x0 = np.full(obj.d, 0.5) if problem == "vertexcover" else x
    res, _ = run(obj, algo, cfg, x0)
    ref_res, _ = _numpy_only(run, obj, algo, cfg, x0)
    assert _close(res.x, ref_res.x, float(np.abs(ref_res.x).max()))


def _reference_segment(stretch, *args):
    """asyncopt.sim's NumPy segment, with the native kernel's own direction."""
    sim._reference_segment(Kernel(stretch.samples, stretch.direction, stretch=stretch), *args)


def _simulate(problem, algo, tau, style, n, d, nnz, data_seed, seed, snapshot_interval):
    """A function running one simulate (with q) of the drawn setting, and its objective."""
    obj = _problem(problem, n, d, nnz, data_seed)
    rng = np.random.default_rng(seed)
    x0, xstar = rng.uniform(-1.0, 1.0, (2, obj.d))
    gamma = 0.5 / obj.constants.L_term
    if algo == "svrg_sparse":
        cfg = SolverConfig(gamma=gamma, epoch_size=10, epochs=3, seed=seed,
                           snapshot_interval=snapshot_interval)
    else:
        cfg = SolverConfig(gamma=gamma / obj.d if algo == "scd" else gamma, total_iters=30,
                           seed=seed)
    sched = gen_schedule(30, tau, obj.d, seed=seed, style=style)
    return lambda: simulate(obj, cfg, x0, sched, algo, xstar=xstar), obj


TRACE_ROWS = ("X", "Xhat", "U", "epoch_start", "snapshot_a")


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(["linreg", "logreg", "ragged"]),
    algo=st.sampled_from(["sgm", "scd", "svrg_sparse"]), tau=st.integers(0, 5),
    style=st.sampled_from(["none", "random", "adversarial_stale"]),
    n=st.integers(1, 40), d=st.integers(1, 15), nnz=st.integers(1, 4),
    data_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
    snapshot_interval=st.integers(1, 2),
)
def test_native_simulated_segment_equals_the_reference(
    problem, algo, tau, style, n, d, nnz, data_seed, seed, snapshot_interval,
):
    # one C call per epoch gives the bits of the NumPy segment on the same
    # native direction, and the NumPy path's trace to 1e-12
    assume(nnz <= d)
    run_trace, obj = _simulate(problem, algo, tau, style, n, d, nnz, data_seed, seed,
                               snapshot_interval)
    native = run_trace()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_stretch.Stretch, "simulate", _reference_segment)
        ref = run_trace()
    for name in TRACE_ROWS:
        assert getattr(native, name).tobytes() == getattr(ref, name).tobytes(), name
    assert _close(native.q, ref.q, float(np.abs(ref.q).max()))
    numpy = _numpy_only(run_trace)
    for name in TRACE_ROWS + ("q",):
        a, b = getattr(native, name), getattr(numpy, name)
        assert _close(a, b, float(np.abs(b).max(initial=0.0))), name


def test_simulated_segment_without_a_native_form_runs_the_reference(monkeypatch):
    # an objective whose phi has no native form has no stretch, so each epoch
    # runs the NumPy segment; it agrees with the native run of the same phi
    run_trace, obj = _simulate("logreg", "svrg_sparse", 3, "random", 40, 12, 3, data_seed=4,
                               seed=6, snapshot_interval=1)
    native = run_trace()
    monkeypatch.setattr(obj, "_phi_kind", None)
    real, kernels = sim._reference_segment, []

    def spy(kernel, *args):
        kernels.append(kernel)
        return real(kernel, *args)

    monkeypatch.setattr(sim, "_reference_segment", spy)
    ref = run_trace()
    assert len(kernels) == 3 and all(k.stretch is None for k in kernels)
    for name in TRACE_ROWS + ("q",):
        a, b = getattr(native, name), getattr(ref, name)
        assert _close(a, b, float(np.abs(b).max())), name


def test_native_simulation_and_enumeration_make_no_per_sample_call(monkeypatch, ridge_small):
    # with the build loaded, a simulated epoch (q included) and each
    # enumeration is one C call: no step or sample goes through direction
    obj, xstar = ridge_small

    def per_sample_call(*args):
        raise AssertionError("a per-sample call of the one-sample direction")

    monkeypatch.setattr(_stretch.Stretch, "direction", per_sample_call)
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1.0, 1.0, (2, obj.d))
    for algo, cfg in (("sgm", SolverConfig(gamma=0.02, total_iters=20, seed=1)),
                      ("scd", SolverConfig(gamma=0.002, total_iters=20, seed=1)),
                      ("svrg_sparse", SolverConfig(gamma=0.02, epoch_size=10, epochs=2, seed=1))):
        sched = gen_schedule(20, 2, obj.d, seed=1, style="random")
        assert simulate(obj, cfg, x, sched, algo, xstar=xstar).q.all()
        ao.enumerated_mean_direction(obj, x, algo, y=y)
    ao.svrg_variance_check(obj, obj.weights, x, y, xstar=xstar)


@pytest.mark.parametrize("problem", ["linreg", "logreg"])
@pytest.mark.parametrize("radius", [None, 0.05])
def test_deferred_dense_step_equals_a_pass_per_sample(problem, radius):
    # at d >= 4096 the native dense SVRG stretch defers its O(d) step over
    # blocks of samples; the bits must be those of one pass after every sample
    obj = _problem(problem, 3_000, 4_500, 5, data_seed=1)
    assert obj.d >= 4_096
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.0, 1.0, (2, obj.d))
    kernel = svrg_dense(obj, y, obj.full_grad(y))
    gamma = 0.5 / obj.constants.L_term
    dense_step = -gamma * kernel.dense
    lo, hi = (None, None) if radius is None else (-radius, radius)
    if lo is not None:
        np.clip(x, lo, hi, out=x)
    ref = x.copy()
    for draws in (rng.integers(obj.n, size=37), rng.integers(obj.n, size=100)):
        kernel.stretch(x, draws, gamma, lo, hi, dense_step)
        for s in draws.tolist():  # a serial solver's update, without a stretch
            idx, g = kernel.direction(s, ref)
            ref[idx] += -gamma * g
            ref += dense_step
            if lo is not None:
                np.clip(ref, lo, hi, out=ref)
        assert np.array_equal(x, ref)
    if radius is not None:
        # the clamp was exercised: coordinates held at a bound the step points past
        assert ((x == hi) & (dense_step > 0)).any() and ((x == lo) & (dense_step < 0)).any()


@pytest.mark.parametrize("problem", ["logreg", "vertexcover"])
def test_buffered_coordinate_reads_equal_in_place_reads(problem):
    # with other workers writing, an SCD step loads each value of its read set
    # once into a private buffer; with no writes in between, that is the
    # in-place read of a lone worker, bit for bit
    obj = _problem(problem, 60, 12, 3, data_seed=5)
    kernel = scd(obj)
    rng = np.random.default_rng(1)
    draws = rng.integers(obj.d, size=300)
    gamma = 0.5 / obj.constants.L_term / obj.d
    lo, hi = obj.box if obj.box is not None else (None, None)
    x = np.full(obj.d, 0.5) if problem == "vertexcover" else rng.uniform(-1.0, 1.0, obj.d)
    ref = x.copy()
    kernel.stretch(ref, draws, gamma, lo, hi)
    log = SampleLog.empty(draws.size, log_updates=True)
    sync = _stretch.Sync(np.zeros(1, dtype=np.int64), draws.size, 0, True, log)
    assert kernel.stretch(x, draws, gamma, lo, hi, sync=sync) == draws.size
    assert np.array_equal(x, ref)
    assert np.array_equal(log.edge, draws)
    assert [idx.tolist() for idx, _ in log.updates] == [[v] for v in draws.tolist()]


def test_native_build_failure_falls_back_with_one_notice(monkeypatch, capsys, ridge_small):
    def broken():
        raise OSError("gcc failed: no compiler here")

    monkeypatch.setattr(_stretch, "_build", broken)
    monkeypatch.setattr(_stretch, "_tried", False)
    monkeypatch.setattr(_stretch, "_lib", None)
    obj, _ = ridge_small
    x0 = np.zeros(obj.d)
    flat = SolverConfig(gamma=0.02, total_iters=300, seed=2, log_every=70)
    ep = SolverConfig(gamma=0.02, epoch_size=100, epochs=3, seed=2, linf=ao.LinfBall(0.05))
    res, _ = run_hogwild(obj, flat, x0, workers=1, track_f=True)
    assert_same_run(res, run_sgm(obj, flat, x0, track_f=True))
    res, _ = run_kromagnon(obj, None, ep, x0, workers=1, track_f=True)
    assert_same_run(res, run_svrg_sparse(obj, None, ep, x0, track_f=True))
    res, _ = run_ascd(obj, flat, x0, workers=1, track_f=True)
    assert_same_run(res, run_scd(obj, flat, x0, track_f=True))
    assert all(k.stretch is None for k in (sgm(obj), scd(obj), svrg_sparse(obj, x0, x0),
                                           svrg_dense(obj, x0, x0)))
    err = capsys.readouterr().err
    assert err.count("asyncopt: native stretch kernels unavailable") == 1
    assert "(gcc failed: no compiler here); running the NumPy path" in err


@pytest.mark.skipif(shutil.which(_stretch._CC) is None, reason="no C compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    # flags what a change leaves behind, such as a variable or a (non-inline)
    # helper no longer used; -fsyntax-only would stop before the unused-function check.
    # The build's own flags add the warnings only the optimiser finds.
    for flags in (("-O0", "-c"), _stretch._FLAGS):
        proc = subprocess.run([_stretch._CC, *flags, "-Wall", "-Wextra", "-Werror", "-o",
                               str(tmp_path / "warnings.o"), _stretch._SRC],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (flags, proc.stderr)


@pytest.fixture
def fresh_loader(monkeypatch):
    """The native loader as at the start of a process: nothing tried, nothing loaded."""
    monkeypatch.setattr(_stretch, "_tried", False)
    monkeypatch.setattr(_stretch, "_lib", None)
    return monkeypatch


def _build_name():
    return os.path.basename(_stretch._build())


def test_native_build_is_never_loaded_from_a_shared_directory(fresh_loader, capsys, tmp_path):
    # a directory every user can write, holding a file under the build's name:
    # it is neither loaded nor written, and the NumPy path runs
    shared = tmp_path / "shared"
    shared.mkdir()
    planted = shared / _build_name()
    planted.write_bytes(b"not a library")
    shared.chmod(0o777)
    opened = []
    fresh_loader.setattr(_stretch, "_cache_dirs", lambda: [str(shared)])
    fresh_loader.setattr(_stretch.ctypes, "CDLL", lambda path: opened.append(path))
    assert _stretch.load() is None
    assert opened == []
    assert planted.read_bytes() == b"not a library"
    assert "no cache directory that only this user can write" in capsys.readouterr().err


def test_native_build_skips_a_read_only_cache(monkeypatch, tmp_path):
    # the first cache cannot be written (root may write a 0o555 directory, so
    # os.access says so for every user), the second cannot be made, and the
    # build goes to the third; a file there that others may write is rebuilt
    read_only, blocked, private = tmp_path / "ro", tmp_path / "file" / "cache", tmp_path / "own"
    read_only.mkdir(mode=0o555)
    (tmp_path / "file").write_text("")
    private.mkdir(mode=0o700)
    stale = private / _build_name()
    stale.write_bytes(b"writable by all")
    stale.chmod(0o666)
    real_access = os.access
    monkeypatch.setattr(_stretch.os, "access",
                        lambda p, mode: p != str(read_only) and real_access(p, mode))
    monkeypatch.setattr(_stretch, "_cache_dirs",
                        lambda: [str(read_only), str(blocked), str(private)])
    assert _stretch._build() == str(stale)
    assert list(read_only.iterdir()) == [] and not blocked.exists()
    assert stale.read_bytes().startswith(b"\x7fELF")
    assert stat.S_IMODE(stale.stat().st_mode) == 0o644


def test_new_build_prunes_this_users_older_builds_in_the_own_cache(monkeypatch, tmp_path):
    # a build into the first cache removes this user's other _stretch-*.so
    # there, but not another user's, one that cannot be removed, a build still
    # being written (.so.tmp) or any other file; a build into a later (shared)
    # cache removes nothing
    own, shared = tmp_path / "own", tmp_path / "shared"
    own.mkdir(mode=0o700)
    shared.mkdir(mode=0o700)
    names = ["_stretch-0000000000000001.so", "_stretch-0000000000000002.so",
             "_stretch-foreign.so", "_stretch-locked.so", "_stretch-x.so.tmp", "notes.txt"]
    for cache in (own, shared):
        for name in names:
            (cache / name).write_bytes(b"old")
    real_stat, real_unlink = os.stat, os.unlink

    def stat_as(path, *args, **kwargs):
        st = real_stat(path, *args, **kwargs)
        if str(path).endswith("_stretch-foreign.so"):  # another user's build
            return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink,
                                   st.st_uid + 1, *st[5:10]))
        return st

    def unlink(path, *args, **kwargs):
        if str(path).endswith("_stretch-locked.so"):
            raise PermissionError(path)
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(_stretch.os, "stat", stat_as)
    monkeypatch.setattr(_stretch.os, "unlink", unlink)
    monkeypatch.setattr(_stretch, "_compile", lambda path: open(path, "wb").close())
    monkeypatch.setattr(_stretch, "_cache_dirs", lambda: [str(own), str(shared)])
    built = _stretch._build()
    assert os.path.dirname(built) == str(own)
    left = {"_stretch-foreign.so", "_stretch-locked.so", "_stretch-x.so.tmp", "notes.txt"}
    assert {p.name for p in own.iterdir()} == left | {os.path.basename(built)}

    own.chmod(0o777)  # others may write it: the build goes to the shared cache
    built = _stretch._build()
    assert os.path.dirname(built) == str(shared)
    assert {p.name for p in shared.iterdir()} == set(names) | {os.path.basename(built)}


def test_first_run_clock_excludes_the_native_build(fresh_loader, ridge_small):
    # a build that takes 0.5 s, at the first run of a process, is setup
    real_build = _stretch._build

    def slow_build():
        time.sleep(0.5)
        return real_build()

    fresh_loader.setattr(_stretch, "_build", slow_build)
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=200, seed=3, log_every=50)
    for first_run in (lambda: run_sgm(obj, cfg, np.zeros(obj.d)),
                      lambda: run_hogwild(obj, cfg, np.zeros(obj.d), workers=1)[0]):
        fresh_loader.setattr(_stretch, "_tried", False)
        res = first_run()
        assert _stretch._lib is not None
        assert res.trace_wall[-1] < 0.5, res.trace_wall
