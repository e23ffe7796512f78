import itertools
import sys
import threading
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.engine import (
    FULL_SNAPSHOT,
    OverlapReport,
    SampleLog,
    SharedIterate,
    measure_speedup,
    run_ascd,
    run_hogwild,
    run_kromagnon,
)
from asyncopt.serial import (
    RunResult,
    SolverConfig,
    run_scd,
    run_sgm,
    run_svrg_dense,
    run_svrg_sparse,
)


def test_shared_iterate_clamps_and_reports_applied_delta():
    s = SharedIterate(np.array([0.9, 0.0]))
    applied = s.add_clamped(np.array([0, 1]), np.array([0.5, -2.0]), lo=-1.0, hi=1.0)
    # coordinate 0 is clamped at 1.0, so only 0.1 was applied
    np.testing.assert_allclose(applied, [0.1, -1.0])
    np.testing.assert_allclose(s.x, [1.0, -1.0])


def test_shared_iterate_no_lost_updates():
    # exactly representable integer increments: with an indivisible
    # read-modify-write no update can be lost, so the final value is exact
    s = SharedIterate(np.zeros(2))
    per_thread = 20000
    idx = np.array([0, 1])
    delta = np.array([1.0, -1.0])

    def hammer():
        for _ in range(per_thread):
            s.add_clamped(idx, delta, None, None)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert s.x.tolist() == [4 * per_thread, -4 * per_thread]


def test_overlap_report_counts_open_interval_overlaps():
    # three samples in counter order: sample 0's write lands once the counter
    # reads 3, so it overlaps both others; sample 1's lands at 2, before
    # sample 2 starts, so those two do not overlap
    log = SampleLog(
        edge=np.zeros(3, dtype=np.int64),
        worker=np.zeros(3, dtype=np.int32),
        end=np.array([3, 2, 3]),
        updates=None,
    )
    rep = OverlapReport(log)
    assert rep.tau_observed == 2
    assert rep.histogram.tolist() == [0, 2, 1]


@settings(max_examples=100, deadline=None)
@given(workers=st.integers(1, 4), total=st.integers(0, 40),
       picks=st.lists(st.integers(0, 3), max_size=200))
def test_overlap_report_equals_a_pairwise_count(workers, total, picks):
    # each step, the picked worker (worker 0 once picks run out) takes the
    # counter's next index or lands the write of the sample it holds, and
    # end[j] is the counter as j's write lands; sample k overlaps j when
    # k < end[j] and j < end[k]
    counter, held, end = 0, [None] * workers, np.zeros(total, dtype=np.int64)
    for w in itertools.chain(picks, itertools.repeat(0)):
        if counter == total and held == [None] * workers:
            break
        w %= workers
        if held[w] is None and counter == total:  # w has nothing left to do
            w = next(v for v in range(workers) if held[v] is not None)
        if held[w] is None:
            held[w], counter = counter, counter + 1
        else:
            end[held[w]], held[w] = counter, None
    log = SampleLog(np.zeros(total, dtype=np.int64), np.zeros(total, dtype=np.int32), end,
                    None)
    pairwise = [sum(k != j and k < end[j] and j < end[k] for k in range(total))
                for j in range(total)]
    assert OverlapReport(log).histogram.tolist() == np.bincount(pairwise,
                                                                minlength=1).tolist()


def test_overlap_report_sorts_only_when_read(ridge_small, monkeypatch):
    # the report of a threaded run is computed at its first read, not at the run's end
    sorts = []
    real_sort = np.sort

    def counting_sort(a, *args, **kwargs):
        sorts.append(len(a))
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=500, seed=3)
    _, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=2, log_updates=False)
    assert sorts == []
    assert rep.tau_observed == rep.histogram.size - 1 and rep.histogram.sum() == 500
    assert sorts == [500]
    rep.histogram, rep.tau_observed  # computed once
    assert len(sorts) == 1


def test_single_worker_has_zero_overlap(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=200, seed=0)
    _, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=1, xstar=xstar)
    assert rep.tau_observed == 0


def _check_ends(log, workers):
    """Each sample's end lies past its own index and within the workers'
    takes past the limit, and rises from sample to sample of one worker."""
    j = np.arange(len(log))
    assert ((log.end > j) & (log.end <= len(log) + workers)).all()
    for w in range(workers):
        assert (np.diff(log.end[log.worker == w]) > 0).all()


@pytest.mark.parametrize("native", [True, False], ids=["native", "reference"])
def test_lone_worker_logs_no_overlap_between_chunks(ridge_small, monkeypatch,
                                                    native_worker_calls, native):
    # chunks of 7 draws: the interpreter's work between two stretch calls of a
    # lone worker is no overlap, so each sample ends where the next begins
    from asyncopt import engine

    monkeypatch.setattr(engine, "CHUNK", 7)
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=100, seed=3)
    mode = ao.SPARSE_INCONSISTENT if native else FULL_SNAPSHOT
    _, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=1, mode=mode)
    assert len(native_worker_calls) == (1 if native else 0)
    assert rep.log.end.tolist() == list(range(1, 101))
    assert rep.histogram.tolist() == [100]


@pytest.mark.parametrize("native", [True, False], ids=["native", "reference"])
@pytest.mark.parametrize("workers", [2, 4])
def test_worker_ends_follow_the_counter(ridge_small, native_worker_calls, workers, native):
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=3000, seed=9)
    mode = ao.SPARSE_INCONSISTENT if native else FULL_SNAPSHOT
    res, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=workers, mode=mode,
                           log_updates=False)
    assert len(native_worker_calls) == (workers if native else 0)
    assert res.iters == len(rep.log) == 3000
    _check_ends(rep.log, workers)


@pytest.mark.parametrize("mode", ["sparse", "full"])
def test_one_worker_hogwild_matches_serial_sgm(ridge_small, mode):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=400, seed=5)
    serial = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    m = FULL_SNAPSHOT if mode == "full" else ao.SPARSE_INCONSISTENT
    res, _ = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=1, mode=m, xstar=xstar)
    np.testing.assert_array_equal(res.x, serial.x)


def test_serial_solver_ignores_the_snapshot_mode(ridge_small, native_worker_calls):
    # the full_consistent_snapshot read is a threaded solver's: a serial one
    # keeps its stretch, native when the build loads, and its bits
    from asyncopt import _stretch, engine

    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=400, seed=5)
    x0 = np.zeros(obj.d)
    default, rep = engine.run(obj, "sgm", cfg, x0)
    full, full_rep = engine.run(obj, "sgm", cfg, x0, mode=FULL_SNAPSHOT)
    assert rep is None and full_rep is None
    assert len(native_worker_calls) == (0 if _stretch.load() is None else 2)
    np.testing.assert_array_equal(full.x, default.x)


def test_one_worker_ascd_matches_serial_scd(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.01, total_iters=400, seed=6)
    serial = run_scd(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    res, _ = run_ascd(obj, cfg, x0=np.zeros(obj.d), workers=1, xstar=xstar)
    np.testing.assert_array_equal(res.x, serial.x)


def test_one_worker_kromagnon_matches_serial_sparse_svrg(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.01, epoch_size=60, epochs=4, seed=7)
    serial = run_svrg_sparse(obj, obj.weights, cfg, x0=np.zeros(obj.d), xstar=xstar)
    res, _ = run_kromagnon(
        obj, obj.weights, cfg, x0=np.zeros(obj.d), workers=1, xstar=xstar
    )
    np.testing.assert_array_equal(res.x, serial.x)


def test_updates_commute_to_final_iterate(ridge_small, native_worker_calls):
    # four native workers on compare-and-swap adds: a lost update would leave
    # x away from x0 plus the sum of the logged deltas
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=2000, seed=11)
    x0 = np.zeros(obj.d)
    res, rep = run_hogwild(obj, cfg, x0=x0, workers=4, log_updates=True)
    assert len(native_worker_calls) == 4  # one segment, four workers
    total = x0.copy()
    for idx, deltas in rep.log.updates:
        total[idx] += deltas
    assert np.abs(res.x - total).max() <= 1e-9


def test_ascd_updates_commute_to_final_iterate(ridge_small, native_worker_calls):
    # four native ASCD workers: each coordinate step reads its read set once
    # into a private buffer and writes by compare-and-swap
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.005, total_iters=2000, seed=12)
    x0 = np.zeros(obj.d)
    res, rep = run_ascd(obj, cfg, x0=x0, workers=4, log_updates=True)
    assert len(native_worker_calls) == 4  # one segment, four workers
    total = x0.copy()
    for (idx, deltas), v in zip(rep.log.updates, rep.log.edge):
        assert idx.tolist() == [v] and deltas.shape == (1,)
        total[idx] += deltas
    assert np.abs(res.x - total).max() <= 1e-9


@pytest.fixture
def frequent_switches():
    """Hand the interpreter lock between threads every microsecond, so that a
    Python read-modify-write left unguarded is interrupted often."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


@pytest.mark.parametrize("native", [True, False], ids=["built", "unbuilt"])
@pytest.mark.parametrize("mode", [ao.SPARSE_INCONSISTENT, FULL_SNAPSHOT])
@pytest.mark.parametrize("algo", ["hogwild", "ascd"])
def test_four_numpy_workers_log_each_sample_once(ridge_small, monkeypatch, native_worker_calls,
                                                 frequent_switches, algo, mode, native):
    # four workers on the NumPy reference stretch (the snapshot read mode, or
    # no native build): each sample index is taken under the counter lock and
    # each write under its stripe lock, so every j is logged once and the
    # logged updates sum to x
    from asyncopt import _stretch, engine

    if not native:
        monkeypatch.setattr(_stretch, "load", lambda: None)
    taken = []
    real_defer = engine.SampleLog.defer_updates

    def spy(log, js, unpack):
        taken.append(js.copy())
        return real_defer(log, js, unpack)

    monkeypatch.setattr(engine.SampleLog, "defer_updates", spy)
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02 if algo == "hogwild" else 0.005, total_iters=3000, seed=14)
    x0 = np.zeros(obj.d)
    res, rep = engine.run(obj, algo, cfg, x0, workers=4, mode=mode, log_updates=True)
    native_path = native and mode == ao.SPARSE_INCONSISTENT
    assert len(native_worker_calls) == (4 if native_path else 0)
    log = rep.log
    assert res.iters == len(log) == 3000
    assert np.array_equal(np.sort(np.concatenate(taken)), np.arange(res.iters))
    assert ((log.worker >= 0) & (log.worker < 4)).all()
    _check_ends(log, 4)
    total = x0.copy()
    for idx, deltas in log.updates:
        total[idx] += deltas
    assert np.abs(res.x - total).max() <= 1e-12


def test_snapshot_read_sees_no_write_half_done():
    # NumPy copies a large vector outside the interpreter lock; a writer that
    # keeps x[0] - x[-1] in {0, 1} between its adds must not be caught between
    # them by the full_consistent_snapshot read
    from asyncopt.serial import _snapshot, add_clamped

    x = np.zeros(200_000)
    stop = threading.Event()

    def write():
        while not stop.is_set():
            add_clamped(x, np.array([0]), np.array([1.0]), None, None)
            add_clamped(x, np.array([x.size - 1]), np.array([1.0]), None, None)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        gaps = [c[0] - c[-1] for c in (_snapshot(x) for _ in range(200))]
    finally:
        stop.set()
        writer.join()
    assert x[0] > 0 and all(0.0 <= gap <= 1.0 for gap in gaps)


def test_logged_updates_stop_at_the_last_checkpoint(native_worker_calls):
    # a diverged run keeps the log of its finite checkpoints only, updates too
    from conftest import make_ridge_desk

    obj = ao.least_squares_objective(
        make_ridge_desk(n=30, d=10, nnz=3, scale=0.8, bscale=1.0, seed=4, l2_reg=0.1)
    )
    cfg = SolverConfig(gamma=30.0 / obj.constants.L_term, total_iters=3000, seed=0,
                       log_every=100)
    res, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=2)
    assert native_worker_calls and res.diverged and 0 < res.iters < 3000
    assert len(rep.log.updates) == res.iters
    assert all(idx.tolist() == obj.term_support(i).tolist()
               for (idx, _), i in zip(rep.log.updates, rep.log.edge))


def test_worker_zero_runs_on_the_calling_thread(ridge_small, monkeypatch):
    # a lone worker starts no thread, and a serial solver is a lone worker
    # with no Sync; with three workers, two threads per segment
    from asyncopt import engine

    started, ran_on = [], []
    real_thread, real_worker = threading.Thread, engine._stretch_worker

    def counting_thread(*args, **kwargs):
        th = real_thread(*args, **kwargs)
        started.append(th)
        return th

    def spy(kernel, gamma, x, lo, hi, count, rng, sync=None):
        ran_on.append((None if sync is None else sync.wid, threading.get_ident()))
        return real_worker(kernel, gamma, x, lo, hi, count, rng, sync)

    monkeypatch.setattr(engine.threading, "Thread", counting_thread)
    monkeypatch.setattr(engine, "_stretch_worker", spy)
    obj, _ = ridge_small
    x0 = np.zeros(obj.d)
    epochs = SolverConfig(gamma=0.01, epoch_size=60, epochs=3, seed=7)
    run_kromagnon(obj, obj.weights, epochs, x0=x0, workers=1)
    assert not started
    assert ran_on == [(0, threading.get_ident())] * 3
    for solve, cfg, segments in ((run_sgm, SolverConfig(gamma=0.02, total_iters=600, seed=1), 1),
                                 (run_svrg_dense, epochs, 3)):
        ran_on.clear()
        solve(obj, cfg, x0=x0)
        assert not started
        assert ran_on == [(None, threading.get_ident())] * segments
    ran_on.clear()
    run_hogwild(obj, SolverConfig(gamma=0.02, total_iters=600, seed=1), x0=x0, workers=3)
    assert len(started) == 2
    assert (0, threading.get_ident()) in ran_on
    assert sorted(wid for wid, _ in ran_on) == [0, 1, 2]


def test_sampling_is_uniform_chi_square(monkeypatch):
    # 4-term instance; pooled edge draws across many short runs must be
    # consistent with the uniform distribution
    import scipy.sparse as sp

    X = sp.csr_matrix(np.eye(4))
    data = ao.RegressionDataset(X=X, labels=np.zeros(4), l2_reg=0.1)
    obj = ao.least_squares_objective(data)
    counts = np.zeros(4, dtype=np.int64)
    runs = 2500
    for seed in range(runs):
        cfg = SolverConfig(gamma=0.01, total_iters=4, seed=seed)
        _, rep = run_hogwild(obj, cfg, x0=np.zeros(4), workers=1, log_updates=False)
        np.add.at(counts, rep.log.edge, 1)
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.01


def test_measure_speedup_arithmetic():
    def fake(f, wall):
        return RunResult(
            x=np.zeros(1), iters=10, gamma=0.1, seed=0,
            trace_iter=np.arange(len(f)),
            trace_a=None, trace_f=np.asarray(f, dtype=float),
            trace_wall=np.asarray(wall, dtype=float),
        )

    runs = {
        1: fake([10.0, 5.0, 1.0, 0.0], [0.0, 1.0, 2.0, 4.0]),
        2: fake([10.0, 1.0, 0.0], [0.0, 1.0, 2.0]),
    }
    out = measure_speedup(runs, 10.0, target_fraction=0.9)
    # target = 0 + 0.1 * 10 = 1.0; 1-worker reaches it at t=2, 2-worker at t=1
    assert out[1]["time_to_target"] == 2.0
    assert out[2]["speedup"] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        measure_speedup(runs, 10.0, target_fraction=0.0)


def test_measure_speedup_without_one_worker_progress():
    # the 1-worker run never improves on its start, so its time is 0 and no
    # speedup is defined, as bench.summarize reports it
    def fake(f):
        return RunResult(x=np.zeros(1), iters=1, gamma=0.1, seed=0, trace_iter=np.arange(2),
                         trace_a=None, trace_f=np.asarray(f), trace_wall=np.array([0.0, 1.0]))

    out = measure_speedup({1: fake([1.0, 2.0]), 2: fake([1.0, 0.5])}, 1.0, 0.999)
    assert out[1] == {"time_to_target": 0.0, "speedup": None}
    assert out[2] == {"time_to_target": 1.0, "speedup": None}


def test_kromagnon_respects_box_constraint():
    from conftest import make_vc_desk

    obj = ao.vertex_cover_objective(make_vc_desk(), box=True)
    cfg = SolverConfig(gamma=1e-4, epoch_size=100, epochs=2, seed=0)
    res, _ = run_kromagnon(obj, obj.weights, cfg, x0=np.full(obj.d, 0.5), workers=2)
    assert res.x.min() >= 0.0 and res.x.max() <= 1.0


def test_multi_worker_run_converges(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.0025, total_iters=16000, seed=1)
    res, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=4, xstar=xstar)
    a_final = float((res.x - xstar) @ (res.x - xstar))
    assert a_final < 0.1 * float(xstar @ xstar)
    assert not res.diverged


def test_kromagnon_clock_includes_first_snapshot(ridge_small, monkeypatch):
    obj, _ = ridge_small
    full_grad = obj.full_grad

    def slow_full_grad(x):
        time.sleep(0.05)
        return full_grad(x)

    monkeypatch.setattr(obj, "full_grad", slow_full_grad)
    cfg = SolverConfig(gamma=0.01, epoch_size=30, epochs=1, seed=0)
    res, _ = run_kromagnon(obj, obj.weights, cfg, x0=np.zeros(obj.d), workers=1)
    assert res.trace_wall[0] >= 0.05
