import threading
import time

import numpy as np
import pytest
import scipy.stats

import asyncopt as ao
from asyncopt.engine import (
    FULL_SNAPSHOT,
    AtomicCounter,
    OverlapReport,
    SampleLog,
    SharedIterate,
    measure_speedup,
    overlap_report,
    run_ascd,
    run_hogwild,
    run_kromagnon,
)
from asyncopt.serial import RunResult, SolverConfig, run_scd, run_sgm, run_svrg_sparse


def test_atomic_counter_respects_bound():
    c = AtomicCounter()
    assert c.next(limit=2) == 0
    assert c.next(limit=2) == 1
    assert c.next(limit=2) is None
    # hitting the bound must not consume an index
    assert c.next(limit=3) == 2
    assert c.next() == 3


def test_atomic_counter_thread_safety():
    c = AtomicCounter()
    seen = []
    lock = threading.Lock()

    def grab():
        got = []
        while True:
            j = c.next(limit=5000)
            if j is None:
                break
            got.append(j)
        with lock:
            seen.extend(got)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen) == list(range(5000))


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
    # three samples: [0, 10] overlaps both others, [2, 3] and [5, 6] are
    # disjoint from each other
    log = SampleLog(
        edge=np.zeros(3, dtype=np.int64),
        worker=np.zeros(3, dtype=np.int32),
        t_sample=np.array([0.0, 2.0, 5.0]),
        t_last_write=np.array([10.0, 3.0, 6.0]),
        updates=None,
    )
    rep = overlap_report(log)
    assert rep.tau_observed == 2
    assert rep.histogram.tolist() == [0, 2, 1]


def test_single_worker_has_zero_overlap(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=200, seed=0)
    _, rep = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=1, xstar=xstar)
    assert rep.tau_observed == 0


@pytest.mark.parametrize("mode", ["sparse", "full"])
def test_one_worker_hogwild_matches_serial_sgm(ridge_small, mode):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=400, seed=5)
    serial = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    m = FULL_SNAPSHOT if mode == "full" else ao.SPARSE_INCONSISTENT
    res, _ = run_hogwild(obj, cfg, x0=np.zeros(obj.d), workers=1, mode=m, xstar=xstar)
    np.testing.assert_array_equal(res.x, serial.x)


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


def test_updates_commute_to_final_iterate(ridge_small):
    obj, _ = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=2000, seed=11)
    x0 = np.zeros(obj.d)
    res, rep = run_hogwild(obj, cfg, x0=x0, workers=4, log_updates=True)
    total = x0.copy()
    for idx, deltas in rep.log.updates:
        total[idx] += deltas
    assert np.abs(res.x - total).max() <= 1e-9


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
    out = measure_speedup(runs, target_fraction=0.9)
    # target = 0 + 0.1 * 10 = 1.0; 1-worker reaches it at t=2, 2-worker at t=1
    assert out[1]["time_to_target"] == 2.0
    assert out[2]["speedup"] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        measure_speedup(runs, target_fraction=0.0)


def test_kromagnon_respects_box_constraint():
    from conftest import make_vc_desk

    obj = ao.vertex_cover_objective(make_vc_desk(), box=True)
    cfg = SolverConfig(gamma=1e-4, epoch_size=100, epochs=2, seed=0)
    res, _ = run_kromagnon(obj, obj.weights, cfg, x0=np.full(obj.d, 0.5), workers=2)
    assert res.x.min() >= 0.0 and res.x.max() <= 1.0


def test_multi_worker_run_converges(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.005, total_iters=8000, seed=1)
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
