import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.serial import SolverConfig, run_scd, run_sgm, run_svrg_sparse
from asyncopt.sim import (
    DelaySchedule,
    check_ascd_windows,
    check_recursion,
    check_step_identity,
    check_strong_convexity_step,
    check_svrg_variance_window,
    gen_schedule,
    simulate,
    window_indices,
)


def test_gen_schedule_styles():
    s = gen_schedule(10, 2, 3, style="none")
    assert not s.missing.any()
    s = gen_schedule(10, 2, 3, style="adversarial_stale")
    # every in-window earlier write is missing, but nothing before sample 0
    assert s.missing[5].all()
    assert not s.missing[0].any()
    assert s.missing[1, 0].all() and not s.missing[1, 1].any()
    a = gen_schedule(10, 2, 3, seed=1, style="random")
    b = gen_schedule(10, 2, 3, seed=1, style="random")
    np.testing.assert_array_equal(a.missing, b.missing)
    c = gen_schedule(10, 2, 3, seed=2, style="random")
    assert not np.array_equal(a.missing, c.missing)
    with pytest.raises(ValueError):
        gen_schedule(10, -1, 3)
    with pytest.raises(ValueError):
        gen_schedule(10, 1, 3, style="nope")


def test_schedule_mask_must_be_bool(ridge_small):
    # an integer 0/1 mask would index the read by position instead of
    # selecting coordinates, and give wrong reads without an error
    obj, xstar = ridge_small
    sched = gen_schedule(40, 3, obj.d, seed=5, style="random")
    for dtype in (np.int64, np.uint8, np.float64):
        with pytest.raises(ValueError, match=f"must be bool, got dtype {np.dtype(dtype)}"):
            DelaySchedule(40, 3, obj.d, sched.missing.astype(dtype))
    # a strided bool mask is kept as a contiguous copy and gives the same trace
    wide = np.zeros((40, 3, 2 * obj.d), dtype=bool)
    wide[:, :, ::2] = sched.missing
    strided = DelaySchedule(40, 3, obj.d, wide[:, :, ::2])
    assert strided.missing.flags.c_contiguous
    cfg = SolverConfig(gamma=0.03, total_iters=40, seed=2)
    a, b = (simulate(obj, cfg, np.zeros(obj.d), sc, "sgm", xstar=xstar, record_q=False)
            for sc in (sched, strided))
    assert a.Xhat.tobytes() == b.Xhat.tobytes() and a.X.tobytes() == b.X.tobytes()


def test_window_indices():
    w = window_indices(j=10, r=2, tau=3, hi=100)
    assert w.tolist() == list(range(4, 17))
    assert w.size <= 2 * 2 * 3 + 1
    w = window_indices(j=1, r=2, tau=3, hi=4)
    assert w.tolist() == [0, 1, 2, 3]


def test_zero_tau_matches_serial(ridge_small):
    obj, xstar = ridge_small
    T = 150
    sched = gen_schedule(T, 0, obj.d, style="none")
    cfg = SolverConfig(gamma=0.02, total_iters=T, seed=3)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar, record_q=False)
    serial = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    np.testing.assert_array_equal(tr.X[-1], serial.x)
    # with no deviations the read equals the fake iterate
    assert tr.r1.max() == 0.0

    cfg2 = SolverConfig(gamma=0.01, total_iters=T, seed=3)
    tr2 = simulate(obj, cfg2, np.zeros(obj.d), sched, "scd", xstar=xstar, record_q=False)
    serial2 = run_scd(obj, cfg2, x0=np.zeros(obj.d), xstar=xstar)
    np.testing.assert_array_equal(tr2.X[-1], serial2.x)

    cfg3 = SolverConfig(gamma=0.01, epoch_size=50, epochs=3, seed=3)
    tr3 = simulate(
        obj, cfg3, np.zeros(obj.d), sched, "svrg_sparse", xstar=xstar, record_q=False
    )
    serial3 = run_svrg_sparse(obj, obj.weights, cfg3, x0=np.zeros(obj.d), xstar=xstar)
    np.testing.assert_array_equal(tr3.X[-1], serial3.x)


def test_step_identity_all_algos(ridge_small):
    obj, xstar = ridge_small
    T = 100
    for algo, cfg in [
        ("sgm", SolverConfig(gamma=0.02, total_iters=T, seed=0)),
        ("scd", SolverConfig(gamma=0.01, total_iters=T, seed=0)),
        ("svrg_sparse", SolverConfig(gamma=0.01, epoch_size=50, epochs=2, seed=0)),
    ]:
        sched = gen_schedule(T, 2, obj.d, seed=4, style="random")
        tr = simulate(obj, cfg, np.zeros(obj.d), sched, algo, xstar=xstar, record_q=False)
        rep = check_step_identity(tr)
        assert rep["ok"], (algo, rep)


def test_adversarial_schedule_misses_whole_window(ridge_small):
    obj, xstar = ridge_small
    T = 30
    tau = 2
    sched = gen_schedule(T, tau, obj.d, style="adversarial_stale")
    cfg = SolverConfig(gamma=0.05, total_iters=T, seed=1)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar, record_q=False)
    for j in range(tau, T):
        # xhat_j must equal x_j with updates j-1 and j-2 added back
        expect = tr.X[j] + tr.gamma * (tr.U[j - 1] + tr.U[j - 2])
        np.testing.assert_allclose(tr.Xhat[j], expect, atol=1e-15)


def test_reconstruct_mismatch(ridge_small):
    # xhat_j - x_j is gamma times the logged updates that the schedule hides
    # from read j, within the window and the current epoch
    obj, xstar = ridge_small
    T = 60
    sched = gen_schedule(T, 3, obj.d, seed=9, style="random")
    cfg = SolverConfig(gamma=0.03, total_iters=T, seed=2)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar, record_q=False)
    for j in (0, 1, 5, 30, 59):
        rebuilt = np.zeros(obj.d)
        for lag in range(1, min(sched.tau, j) + 1):
            if j - lag < tr.epoch_start[j]:
                break
            mask = sched.missing[j, lag - 1]
            rebuilt[mask] += tr.gamma * tr.U[j - lag][mask]
        np.testing.assert_allclose(rebuilt, tr.Xhat[j] - tr.X[j], atol=1e-12)


def test_svrg_snapshot_at_optimum_stays_put(ridge_small):
    obj, xstar = ridge_small
    T = 40
    sched = gen_schedule(T, 2, obj.d, seed=0, style="random")
    cfg = SolverConfig(gamma=0.02, epoch_size=20, epochs=2, seed=0)
    tr = simulate(obj, cfg, xstar.copy(), sched, "svrg_sparse", xstar=xstar)
    # x* is a floating-point root of the gradient, so directions are at
    # rounding level rather than exactly zero
    assert np.abs(tr.U).max() < 1e-12
    assert tr.a.max() < 1e-24


def test_staleness_does_not_cross_epoch_barrier(ridge_small):
    obj, xstar = ridge_small
    S = 10
    T = 2 * S
    sched = gen_schedule(T, 5, obj.d, style="adversarial_stale")
    cfg = SolverConfig(gamma=0.02, epoch_size=S, epochs=2, seed=1)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "svrg_sparse", xstar=xstar,
                  record_q=False)
    # the first sample of epoch 1 sees no deviations at all
    np.testing.assert_array_equal(tr.Xhat[S], tr.X[S])
    assert tr.epoch_start[S:].tolist() == [S] * S


def test_recursion_requires_distinct_seeds(ridge_small):
    obj, xstar = ridge_small
    T = 20
    sched = gen_schedule(T, 1, obj.d, seed=0, style="random")
    cfg = SolverConfig(gamma=0.02, total_iters=T, seed=0)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar, record_q=False)
    with pytest.raises(ValueError):
        check_recursion([tr] * 5, obj.constants)
    with pytest.raises(ValueError):
        check_recursion([tr], obj.constants)


def test_recursion_and_strong_convexity(ridge_small):
    obj, xstar = ridge_small
    T = 80
    cfg0 = SolverConfig(gamma=0.02, total_iters=T, seed=0)
    traces = []
    for seed in range(20):
        sched = gen_schedule(T, 2, obj.d, seed=100 + seed, style="random")
        cfg = SolverConfig(gamma=0.02, total_iters=T, seed=seed)
        traces.append(
            simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar,
                     record_q=False)
        )
    rep = check_recursion(traces, obj.constants)
    assert rep["ok"], rep
    rep2 = check_strong_convexity_step(traces, obj, obj.constants)
    assert rep2["ok"], rep2


def test_ascd_windows_small(ridge_small):
    obj, xstar = ridge_small
    T = 40
    traces = []
    for seed in range(8):
        sched = gen_schedule(T, 1, obj.d, seed=200 + seed, style="random")
        cfg = SolverConfig(gamma=0.01, total_iters=T, seed=seed)
        traces.append(
            simulate(obj, cfg, np.zeros(obj.d), sched, "scd", xstar=xstar)
        )
    rep = check_ascd_windows(traces, obj.constants, r_max=2, j_stride=4)
    assert rep["ok"], rep


def test_svrg_variance_windows_small(ridge_small):
    obj, xstar = ridge_small
    S, E = 20, 2
    T = S * E
    traces = []
    for seed in range(8):
        sched = gen_schedule(T, 1, obj.d, seed=300 + seed, style="random")
        cfg = SolverConfig(gamma=0.01, epoch_size=S, epochs=E, seed=seed)
        traces.append(
            simulate(obj, cfg, np.zeros(obj.d), sched, "svrg_sparse", xstar=xstar)
        )
    rep = check_svrg_variance_window(traces, obj.constants, r_max=2, j_stride=4)
    assert rep["ok"], rep


def test_svrg_variance_windows_reused_snapshot(ridge_small):
    # snapshot_interval=2: epoch 1 keeps epoch 0's snapshot, but its windows
    # still stop at the epoch barrier
    obj, xstar = ridge_small
    S, E = 15, 3
    traces = []
    for seed in range(8):
        sched = gen_schedule(S * E, 2, obj.d, seed=400 + seed, style="random")
        cfg = SolverConfig(gamma=0.01, epoch_size=S, epochs=E, seed=seed, snapshot_interval=2)
        traces.append(simulate(obj, cfg, np.zeros(obj.d), sched, "svrg_sparse", xstar=xstar))
    tr = traces[0]
    assert tr.snapshot_a[S] == tr.snapshot_a[0] != tr.snapshot_a[2 * S]
    assert tr.epoch_start.tolist() == [0] * S + [S] * S + [2 * S] * S
    rep = check_svrg_variance_window(traces, obj.constants, r_max=3, j_stride=3)
    assert rep["ok"], rep
    # an epoch's first read is its fake iterate
    starts = [row for row in rep["rows"] if row["j"] % S == 0 and row["r"] == 0]
    assert len(starts) == E and all(row["delta_hat"] == 0.0 for row in starts)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40), d=st.integers(1, 15), nnz=st.integers(1, 4),
    algo=st.sampled_from(["sgm", "scd", "svrg_sparse"]), tau=st.integers(0, 3),
    style=st.sampled_from(["random", "adversarial_stale"]),
    data_seed=st.integers(0, 1000), seed=st.integers(0, 1000),
    snapshot_interval=st.integers(1, 2),
)
def test_derived_error_terms_match_per_step_products(
    n, d, nnz, algo, tau, style, data_seed, seed, snapshot_interval,
):
    assume(nnz <= d)
    data = ao.gen_synthetic(ao.SyntheticSpec(n, d, nnz, label_model="linear", seed=data_seed),
                            l2_reg=0.1)
    obj = ao.least_squares_objective(ao.remap_covered(data)[0])
    xstar = ao.solve_reference(obj)
    gamma = 0.5 / obj.constants.L_term
    if algo == "svrg_sparse":
        cfg = SolverConfig(gamma=gamma, epoch_size=10, epochs=3, seed=seed,
                           snapshot_interval=snapshot_interval)
    else:
        cfg = SolverConfig(gamma=gamma / obj.d if algo == "scd" else gamma, total_iters=30,
                           seed=seed)
    sched = gen_schedule(30, tau, obj.d, seed=seed, style=style)
    tr = simulate(obj, cfg, np.zeros(obj.d), sched, algo, xstar=xstar, record_q=False)
    dist = [float((x - xstar) @ (x - xstar)) for x in tr.X]
    g2 = [float(g @ g) for g in tr.U]
    mis = tr.Xhat - tr.X[:-1]
    m2 = [float(v @ v) for v in mis]
    cross = np.array([float(v @ g) for v, g in zip(mis, tr.U)])
    np.testing.assert_allclose(tr.a, dist, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.r0, g2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.r1, m2, rtol=1e-12, atol=0)
    # r2 is signed: relative to its Cauchy-Schwarz scale ||xhat_j - x_j|| ||g_j||
    assert np.all(np.abs(tr.r2 - cross) <= 1e-12 * np.sqrt(np.multiply(g2, m2)))
    if tau == 0:
        assert not tr.r1.any() and not tr.r2.any()
    assert check_step_identity(tr)["ok"]


def test_simulate_rejects_short_schedule(ridge_small):
    obj, xstar = ridge_small
    sched = gen_schedule(10, 1, obj.d, style="none")
    cfg = SolverConfig(gamma=0.02, total_iters=20, seed=0)
    with pytest.raises(ValueError):
        simulate(obj, cfg, np.zeros(obj.d), sched, "sgm", xstar=xstar)
    with pytest.raises(ValueError):
        simulate(obj, cfg, np.zeros(obj.d), sched, "nope", xstar=xstar)

