"""End-to-end acceptance checks.

Each test prints a single CRITERION nn: PASS/WARN line (visible with -s or
in captured output on failure) and enforces its own runtime budget.
"""

import math
import time
import warnings

import numpy as np
import pytest

import asyncopt as ao
from asyncopt.hypergraph import conflict_stats, conflict_stats_bruteforce
from asyncopt.serial import (
    SolverConfig,
    enumerated_mean_direction,
    resolve_config,
    run_scd,
    run_sgm,
    run_svrg_dense,
    run_svrg_sparse,
    svrg_variance_check,
)
from asyncopt.engine import run_ascd, run_hogwild, run_kromagnon
from asyncopt.sim import (
    check_ascd_windows,
    check_hogwild_bounds,
    check_step_identity,
    gen_schedule,
    simulate,
)

from conftest import theorem1_params


class budget:
    """Context manager asserting the wall-clock budget for one criterion."""

    def __init__(self, num, limit_s):
        self.num = num
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.num:02d}: {status} ({elapsed:.1f}s / {self.limit}s budget)")
        assert elapsed < self.limit, f"criterion {self.num} exceeded {self.limit}s"
        return False


def test_criterion_01_per_step_identity(ridge_desk):
    obj, xstar = ridge_desk
    with budget(1, 30):
        for tau in (0, 1, 2, 5):
            for seed in range(20):
                for algo in ("sgm", "scd", "svrg_sparse"):
                    if algo == "svrg_sparse":
                        cfg = SolverConfig(
                            gamma=0.01, epoch_size=60, epochs=2, seed=seed
                        )
                        T = 120
                    else:
                        cfg = SolverConfig(gamma=0.01, total_iters=120, seed=seed)
                        T = 120
                    sched = gen_schedule(
                        T, tau, obj.d, seed=1000 * tau + seed, style="random"
                    )
                    tr = simulate(obj, cfg, np.zeros(obj.d), sched, algo,
                                  xstar=xstar, record_q=False)
                    rep = check_step_identity(tr, tol=1e-9)
                    assert rep["ok"], (algo, tau, seed, rep)


def test_criterion_02_serial_reduction(ridge_desk):
    obj, xstar = ridge_desk
    with budget(2, 10):
        x0 = np.zeros(obj.d)
        cfg = SolverConfig(gamma=0.01, total_iters=2000, seed=3)
        serial = run_sgm(obj, cfg, x0, xstar=xstar)
        res, _ = run_hogwild(obj, cfg, x0, workers=1, xstar=xstar)
        np.testing.assert_array_equal(res.x, serial.x)

        cfg = SolverConfig(gamma=0.005, total_iters=2000, seed=4)
        serial = run_scd(obj, cfg, x0, xstar=xstar)
        res, _ = run_ascd(obj, cfg, x0, workers=1, xstar=xstar)
        np.testing.assert_array_equal(res.x, serial.x)

        cfg = SolverConfig(gamma=0.01, epoch_size=500, epochs=3, seed=5)
        serial = run_svrg_sparse(obj, obj.weights, cfg, x0, xstar=xstar)
        res, _ = run_kromagnon(obj, obj.weights, cfg, x0, workers=1, xstar=xstar)
        np.testing.assert_array_equal(res.x, serial.x)


def test_criterion_03_memory_commutativity(ridge_desk, native_worker_calls):
    obj, _ = ridge_desk
    with budget(3, 60):
        x0 = np.zeros(obj.d)
        worst = 0.0
        for seed in range(50):
            cfg = SolverConfig(gamma=0.01, total_iters=800, seed=seed)
            res, rep = run_hogwild(obj, cfg, x0, workers=4, log_updates=True)
            total = x0.copy()
            for idx, deltas in rep.log.updates:
                total[idx] += deltas
            worst = max(worst, float(np.abs(res.x - total).max()))
        for seed in range(50):
            cfg = SolverConfig(gamma=0.01, epoch_size=400, epochs=2, seed=seed)
            res, rep = run_kromagnon(
                obj, obj.weights, cfg, x0, workers=4, log_updates=True
            )
            total = x0.copy()
            for idx, deltas in rep.log.updates:
                total[idx] += deltas
            worst = max(worst, float(np.abs(res.x - total).max()))
        # every run took the native multi-thread path: 4 workers per segment,
        # one segment per Hogwild! run and one per KroMagnon epoch
        assert len(native_worker_calls) == 50 * 4 + 50 * 2 * 4
        assert worst <= 1e-9, worst


def test_criterion_04_unbiasedness(ridge_desk, logistic_desk, vc_desk):
    with budget(4, 10):
        rng = np.random.default_rng(42)
        for obj, xstar in (ridge_desk, logistic_desk, vc_desk):
            for _ in range(20):
                x = xstar + rng.standard_normal(obj.d)
                y = xstar + rng.standard_normal(obj.d)
                g = obj.full_grad(x)
                for algo in ("sgm", "svrg_sparse", "svrg_dense"):
                    mean = enumerated_mean_direction(obj, x, algo, y=y)
                    assert np.abs(mean - g).max() <= 1e-12
                mean = enumerated_mean_direction(obj, x, "scd")
                assert np.abs(mean - g).max() <= 1e-12


def test_criterion_05_variance_bound(ridge_small):
    obj, xstar = ridge_small
    with budget(5, 10):
        rng = np.random.default_rng(7)
        assert obj.n <= 50
        for _ in range(100):
            x = xstar + rng.standard_normal(obj.d)
            y = xstar + rng.standard_normal(obj.d)
            chk = svrg_variance_check(obj, obj.weights, x, y, xstar=xstar)
            assert chk.dz_quadratic >= 0.0
            assert chk.lhs <= chk.rhs + 1e-9 * max(1.0, abs(chk.rhs))


def test_criterion_06_svrg_contraction(ridge_desk):
    obj, xstar = ridge_desk
    with budget(6, 120):
        a0 = float(xstar @ xstar)
        base = SolverConfig(step_rule="svrg_theorem3", eps=1e-3, a0=a0)
        cfg = resolve_config(base, obj, "svrg_sparse")
        c = obj.constants
        assert cfg.gamma == pytest.approx(1.0 / (4.0 * c.L * c.kappa))
        assert cfg.epoch_size == math.ceil(8.0 * c.kappa**2)
        E = math.ceil(math.log(a0 / 1e-3) / math.log(4.0 / 3.0))
        assert cfg.epochs == E
        from dataclasses import replace

        epoch_a = []
        for seed in range(20):
            res = run_svrg_sparse(
                obj, obj.weights, replace(cfg, seed=seed),
                x0=np.zeros(obj.d), xstar=xstar,
            )
            epoch_a.append(res.epoch_a)
        A = np.stack(epoch_a).mean(axis=0)
        A = np.concatenate([[a0], A])
        for k in range(5):
            assert A[k + 1] <= 0.75 * 1.5 * A[k], (k, A[: k + 2])
        assert A[E] <= 1e-3, A[-3:]


def test_criterion_07_theorem1_rate(ridge_desk):
    obj, xstar = ridge_desk
    with budget(7, 120):
        eps = 1e-2
        a0, M = theorem1_params(obj, xstar, eps)
        c = obj.constants
        base = SolverConfig(step_rule="hogwild_theorem1", eps=eps, a0=a0, M=M)
        cfg = resolve_config(base, obj, "sgm")
        assert cfg.gamma == pytest.approx(eps * c.m / (2.0 * M**2))
        from dataclasses import replace

        finals = []
        for seed in range(20):
            res = run_sgm(obj, replace(cfg, seed=seed), x0=np.zeros(obj.d))
            finals.append(float((res.x - xstar) @ (res.x - xstar)))
        assert np.mean(finals) <= 2.0 * eps, np.mean(finals)

        finals = []
        for seed in range(20):
            res, _ = run_hogwild(
                obj, replace(cfg, seed=seed), x0=np.zeros(obj.d), workers=4,
                log_updates=False,
            )
            finals.append(float((res.x - xstar) @ (res.x - xstar)))
        assert np.mean(finals) <= 2.0 * eps, np.mean(finals)


def test_criterion_08_staleness_error_bounds(ridge_desk):
    obj, xstar = ridge_desk
    with budget(8, 60):
        eps = 1e-2
        a0, M = theorem1_params(obj, xstar, eps)
        gamma = eps * obj.constants.m / (2.0 * M**2)
        edges = [obj.term_support(i) for i in range(obj.n)]
        st = conflict_stats(edges, obj.d)
        T = 100
        for tau in (1, 2, 5):
            traces = []
            for seed in range(50):
                sched = gen_schedule(T, tau, obj.d, seed=7000 + seed, style="random")
                cfg = SolverConfig(gamma=gamma, total_iters=T, seed=seed)
                traces.append(
                    simulate(obj, cfg, np.zeros(obj.d), sched, "sgm",
                             xstar=xstar, record_q=False)
                )
            rep = check_hogwild_bounds(
                traces, obj.constants, st.avg_conflict_degree, M=M
            )
            assert rep["r1_ok"], (tau, rep)
            assert rep["r2_ok"], (tau, rep)


def test_criterion_09_ascd_window_chains(ridge_desk, logistic_desk):
    with budget(9, 120):
        for obj, xstar in (ridge_desk, logistic_desk):
            c = obj.constants
            gamma = 1.0 / (6.0 * c.d * c.L * c.kappa)
            T = 60
            for tau in (1, 2):
                traces = []
                for seed in range(20):
                    sched = gen_schedule(
                        T, tau, obj.d, seed=9000 + 50 * tau + seed, style="random"
                    )
                    cfg = SolverConfig(gamma=gamma, total_iters=T, seed=seed)
                    traces.append(
                        simulate(obj, cfg, np.zeros(obj.d), sched, "scd",
                                 xstar=xstar)
                    )
                rep = check_ascd_windows(traces, c, r_max=3, j_stride=3)
                assert rep["ok"], (obj.d, tau, rep)


def test_criterion_10_hypergraph_stats():
    with budget(10, 30):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            d = int(rng.integers(2, 60))
            edges = [
                rng.choice(d, size=min(int(rng.integers(1, 6)), d), replace=False)
                for _ in range(n)
            ]
            fast = conflict_stats(edges, d)
            slow = conflict_stats_bruteforce(edges, d)
            assert fast.degrees.tolist() == slow.degrees.tolist()
            assert fast.avg_conflict_degree == slow.avg_conflict_degree
            assert fast.max_conflict_degree == slow.max_conflict_degree
            assert fast.max_left_degree == slow.max_left_degree
            assert fast.max_right_degree == slow.max_right_degree
            # p_v counting identity: p_v = (# edges containing v) / n exactly
            w = ao.coordinate_weights(edges, d)
            counts = np.zeros(d, dtype=np.int64)
            for e in edges:
                counts[e] += 1
            assert np.array_equal(w.counts, counts)
            assert np.array_equal(w.p, counts / n)
            covered = counts > 0
            assert np.array_equal(w.d_inv[covered], n / counts[covered])
            # degree inequality: right * left^2 >= left * conflict
            assert (
                fast.max_right_degree * fast.max_left_degree**2
                >= fast.max_left_degree * fast.max_conflict_degree
            )


def test_criterion_11_soft_speedups():
    with budget(11, 600):
        spec = ao.SyntheticSpec(
            n=100_000, d=1_000, nnz=20, label_model="logistic", seed=0
        )
        data = ao.gen_synthetic(spec, l2_reg=1e-2)
        obj = ao.logistic_objective(data)
        gamma = 1.0 / (4.0 * obj.constants.L * obj.constants.kappa)
        S, E = 50_000, 2
        x0 = np.zeros(obj.d)

        def flat_cfg(seed=0):
            return SolverConfig(gamma=gamma, total_iters=S * E, seed=seed,
                                log_every=S // 10)

        def epoch_cfg(seed=0):
            return SolverConfig(gamma=gamma, epoch_size=S, epochs=E, seed=seed,
                                log_every=S // 10)

        hog = {}
        for w in (1, 4):
            res, _ = run_hogwild(obj, flat_cfg(), x0, workers=w,
                                 log_updates=False, track_f=True)
            hog[w] = res
        krom = {}
        for w in (1, 4):
            res, _ = run_kromagnon(obj, obj.weights, epoch_cfg(), x0, workers=w,
                                   log_updates=False, track_f=True)
            krom[w] = res
        dense = run_svrg_dense(obj, epoch_cfg(), x0, track_f=True)

        from asyncopt.engine import measure_speedup

        f0 = obj.value(x0)
        hog_s = measure_speedup(hog, f0, 0.999)[4]["speedup"]
        krom_s = measure_speedup(krom, f0, 0.999)[4]["speedup"]
        kd = measure_speedup({1: krom[1], 4: dense}, f0, 0.999)
        ratio = None
        if kd[1]["time_to_target"] and kd[4]["time_to_target"]:
            ratio = kd[4]["time_to_target"] / kd[1]["time_to_target"]

        msgs = []
        if hog_s is None or hog_s < 2.0:
            msgs.append(f"hogwild 4-worker speedup {hog_s} < 2.0")
        if krom_s is None or krom_s < 2.0:
            msgs.append(f"kromagnon 4-worker speedup {krom_s} < 2.0")
        if ratio is None or ratio < 5.0:
            msgs.append(f"kromagnon vs dense SVRG ratio {ratio} < 5.0")
        print(
            f"measured ratios: hogwild_4w={hog_s}, kromagnon_4w={krom_s}, "
            f"kromagnon_vs_dense={ratio}"
        )
        for msg in msgs:
            warnings.warn("soft speedup target missed: " + msg)
        # hardware-dependent: misses warn rather than fail
        assert True


def test_criterion_12_gradient_checks(ridge_desk, logistic_desk, vc_desk):
    with budget(12, 30):
        h = 1e-5
        rng = np.random.default_rng(21)
        for obj, _ in (ridge_desk, logistic_desk, vc_desk):
            for _ in range(100):
                x = rng.standard_normal(obj.d) * 0.5
                g = obj.full_grad(x)
                fd = np.zeros(obj.d)
                for v in range(obj.d):
                    e = np.zeros(obj.d)
                    e[v] = h
                    fd[v] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
                scale = max(1.0, float(np.abs(g).max()))
                assert np.abs(g - fd).max() <= 1e-5 * scale
