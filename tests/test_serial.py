import math

import numpy as np
import pytest
import scipy.sparse as sp

import asyncopt as ao
from asyncopt.serial import (
    SolverConfig,
    enumerated_mean_direction,
    resolve_config,
    run_scd,
    run_sgm,
    run_svrg_dense,
    run_svrg_sparse,
    svrg_variance_check,
    trace_to_csv,
    worker_rng,
)

from conftest import theorem1_params


def single_term_quadratic(curv=2.0):
    # f(x) = (curv/2) x^2 split evenly between the data term and the
    # regularizer so the objective stays strongly convex (m = curv/2)
    X = sp.csr_matrix(np.array([[math.sqrt(curv / 2.0)]]))
    data = ao.RegressionDataset(X=X, labels=np.array([0.0]), l2_reg=curv / 2.0)
    return ao.least_squares_objective(data)


def test_sgm_single_term_exact_step():
    # with one term, SGM is deterministic gradient descent; gamma = 1/m lands
    # on the optimum in one step
    obj = single_term_quadratic(curv=2.0)
    cfg = SolverConfig(gamma=0.499, total_iters=1, seed=0)
    res = run_sgm(obj, cfg, x0=np.array([3.0]), xstar=np.array([0.0]))
    assert res.x[0] == pytest.approx(3.0 * (1 - 0.499 * 2.0))


def test_sgm_deterministic_gd_is_monotone():
    obj = single_term_quadratic(curv=1.5)
    cfg = SolverConfig(gamma=0.2, total_iters=40, seed=0, log_every=1)
    res = run_sgm(obj, cfg, x0=np.array([1.0]), xstar=np.array([0.0]))
    assert np.all(np.diff(res.trace_a) < 0)
    assert res.trace_a[-1] < 1e-6


def test_scd_separable_exact():
    # rows sqrt(m n) e_v make f(x) = (m/2)||x||^2 with coordinate-disjoint
    # terms; SCD with gamma = 1/(d m) contracts each coordinate by the same
    # deterministic factor once it is drawn
    d, m = 4, 2.0
    rows = math.sqrt(m * d) * np.eye(d)
    data = ao.RegressionDataset(
        X=sp.csr_matrix(rows), labels=np.zeros(d), l2_reg=0.0
    )
    obj = ao.least_squares_objective(data)
    gamma = 1.0 / (d * m)
    cfg = SolverConfig(gamma=gamma, total_iters=60, seed=3)
    x0 = np.ones(d)
    res = run_scd(obj, cfg, x0=x0, xstar=np.zeros(d))
    # replay the coordinate draws to predict the exact iterate
    rng = worker_rng(3)
    x = x0.copy()
    for _ in range(60):
        v = int(rng.integers(d))
        x[v] -= gamma * d * obj.full_grad_coord(v, x)
    np.testing.assert_array_equal(res.x, x)


def test_svrg_zero_update_at_optimum(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.01, epoch_size=50, epochs=2, seed=1)
    res = run_svrg_sparse(obj, obj.weights, cfg, x0=xstar.copy(), xstar=xstar)
    np.testing.assert_allclose(res.x, xstar, atol=1e-14)
    res_d = run_svrg_dense(obj, cfg, x0=xstar.copy(), xstar=xstar)
    np.testing.assert_allclose(res_d.x, xstar, atol=1e-14)


def test_svrg_single_term_collapses_to_gd():
    obj = single_term_quadratic(curv=2.0)
    cfg = SolverConfig(gamma=0.1, epoch_size=5, epochs=4, seed=0)
    res = run_svrg_dense(obj, cfg, x0=np.array([1.0]), xstar=np.array([0.0]))
    # with n=1 the variance-reduced direction is the exact gradient
    assert res.x[0] == pytest.approx((1 - 0.1 * 2.0) ** 20)


def test_runs_are_deterministic(ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=500, seed=7)
    a = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    b = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    np.testing.assert_array_equal(a.x, b.x)
    c = run_sgm(obj, ao.SolverConfig(gamma=0.02, total_iters=500, seed=8),
                x0=np.zeros(obj.d), xstar=xstar)
    assert not np.array_equal(a.x, c.x)


def test_linf_projection_enforced(ridge_small):
    obj, xstar = ridge_small
    ball = ao.LinfBall(0.05)
    cfg = SolverConfig(gamma=0.05, total_iters=300, seed=2, linf=ball)
    res = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar)
    assert np.abs(res.x).max() <= 0.05 + 1e-15


def test_resolve_config_rules(ridge_small):
    obj, xstar = ridge_small
    c = obj.constants
    a0, M = theorem1_params(obj, xstar)
    cfg = resolve_config(
        SolverConfig(step_rule="hogwild_theorem1", eps=1e-2, a0=a0, M=M),
        obj, "sgm",
    )
    assert cfg.gamma == pytest.approx(1e-2 * c.m / (2 * M**2))
    assert cfg.total_iters == math.ceil(
        (2 * M**2 / (1e-2 * c.m**2)) * math.log(2 * a0 / 1e-2)
    )
    cfg = resolve_config(
        SolverConfig(step_rule="scd_theorem2", eps=1e-2, a0=a0), obj, "scd"
    )
    assert cfg.gamma == pytest.approx(1.0 / (6 * c.d * c.L * c.kappa))
    cfg = resolve_config(
        SolverConfig(step_rule="svrg_theorem3", eps=1e-2, a0=a0), obj, "svrg_sparse"
    )
    assert cfg.gamma == pytest.approx(1.0 / (4 * c.L * c.kappa))
    assert cfg.epoch_size == math.ceil(8 * c.kappa**2)
    assert cfg.epochs == math.ceil(math.log(a0 / 1e-2) / math.log(4.0 / 3.0))


def test_hogwild_rule_needs_a0_only_without_horizon(ridge_small):
    obj, _ = ridge_small
    cfg = resolve_config(
        SolverConfig(step_rule="hogwild_theorem1", eps=1e-2, total_iters=50), obj, "sgm"
    )
    assert cfg.total_iters == 50
    assert cfg.gamma == pytest.approx(1e-2 * obj.constants.m / (2 * obj.constants.M**2))
    with pytest.raises(ValueError, match="a0"):
        resolve_config(SolverConfig(step_rule="hogwild_theorem1", eps=1e-2), obj, "sgm")


def test_resolve_config_rejects_divergent_gamma():
    obj = single_term_quadratic(curv=2.0)
    with pytest.raises(ValueError, match="divergent"):
        resolve_config(SolverConfig(gamma=1.5, total_iters=10), obj, "sgm")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=None, step_rule="explicit")
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.1, step_rule="hogwild_theorem1")
    with pytest.raises(ValueError):
        SolverConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.1, total_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.1, step_rule="nope")


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_config_rejects_nonfinite_gamma(gamma):
    with pytest.raises(ValueError, match="finite and positive"):
        SolverConfig(gamma=gamma, total_iters=10)


def test_config_rejects_negative_log_every():
    with pytest.raises(ValueError, match="log_every"):
        SolverConfig(gamma=0.1, total_iters=10, log_every=-1)
    assert SolverConfig(gamma=0.1, total_iters=10, log_every=0).log_every == 0


def test_resolve_config_rejects_unknown_solver(ridge_small):
    obj, _ = ridge_small
    with pytest.raises(ValueError, match="unknown solver 'kromagnn'"):
        resolve_config(SolverConfig(gamma=0.01, total_iters=10), obj, "kromagnn")


def test_scd_rate_on_ridge(ridge_small):
    # the named coordinate-descent step rule contracts to the target accuracy
    obj, xstar = ridge_small
    a0 = float(xstar @ xstar)
    eps = 0.05 * a0
    cfg = resolve_config(
        SolverConfig(step_rule="scd_theorem2", eps=eps, a0=a0), obj, "scd"
    )
    finals = []
    for seed in range(5):
        res = run_scd(obj, replace_seed(cfg, seed), x0=np.zeros(obj.d), xstar=xstar)
        finals.append(float((res.x - xstar) @ (res.x - xstar)))
    assert np.mean(finals) <= 2 * eps


def replace_seed(cfg, seed):
    from dataclasses import replace

    return replace(cfg, seed=seed)


def test_enumerated_mean_direction_matches_full_grad(ridge_small):
    obj, _ = ridge_small
    rng = np.random.default_rng(0)
    x = rng.standard_normal(obj.d)
    y = rng.standard_normal(obj.d)
    g = obj.full_grad(x)
    for algo in ("sgm", "svrg_sparse", "svrg_dense"):
        mean = enumerated_mean_direction(obj, x, algo, y=y)
        np.testing.assert_allclose(mean, g, atol=1e-12)
    mean = enumerated_mean_direction(obj, x, "scd")
    np.testing.assert_allclose(mean, g, atol=1e-12)


def test_svrg_variance_check_holds(ridge_small):
    obj, xstar = ridge_small
    rng = np.random.default_rng(12)
    weights = obj.weights
    for _ in range(20):
        x = xstar + 0.5 * rng.standard_normal(obj.d)
        y = xstar + 0.5 * rng.standard_normal(obj.d)
        chk = svrg_variance_check(obj, weights, x, y, xstar=xstar)
        assert chk.dz_quadratic >= -1e-12
        assert chk.lhs <= chk.rhs + 1e-12


def test_svrg_variance_check_equals_explicit_loop(ridge_small, logistic_desk):
    # the three enumerations are the kernels' second moments; the native
    # moment sums each ||g||^2 left to right where v @ v calls BLAS, and its
    # directions sum a_i . x so too, so they agree to rounding (1e-12 relative)
    for obj, xstar in (ridge_small, logistic_desk):
        rng = np.random.default_rng(5)
        x = xstar + 0.5 * rng.standard_normal(obj.d)
        y = xstar + 0.5 * rng.standard_normal(obj.d)
        z = obj.full_grad(y)
        lhs = t1 = t2 = 0.0
        for i in range(obj.n):
            idx = obj.term_support(i)
            gx = obj.term_grad_vals(i, x[idx])
            gy = obj.term_grad_vals(i, y[idx])
            gs = obj.term_grad_vals(i, xstar[idx])
            v = gx - gy + obj.d_inv[idx] * z[idx]
            lhs += float(v @ v)
            t1 += float((gx - gs) @ (gx - gs))
            t2 += float((gy - gs) @ (gy - gs))
        dz = float(z @ (obj.d_inv * z))
        chk = svrg_variance_check(obj, obj.weights, x, y, xstar=xstar)
        expect = (lhs / obj.n, 2.0 * t1 / obj.n + 2.0 * t2 / obj.n - 2.0 * dz, dz)
        np.testing.assert_allclose(chk, expect, rtol=1e-12, atol=0)
        assert chk.dz_quadratic == dz


def test_trace_csv_schema(tmp_path, ridge_small):
    obj, xstar = ridge_small
    cfg = SolverConfig(gamma=0.02, total_iters=100, seed=0, log_every=10)
    res = run_sgm(obj, cfg, x0=np.zeros(obj.d), xstar=xstar, track_f=True)
    out = tmp_path / "trace.csv"
    trace_to_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,epoch,seed,a_j,f,wall_ns"
    assert len(lines) == len(res.trace_iter) + 1
    first = lines[1].split(",")
    assert int(first[0]) == int(res.trace_iter[0])
    assert int(first[2]) == 0


@pytest.mark.parametrize("field", ["total_iters", "epoch_size", "epochs", "seed",
                                   "snapshot_interval", "log_every"])
def test_solver_config_refuses_a_count_that_is_not_an_integer(field):
    for value in (1.5, 10.0):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            SolverConfig(gamma=0.1, **{field: value})
    assert getattr(SolverConfig(gamma=0.1, **{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1024, 2**64 - 1, 2**64])
def test_solver_config_refuses_a_seed_outside_the_rng_key(seed):
    # worker_rng keys Philox with [seed, worker]: from 2**63 on NumPy made that
    # key float64, so 2**63 and 2**63 + 1024 drew one stream, and 2**64 - 1 seed 0's
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*63\), got {seed}$"):
        SolverConfig(gamma=0.1, seed=seed)


def test_worker_rng_keys_a_numpy_seed_as_its_int():
    # NumPy keys [np.uint64, int] as float64, where 2**63 - 1 rounds to 2**63
    top = SolverConfig(gamma=0.1, seed=np.uint64(2**63 - 1)).seed
    draws = [worker_rng(s, 1).integers(2**62, size=4).tolist() for s in (top, 2**63 - 1, 2**63 - 2)]
    assert draws[0] == draws[1] != draws[2]
