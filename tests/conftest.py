import math

import numpy as np
import pytest
import scipy.sparse as sp

import asyncopt as ao


def make_ridge_desk(n=100, d=20, nnz=3, scale=0.6, bscale=2.0, l2_reg=1.0, seed=1):
    """Small ridge instance with balanced coordinate coverage (every
    coordinate appears in the same number of rows), which keeps the
    per-term regularizer weights and hence the gradient bound M moderate."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    assert (n * nnz) % d == 0
    while True:
        coords = np.tile(np.arange(d), n * nnz // d)
        rng.shuffle(coords)
        rows = coords.reshape(n, nnz)
        if all(len(set(r)) == nnz for r in rows):
            break
    idx = np.sort(rows, axis=1).ravel()
    data = scale * rng.standard_normal(n * nnz)
    X = sp.csr_matrix((data, idx, np.arange(0, n * nnz + 1, nnz)), shape=(n, d))
    b = bscale * rng.standard_normal(n)
    return ao.RegressionDataset(X=X, labels=b, l2_reg=l2_reg)


def make_vc_desk(num_vertices=20, num_edges=30, seed=0, beta=1.0):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(t) for t in rng.integers(0, num_vertices, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return ao.VertexCoverProblem(
        num_vertices=num_vertices, edges=np.array(sorted(edges)), beta=beta
    )


@pytest.fixture(scope="session")
def ridge_desk():
    obj = ao.least_squares_objective(make_ridge_desk())
    xstar = ao.solve_reference(obj)
    return obj, xstar


@pytest.fixture(scope="session")
def logistic_desk():
    data = ao.gen_synthetic(
        ao.SyntheticSpec(n=200, d=30, nnz=5, label_model="logistic", seed=2),
        l2_reg=0.1,
    )
    obj = ao.logistic_objective(data)
    xstar = ao.solve_reference(obj)
    return obj, xstar


@pytest.fixture(scope="session")
def vc_desk():
    obj = ao.vertex_cover_objective(make_vc_desk(), box=False)
    xstar = ao.solve_reference(obj)
    return obj, xstar


@pytest.fixture(scope="session")
def ridge_small():
    # n <= 50 so full enumeration over samples stays trivial
    obj = ao.least_squares_objective(
        make_ridge_desk(n=30, d=10, nnz=3, scale=0.8, bscale=1.0, seed=4)
    )
    xstar = ao.solve_reference(obj)
    return obj, xstar


def theorem1_params(obj, xstar, eps=1e-2):
    """gamma/T inputs for the constant-step SGM rate check: a0 from the zero
    start, M over a ball that comfortably contains the trajectory."""
    a0 = float(xstar @ xstar)
    M = obj.grad_norm_bound(xstar, 2.0 * math.sqrt(a0))
    return a0, M


@pytest.fixture
def native_worker_calls(monkeypatch):
    """The kernels of the engine workers that ran the native stretch loop, one
    entry per worker and checkpoint segment, the lone worker of a serial
    solver included (a worker on the NumPy reference stretch is not
    recorded)."""
    from asyncopt import _stretch, engine

    calls = []
    real = engine._stretch_worker

    def spy(kernel, *args):
        if isinstance(kernel.stretch, _stretch.Stretch):
            calls.append(kernel)
        return real(kernel, *args)

    monkeypatch.setattr(engine, "_stretch_worker", spy)
    return calls
