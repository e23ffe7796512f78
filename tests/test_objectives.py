import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.objectives import LogisticObjective, ReferenceSolveError
from asyncopt.vectors import ProblemConstants

from conftest import make_vc_desk


def fd_grad(obj, x, h=1e-6):
    g = np.zeros(obj.d)
    for v in range(obj.d):
        e = np.zeros(obj.d)
        e[v] = h
        g[v] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("family", ["ridge", "logistic", "vc"])
def test_finite_difference_gradients(family, ridge_desk, logistic_desk, vc_desk):
    obj = {"ridge": ridge_desk, "logistic": logistic_desk, "vc": vc_desk}[family][0]
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(obj.d) * 0.5
        err = np.abs(obj.full_grad(x) - fd_grad(obj, x)).max()
        assert err < 1e-5


def test_term_grads_average_to_full_grad(ridge_desk, logistic_desk, vc_desk):
    for obj, _ in (ridge_desk, logistic_desk, vc_desk):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(obj.d)
        total = np.zeros(obj.d)
        for i in range(obj.n):
            idx, g = obj.term_grad(i, x)
            total[idx] += g
        np.testing.assert_allclose(total / obj.n, obj.full_grad(x), atol=1e-12)


def test_term_gradient_supported_on_hyperedge(ridge_desk, logistic_desk, vc_desk):
    rng = np.random.default_rng(6)
    for obj, _ in (ridge_desk, logistic_desk, vc_desk):
        for i in (0, 3, obj.n - 1):
            idx = obj.term_support(i)
            assert np.array_equal(idx, np.unique(idx))
            x = rng.standard_normal(obj.d)
            y = rng.standard_normal(obj.d)
            y[idx] = x[idx]
            # the gradient reads the iterate on the support only
            assert np.array_equal(obj.term_grad(i, x)[1], obj.term_grad(i, y)[1])


def test_full_grad_coord_matches_full_grad(logistic_desk):
    obj, _ = logistic_desk
    rng = np.random.default_rng(2)
    x = rng.standard_normal(obj.d)
    g = obj.full_grad(x)
    for v in range(obj.d):
        assert abs(obj.full_grad_coord(v, x) - g[v]) < 1e-12


def test_coord_read_support_is_sufficient(ridge_desk):
    obj, _ = ridge_desk
    rng = np.random.default_rng(3)
    x = rng.standard_normal(obj.d)
    for v in range(obj.d):
        union = obj.coord_read_support(v)
        masked = np.zeros(obj.d)
        masked[union] = x[union]
        # values outside the read set must not matter
        assert obj.full_grad_coord(v, x) == obj.full_grad_coord(v, masked)


def random_regression(rng, n, d, max_nnz, lonely):
    """Rows of 1..max_nnz distinct columns; with ``lonely`` one extra column
    is hit by row 0 alone.  Uncovered columns are remapped out."""
    rows, cols = [], []
    for i in range(n):
        k = int(rng.integers(1, min(max_nnz, d) + 1))
        cols.extend(np.sort(rng.choice(d, k, replace=False)).tolist())
        rows.extend([i] * k)
    if lonely:
        rows.append(0)
        cols.append(d)
    X = sp.csr_matrix((rng.standard_normal(len(rows)), (rows, cols)), shape=(n, d + 1))
    return ao.remap_covered(ao.RegressionDataset(
        X=X, labels=np.sign(rng.standard_normal(n)) + 0.0, l2_reg=0.1))[0]


def random_vertex_cover(rng, nv, ne):
    """A graph on nv vertices with up to ne edges; the rest are isolated."""
    pairs = np.array([(u, v) for u in range(nv) for v in range(u + 1, nv)], dtype=np.int64)
    keep = rng.permutation(len(pairs))[: min(ne, len(pairs))]
    edges = pairs[np.sort(keep)].reshape(-1, 2)
    return ao.vertex_cover_objective(ao.VertexCoverProblem(nv, edges, beta=0.7), box=False)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["ridge", "logistic", "vc"]), seed=st.integers(0, 10_000),
    n=st.integers(1, 12), d=st.integers(1, 10), max_nnz=st.integers(1, 6),
    lonely=st.booleans(),
)
def test_full_grad_coord_on_any_shape(family, seed, n, d, max_nnz, lonely):
    rng = np.random.default_rng(seed)
    if family == "vc":
        obj = random_vertex_cover(rng, nv=d, ne=n if lonely else n // 2)
    else:
        data = random_regression(rng, n, d, max_nnz, lonely)
        obj = (ao.least_squares_objective if family == "ridge" else ao.logistic_objective)(data)
    x = rng.standard_normal(obj.d)
    g = obj.full_grad(x)
    for v in range(obj.d):
        gv = obj.full_grad_coord(v, x)
        assert abs(gv - g[v]) <= 1e-12 * max(1.0, abs(g[v]))
        # any values off the read set give the same result, bit for bit
        union = obj.coord_read_support(v)
        other = rng.standard_normal(obj.d)
        other[union] = x[union]
        assert obj.full_grad_coord(v, other) == gv


def loop_form(obj):
    """Weights, row maxima of d_inv and constants computed term by term."""
    edges = [obj.term_support(i) for i in range(obj.n)]
    weights = ao.coordinate_weights(edges, obj.d)
    row_dinv_max = np.array([weights.d_inv[e].max() for e in edges])
    loop = copy.copy(obj)
    loop.weights, loop._row_dinv_max = weights, row_dinv_max
    # phi'' <= 1/4 for logistic; dividing by 1.0 leaves least squares exact
    curv = 4.0 if isinstance(obj, LogisticObjective) else 1.0
    L = obj.lam + float(obj._row_sq.max()) / curv
    L_term = float((obj._row_sq / curv + obj.lam * row_dinv_max).max())
    M = loop.grad_norm_bound(np.zeros(obj.d), 1.0)
    constants = ProblemConstants(L=L, m=obj.lam, M=M, n=obj.n, d=obj.d, L_term=max(L, L_term))
    return weights, row_dinv_max, constants


def test_setup_matches_loop_form(ridge_desk, logistic_desk, ridge_small, vc_desk):
    for obj, _ in (ridge_desk, logistic_desk, ridge_small):
        weights, row_dinv_max, constants = loop_form(obj)
        for name in ("p", "d_inv", "covered", "counts"):
            a, b = getattr(obj.weights, name), getattr(weights, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(obj._row_dinv_max, row_dinv_max)
        assert obj.constants == constants
    obj, _ = vc_desk
    weights = ao.coordinate_weights([obj.term_support(i) for i in range(obj.n)], obj.d)
    assert np.array_equal(obj.weights.d_inv, weights.d_inv)
    assert np.array_equal(obj.weights.counts, weights.counts)


def test_repeated_column_in_a_row_counts_once():
    # row 0 lists column 1 twice; the dataset sums the repeats into one entry
    X = sp.csr_matrix((np.array([1.0, 2.0, 0.5, 3.0]), np.array([1, 1, 0, 1]),
                       np.array([0, 2, 4])), shape=(2, 2))
    obj = ao.least_squares_objective(ao.RegressionDataset(X=X, labels=np.ones(2), l2_reg=0.1))
    assert obj.term_support(0).tolist() == [1]
    assert obj.X[0, 1] == 3.0
    assert obj.weights.counts.tolist() == [1, 2]
    assert X.data.tolist() == [1.0, 2.0, 0.5, 3.0]  # the caller's matrix is left as it was


@pytest.mark.parametrize("empty_row", [1, 2])  # a middle row, the last row
def test_empty_row_rejected(tmp_path, empty_row):
    lines = ["1 1:1 2:2", "-1 1:2", "1 2:3"]
    lines[empty_row] = lines[empty_row].split()[0]  # label only
    p = tmp_path / "rows.txt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="at least one nonzero"):
        ao.parse_libsvm(p)
    # the objective checks the rows too, for a dataset whose X was swapped later
    data = ao.RegressionDataset(X=sp.csr_matrix(np.ones((3, 2))), labels=np.ones(3))
    X = np.ones((3, 2))
    X[empty_row] = 0.0
    data.X = sp.csr_matrix(X)
    for make in (ao.least_squares_objective, ao.logistic_objective):
        with pytest.raises(ValueError, match=f"term {empty_row} has an empty support"):
            make(data)


def test_smoothness_constants_bound_hessian(ridge_desk):
    obj, _ = ridge_desk
    H = (obj.X.T @ obj.X).toarray() / obj.n + obj.lam * np.eye(obj.d)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[-1] <= obj.constants.L + 1e-9
    assert eigs[0] >= obj.constants.m - 1e-9


def test_per_term_lipschitz_constant(ridge_desk):
    obj, _ = ridge_desk
    rng = np.random.default_rng(5)
    Lt = obj.constants.L_term
    for _ in range(50):
        i = int(rng.integers(obj.n))
        idx = obj.term_support(i)
        u = rng.standard_normal(obj.d)
        w = rng.standard_normal(obj.d)
        gu = obj.term_grad_vals(i, u[idx])
        gw = obj.term_grad_vals(i, w[idx])
        lhs = np.linalg.norm(gu - gw)
        assert lhs <= Lt * np.linalg.norm(u[idx] - w[idx]) + 1e-9


def test_grad_norm_bound_is_uniform(ridge_desk, logistic_desk, vc_desk):
    rng = np.random.default_rng(9)
    for obj, _ in (ridge_desk, logistic_desk, vc_desk):
        center = rng.standard_normal(obj.d) * 0.2
        radius = 0.7
        M = obj.grad_norm_bound(center, radius)
        for _ in range(30):
            delta = rng.standard_normal(obj.d)
            x = center + radius * delta / np.linalg.norm(delta)
            i = int(rng.integers(obj.n))
            _, g = obj.term_grad(i, x)
            assert np.linalg.norm(g) <= M + 1e-9


def test_solve_reference_accuracy(ridge_desk, logistic_desk, vc_desk):
    for obj, xstar in (ridge_desk, logistic_desk, vc_desk):
        assert np.linalg.norm(obj.full_grad(xstar)) <= 1e-10


def test_solve_reference_box_constrained():
    obj = ao.vertex_cover_objective(make_vc_desk(), box=True)
    xs = ao.solve_reference(obj)
    assert xs.min() >= 0.0 and xs.max() <= 1.0
    # KKT at the box optimum: interior coords have zero gradient
    g = obj.full_grad(xs)
    interior = (xs > 1e-9) & (xs < 1 - 1e-9)
    assert np.abs(g[interior]).max() < 1e-7


def test_logistic_rejects_bad_labels():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    data = ao.RegressionDataset(X=X, labels=np.array([1.0, 0.5]), l2_reg=0.1)
    with pytest.raises(ValueError):
        ao.logistic_objective(data)


def test_uncovered_coordinate_rejected():
    X = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    data = ao.RegressionDataset(X=X, labels=np.array([1.0, -1.0]), l2_reg=0.1)
    with pytest.raises(ValueError, match="remap"):
        ao.least_squares_objective(data)


def test_reference_solver_flags_non_strongly_convex():
    X = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    data = ao.RegressionDataset(X=X, labels=np.array([1.0, -1.0]), l2_reg=0.0)
    obj = ao.least_squares_objective(data)
    assert not obj.constants.strongly_convex
    with pytest.raises((ValueError, ReferenceSolveError)):
        ao.solve_reference(obj)


def test_sparsified_regularizer_reconstructs_full_value(ridge_desk):
    obj, _ = ridge_desk
    rng = np.random.default_rng(4)
    x = rng.standard_normal(obj.d)
    # direct value = data loss + (lam/2)||x||^2; per-term split must average
    # to the same thing, which is already covered by the gradient identity;
    # spot-check the value itself
    r = obj.X @ x - obj.b
    direct = 0.5 * float(r @ r) / obj.n + 0.5 * obj.lam * float(x @ x)
    assert abs(obj.value(x) - direct) < 1e-12
