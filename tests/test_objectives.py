import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.objectives import LogisticObjective, ReferenceSolveError, _sigmoid
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
    tol = 1e-12 * np.maximum(1.0, np.abs(g))
    for v in range(obj.d):
        gv = obj.full_grad_coord(v, x)
        assert abs(gv - g[v]) <= tol[v]
        # any values off the read set give the same result, bit for bit
        union = obj.coord_read_support(v)
        other = rng.standard_normal(obj.d)
        other[union] = x[union]
        assert obj.full_grad_coord(v, other) == gv
    # the term gradients average to the full gradient
    total = np.zeros(obj.d)
    for i in range(obj.n):
        idx, gi = obj.term_grad(i, x)
        total[idx] += gi
    assert np.all(np.abs(total / obj.n - g) <= tol)
    # the Hessian-vector product is the derivative of the gradient along u
    u, h = rng.standard_normal(obj.d), 1e-5
    fd = (obj.full_grad(x + h * u) - obj.full_grad(x - h * u)) / (2 * h)
    hu = obj.hess_vec(x, u)
    assert np.all(np.abs(hu - fd) <= 1e-6 * np.maximum(1.0, np.abs(hu)))
    # grad_norm_bound bounds every term gradient on the ball
    radius = 0.5
    M = obj.grad_norm_bound(x, radius)
    for _ in range(5):
        step = rng.standard_normal(obj.d)
        y = x + radius * rng.random() ** (1 / obj.d) * step / np.linalg.norm(step)
        norms = [np.linalg.norm(obj.term_grad(i, y)[1]) for i in range(obj.n)]
        assert max(norms) <= M * (1 + 1e-12)


def loop_form(obj, sup):
    """Weights, squared row norms, per-term L and M computed term by term,
    for the family with sup phi'' = ``sup``."""
    edges = [obj.term_support(i) for i in range(obj.n)]
    weights = ao.coordinate_weights(edges, obj.d)
    c, e = obj.rho * weights.d_inv, obj.eta * weights.d_inv
    rows = [obj.A.data[obj.A.indptr[i] : obj.A.indptr[i + 1]] for i in range(obj.n)]
    row_sq = np.array([np.add.reduceat(a * a, [0])[0] for a in rows])  # one row at a time
    row_cmax = np.array([c[idx].max() for idx in edges])
    term_L = np.array([sup * q + cm for q, cm in zip(row_sq, row_cmax)])
    loop = copy.copy(obj)
    loop.weights, loop._c, loop._e, loop._row_sq, loop._row_cmax = weights, c, e, row_sq, row_cmax
    return weights, row_sq, term_L, loop.grad_norm_bound(np.zeros(obj.d), 1.0)


def test_setup_matches_loop_form(ridge_desk, logistic_desk, ridge_small, vc_desk):
    for obj, _ in (ridge_desk, logistic_desk, ridge_small):
        # phi'' <= 1/4 for logistic and is 1 for least squares
        sup = 0.25 if isinstance(obj, LogisticObjective) else 1.0
        weights, row_sq, term_L, M = loop_form(obj, sup)
        for name in ("p", "d_inv", "covered", "counts"):
            a, b = getattr(obj.weights, name), getattr(weights, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(obj._term_L, term_L)
        lam, = np.unique(obj.rho)
        L = lam + sup * float(row_sq.max())
        constants = ProblemConstants(
            L=L, m=lam, M=M, n=obj.n, d=obj.d, L_term=max(L, float(term_L.max()))
        )
        assert obj.constants == constants
    obj, _ = vc_desk
    weights, _, term_L, M = loop_form(obj, obj.n * obj.beta)
    assert np.array_equal(obj.weights.d_inv, weights.d_inv)
    assert np.array_equal(obj.weights.counts, weights.counts)
    assert np.array_equal(obj._term_L, term_L) and obj.constants.M == M
    # the per-term L_i may only be tighter than the uniform n (3 beta + max(2, 1/beta))
    uniform = obj.n * (3.0 * obj.beta + max(2.0, 1.0 / obj.beta))
    assert obj.constants.L_term <= max(obj.constants.L, uniform)
    zero = np.zeros(obj.d)
    g0 = max(np.linalg.norm(obj.term_grad(i, zero)[1]) for i in range(obj.n))
    assert obj.constants.M <= (g0 + uniform) * (1 + 1e-12)


def _sigmoid_reference(t):
    """The masked two-branch sigmoid the sampled trajectories were recorded with."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_scalar_matches_array():
    grid = np.array([0.0, 1e-3, -1e-3, 0.5, -0.5, 1.0, -1.0, 40.0, -40.0,
                     700.0, -700.0, 745.0, -745.0, 800.0, -800.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        arr = _sigmoid(grid)
        scalars = [float(_sigmoid(t)) for t in grid.tolist()]
    assert scalars == arr.tolist()
    assert np.array_equal(arr, _sigmoid_reference(grid))


def test_regression_term_grads_match_closed_forms(ridge_desk, logistic_desk):
    rng = np.random.default_rng(8)
    for (obj, _), logistic in ((ridge_desk, False), (logistic_desk, True)):
        lam, = np.unique(obj.rho)
        w = 3.0 * rng.standard_normal(obj.d)  # wide enough to reach both sigmoid branches
        for i in range(obj.n):
            idx = obj.term_support(i)
            a, b = obj.A.data[obj.A.indptr[i] : obj.A.indptr[i + 1]], obj.b[i]
            if logistic:
                s = float(_sigmoid_reference(np.array([-(b * float(a @ w[idx]))]))[0])
                expect = (-b * s) * a + lam * obj.d_inv[idx] * w[idx]
            else:
                expect = a * (float(a @ w[idx]) - b) + lam * obj.d_inv[idx] * w[idx]
            assert np.array_equal(obj.term_grad_vals(i, w[idx]), expect)


def test_repeated_column_in_a_row_counts_once():
    # row 0 lists column 1 twice; the dataset sums the repeats into one entry
    X = sp.csr_matrix((np.array([1.0, 2.0, 0.5, 3.0]), np.array([1, 1, 0, 1]),
                       np.array([0, 2, 4])), shape=(2, 2))
    obj = ao.least_squares_objective(ao.RegressionDataset(X=X, labels=np.ones(2), l2_reg=0.1))
    assert obj.term_support(0).tolist() == [1]
    assert obj.A[0, 1] == 3.0
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
    H = (obj.A.T @ obj.A).toarray() / obj.n + np.diag(obj.rho)
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


def test_solve_reference_past_value_rounding():
    # f stops resolving a decrease at its rounding before ||grad f|| reaches
    # the target here; backtracking on ||grad f|| gets through
    data = ao.gen_synthetic(ao.SyntheticSpec(72, 13, 2, label_model="linear", seed=277),
                            l2_reg=0.1)
    obj = ao.least_squares_objective(ao.remap_covered(data)[0])
    assert np.linalg.norm(obj.full_grad(ao.solve_reference(obj))) <= 1e-10


def test_vertex_cover_rejects_duplicate_edges():
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        ao.VertexCoverProblem(3, [[0, 1], [1, 0], [1, 2]])


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
    lam, = np.unique(obj.rho)
    r = obj.A @ x - obj.b
    direct = 0.5 * float(r @ r) / obj.n + 0.5 * lam * float(x @ x)
    assert abs(obj.value(x) - direct) < 1e-12
