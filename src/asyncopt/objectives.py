"""Decomposable objectives in one term form:

    f(x) = (1/n) sum_i phi(a_i . x, b_i) + sum_v (rho_v x_v^2 / 2 + eta_v x_v).

An objective stores the term CSR A (row i is a_i, and its pattern is term
i's hyperedge), the labels b, the per-coordinate vectors rho and eta, and
one family phi with its derivatives phi', phi'' and sup phi''.  Three
families are provided: l2-regularized least squares and logistic regression
(rho = lambda, eta = 0), and a quadratic-penalty relaxation of vertex cover.

Each term's gradient lives on its hyperedge.  The per-coordinate part is
split across the terms with inverse-probability weights d_inv[v] = 1 / p_v:
term i carries c = rho * d_inv and e = eta * d_inv on its support, so

    g_i(x) = phi'(a_i . x, b_i) a_i + c[idx] * x[idx] + e[idx],

and the n term gradients average to grad f without densifying any term.

The terms incident to coordinate v are the CSC column of v, so the
coordinate gradient full_grad_coord(v, x) is one vectorized pass over that
column, costing the sum of the incident rows' lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from .hypergraph import CoordinateWeights, weights_from_counts
from .vectors import ProblemConstants

__all__ = [
    "RegressionDataset",
    "VertexCoverProblem",
    "DecomposableObjective",
    "LeastSquaresObjective",
    "LogisticObjective",
    "VertexCoverObjective",
    "least_squares_objective",
    "logistic_objective",
    "vertex_cover_objective",
    "solve_reference",
    "ReferenceSolveError",
]


class ReferenceSolveError(RuntimeError):
    """Reference solve did not reach the required gradient norm."""

    def __init__(self, achieved, tol):
        super().__init__(
            f"reference solve stalled at gradient norm {achieved:.3e} (target {tol:.1e})"
        )
        self.achieved = achieved
        self.tol = tol


@dataclass
class RegressionDataset:
    """Sparse feature rows plus labels (reals, or +-1 for logistic)."""

    X: sp.csr_matrix
    labels: np.ndarray
    l2_reg: float = 0.0

    def __post_init__(self):
        self.X = sp.csr_matrix(self.X, dtype=np.float64)
        if not self.X.has_canonical_format:
            # sorted rows without repeats: a repeated column would count twice in p_v
            self.X = self.X.copy()
            self.X.sum_duplicates()
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape[0] != self.X.shape[0]:
            raise ValueError("labels length must match number of rows")
        row_nnz = np.diff(self.X.indptr)
        if np.any(row_nnz == 0):
            raise ValueError("every row must have at least one nonzero feature")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


@dataclass
class VertexCoverProblem:
    """Graph input for the quadratic-penalty vertex cover relaxation."""

    num_vertices: int
    edges: np.ndarray  # (m, 2) int array, endpoints sorted, no loops/dups
    beta: float = 1.0

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_vertices):
            raise ValueError("edge references an invalid vertex")
        edges = np.sort(edges, axis=1)
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        _, first, count = np.unique(edges, axis=0, return_index=True, return_counts=True)
        if (count > 1).any():
            raise ValueError(f"duplicate edge {tuple(edges[first[count > 1][0]].tolist())}")
        self.edges = edges

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def dim(self):
        return self.num_vertices + self.num_edges


class DecomposableObjective:
    """The term form (A, b, rho, eta, phi) and everything computed from it.

    A family supplies ``_phi``, ``_dphi`` and ``_d2phi`` (vectorized in t and
    b) and ``_sup_d2phi``.  Everything here is immutable after construction
    and safe to evaluate from any thread.  ``_Ac`` is the CSC of A: column v
    lists the terms incident to v, with their values.
    """

    n: int
    d: int
    constants: ProblemConstants
    weights: CoordinateWeights
    box: tuple | None = None  # (lo, hi) component-wise clamp, or None

    def __init__(self, A, b, rho, eta):
        self.A, self.b, self.rho, self.eta = A, b, rho, eta
        self.n, self.d = A.shape
        self._Ac = A.tocsc()
        self._row_start = A.indptr[:-1].astype(np.int64)
        self._row_len = np.diff(A.indptr).astype(np.int64)
        if not self._row_len.all():
            # the row gathers and reduceats need every row nonempty
            raise ValueError(f"term {int(np.argmin(self._row_len))} has an empty support")
        self.weights = weights_from_counts(np.diff(self._Ac.indptr), self.n)
        self._union_cache = {}
        if not self.weights.all_covered:
            raise ValueError(
                f"{(~self.weights.covered).sum()} coordinates are covered by no "
                "term; remap them out of the variable space first "
                "(see asyncopt.data.remap_covered)"
            )
        self._c = rho * self.d_inv
        self._e = eta * self.d_inv
        self._row_sq = np.add.reduceat(A.data**2, self._row_start)
        self._row_cmax = np.maximum.reduceat(self._c[A.indices], self._row_start)
        m, L = self._curvature_bounds()
        M = self.grad_norm_bound(np.zeros(self.d), 1.0)
        self.constants = ProblemConstants(
            L=L, m=m, M=M, n=self.n, d=self.d, L_term=max(L, float(self._term_L.max()))
        )

    @property
    def _term_L(self):
        """Lipschitz constant of each term gradient: its Jacobian is
        phi'' a_i a_i^T + diag(c) on the support."""
        return self._sup_d2phi * self._row_sq + self._row_cmax

    def _curvature_bounds(self):
        """(m, L): phi is convex, and the Hessian's data part is an average of
        the n rank-one phi'' a_i a_i^T."""
        L = float(self.rho.max()) + self._sup_d2phi * float(self._row_sq.max())
        return float(self.rho.min()), L

    # -- per-term interface ------------------------------------------------
    def term_support(self, i) -> np.ndarray:
        return self.A.indices[self.A.indptr[i] : self.A.indptr[i + 1]]

    def term_grad_vals(self, i, w_vals) -> np.ndarray:
        """Gradient of term i given iterate values aligned to term_support(i)."""
        lo, hi = self.A.indptr[i], self.A.indptr[i + 1]
        a, idx = self.A.data[lo:hi], self.A.indices[lo:hi]
        return self._dphi(float(a @ w_vals), self.b[i]) * a + self._c[idx] * w_vals + self._e[idx]

    def term_grad(self, i, x):
        idx = self.term_support(i)
        return idx, self.term_grad_vals(i, x[idx])

    # -- full-function interface --------------------------------------------
    def value(self, x) -> float:
        return float(
            self._phi(self.A @ x, self.b).mean() + 0.5 * ((self.rho * x) @ x) + self.eta @ x
        )

    def full_grad(self, x) -> np.ndarray:
        return self.A.T @ self._dphi(self.A @ x, self.b) / self.n + self.rho * x + self.eta

    def full_grad_coord(self, v, x) -> float:
        """Coordinate v of the full gradient, touching only incident terms."""
        lo, hi = self._Ac.indptr[v], self._Ac.indptr[v + 1]
        rows = self._Ac.indices[lo:hi]
        pos, offsets = self._gather(rows)
        dots = np.add.reduceat(self.A.data[pos] * x[self.A.indices[pos]], offsets)
        return (
            self._Ac.data[lo:hi] @ self._dphi(dots, self.b[rows]) / self.n
            + self.rho[v] * x[v] + self.eta[v]
        )

    def hess_vec(self, x, v) -> np.ndarray:
        """The Hessian of f at x applied to v."""
        h = self._d2phi(self.A @ x, self.b)
        return self.A.T @ (h * (self.A @ v)) / self.n + self.rho * v

    def _gather(self, rows):
        """Positions in the CSR arrays of the entries of ``rows``, row after
        row, and the offset of each row among them."""
        lens = self._row_len[rows]
        offsets = np.cumsum(lens) - lens
        pos = np.repeat(self._row_start[rows] - offsets, lens)
        pos += np.arange(pos.size)
        return pos, offsets

    def coord_read_support(self, v) -> np.ndarray:
        """Coordinates needed to evaluate full_grad_coord(v, .): the union of
        the incident terms' supports, v among them."""
        u = self._union_cache.get(v)
        if u is None:
            lo, hi = self._Ac.indptr[v], self._Ac.indptr[v + 1]
            pos, _ = self._gather(self._Ac.indices[lo:hi])
            u = self._union_cache[v] = np.unique(self.A.indices[pos])
        return u

    def grad_norm_bound(self, center, radius) -> float:
        """Uniform bound on per-term gradient norms over an l2 ball:
        ||g_i(x)|| <= ||g_i(center)|| + L_i * radius, for all terms at once."""
        g = np.repeat(self._dphi(self.A @ center, self.b), self._row_len) * self.A.data
        g += (self._c * center + self._e)[self.A.indices]
        norms = np.sqrt(np.add.reduceat(g * g, self._row_start))
        return float((norms + self._term_L * radius).max())

    @property
    def d_inv(self):
        return self.weights.d_inv


def _regression_form(data):
    """(A, b, rho, eta) of an l2-regularized regression: rho = lambda, eta = 0."""
    return data.X, data.labels, np.full(data.d, float(data.l2_reg)), np.zeros(data.d)


class _Quadratic(DecomposableObjective):
    """phi(t, b) = (s/2) (t - b)^2 with s = ``_sup_d2phi``."""

    def _phi(self, t, b):
        return 0.5 * self._sup_d2phi * (t - b) ** 2

    def _dphi(self, t, b):
        return self._sup_d2phi * (t - b)

    def _d2phi(self, t, b):
        return np.full_like(t, self._sup_d2phi)


class LeastSquaresObjective(_Quadratic):
    """Per-term: 0.5*(<w, a_i> - b_i)^2 plus the sparsified l2 regularizer."""

    _sup_d2phi = 1.0

    def __init__(self, data: RegressionDataset):
        super().__init__(*_regression_form(data))


def _sigmoid(t):
    """1 / (1 + exp(-t)) without overflow, for a scalar or an array alike."""
    q = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + q), q / (1.0 + q))


class LogisticObjective(DecomposableObjective):
    """Per-term: log(1 + exp(-b_i <w, a_i>)) plus the sparsified regularizer."""

    _sup_d2phi = 0.25

    def __init__(self, data: RegressionDataset):
        bad = np.setdiff1d(data.labels, [-1.0, 1.0])
        if bad.size:
            raise ValueError(f"logistic labels must be in {{-1,+1}}, got {bad[:5]}")
        super().__init__(*_regression_form(data))

    def _phi(self, t, b):
        return np.logaddexp(0.0, -b * t)

    def _dphi(self, t, b):
        return -b * _sigmoid(-b * t)

    def _d2phi(self, t, b):
        s = _sigmoid(b * t)
        return s * (1.0 - s)

    def grad_norm_bound(self, center, radius):
        # |phi'| <= 1, so the data part is bounded by ||a_i||
        c_norm = float(np.linalg.norm(center))
        return float((np.sqrt(self._row_sq) + self._row_cmax * (c_norm + radius)).max())


class VertexCoverObjective(_Quadratic):
    """Quadratic penalty relaxation of vertex cover.

    Variables are [x_v for vertices] ++ [x_e for edges].  The full objective
    is sum_v x_v + (beta/2) sum_(u,v) (x_u + x_v - x_uv - 1)^2
    + (1/(2 beta)) sum_v x_v^2 + sum_e x_e^2, optionally with the box [0,1]
    enforced at write time.  In the term form, edge term k is a = (1, 1, -1)
    on (u, v, nV + k) with b = 1 and phi(t, b) = (n beta / 2)(t - b)^2, rho
    is 1/beta on vertices and 2 on edges, and eta is 1 on vertices.  An
    isolated vertex gets a term of its own, an explicit zero with b = 0,
    which carries its share of rho and eta.
    """

    def __init__(self, problem: VertexCoverProblem, box=True):
        self.beta = float(problem.beta)
        self.box = (0.0, 1.0) if box else None
        nV, nE = problem.num_vertices, problem.num_edges
        self.deg = np.bincount(problem.edges.ravel(), minlength=nV)
        isolated = np.flatnonzero(self.deg == 0)
        n = nE + isolated.size
        indices = np.concatenate([
            np.column_stack([problem.edges, nV + np.arange(nE)]).ravel(), isolated
        ])
        indptr = np.concatenate([np.arange(0, 3 * nE, 3), 3 * nE + np.arange(isolated.size + 1)])
        data = np.concatenate([np.tile([1.0, 1.0, -1.0], nE), np.zeros(isolated.size)])
        self._sup_d2phi = n * self.beta
        super().__init__(
            sp.csr_matrix((data, indices, indptr), shape=(n, nV + nE)),
            np.concatenate([np.ones(nE), np.zeros(isolated.size)]),
            np.concatenate([np.full(nV, 1.0 / self.beta), np.full(nE, 2.0)]),
            np.concatenate([np.ones(nV), np.zeros(nE)]),
        )

    def _curvature_bounds(self):
        if self.d <= 1500:
            x = np.zeros(self.d)
            eigs = np.linalg.eigvalsh(np.array([self.hess_vec(x, e) for e in np.eye(self.d)]))
            return float(eigs[0]), float(eigs[-1])
        # cheap valid bounds for large graphs: the penalty part is PSD, and
        # Gershgorin bounds its largest eigenvalue by 3*max_degree
        L = 3.0 * self.beta * max(int(self.deg.max(initial=1)), 1) + float(self.rho.max())
        return float(self.rho.min()), L


def least_squares_objective(data: RegressionDataset) -> LeastSquaresObjective:
    return LeastSquaresObjective(data)


def logistic_objective(data: RegressionDataset) -> LogisticObjective:
    return LogisticObjective(data)


def vertex_cover_objective(p: VertexCoverProblem, box=True) -> VertexCoverObjective:
    return VertexCoverObjective(p, box=box)


def solve_reference(obj: DecomposableObjective, tol=1e-10, max_iter=10_000):
    """High-accuracy minimizer x*: Newton-CG over Hessian-vector products,
    backtracking on the gradient norm, or projected gradient descent in
    a box.  Raises ReferenceSolveError when the gradient (or
    projected-gradient) norm target is not reached."""
    if not obj.constants.strongly_convex:
        raise ValueError("reference solve requires a strongly convex objective")

    if obj.box is not None:
        lo, hi = obj.box
        L = obj.constants.L
        x = np.clip(np.zeros(obj.d), lo, hi)
        for _ in range(max_iter):
            x_new = np.clip(x - obj.full_grad(x) / L, lo, hi)
            if np.max(np.abs(x_new - x)) <= tol / L:
                return x_new
            x = x_new
        step = np.clip(x - obj.full_grad(x) / L, lo, hi)
        raise ReferenceSolveError(float(np.linalg.norm(x - step)) * L, tol)

    x = np.zeros(obj.d)
    g = obj.full_grad(x)
    for _ in range(200):
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return x
        H = LinearOperator((obj.d, obj.d), matvec=lambda v, x=x: obj.hess_vec(x, v),
                           dtype=np.float64)
        step = cg(H, g, rtol=min(0.1, gn))[0]
        # backtrack on ||grad f||, which keeps resolving a decrease after f
        # stops moving at its rounding
        t = 1.0
        while True:
            x_new = x - t * step
            g = obj.full_grad(x_new)
            if float(np.linalg.norm(g)) <= (1.0 - 1e-4 * t) * gn or t < 1e-12:
                break
            t *= 0.5
        x = x_new
    raise ReferenceSolveError(float(np.linalg.norm(g)), tol)
