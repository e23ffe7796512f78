"""Decomposable objectives: f(x) = (1/n) * sum of n sparse terms.

Three families are provided: l2-regularized least squares, l2-regularized
logistic regression, and a quadratic-penalty relaxation of vertex cover.
Each term's gradient is supported exactly on its hyperedge; the l2
regularizer is split across data terms with inverse-probability weights
(d_inv[v] = 1 / p_v) so that averaging the terms reconstructs the full
regularizer without densifying any term.

The term supports are kept as a CSR pattern and its CSC, so the terms
incident to coordinate v are the CSC column of v.  The coordinate gradient
full_grad_coord(v, x) is one vectorized pass over that column: the entries
of the incident rows are gathered from the CSR arrays at once, and its
cost is the sum of the incident rows' lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
        self.edges = edges

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def dim(self):
        return self.num_vertices + self.num_edges


class DecomposableObjective:
    """Common surface for the three objective families.

    Subclasses define per-term supports/gradients; everything here is
    immutable after construction and safe to evaluate from any thread.
    ``_index`` keeps the CSR pattern ``_S`` of the term supports (row i is
    term i) and its CSC ``_Sc`` (column v lists the terms incident to v).
    """

    n: int
    d: int
    constants: ProblemConstants
    weights: CoordinateWeights
    box: tuple | None = None  # (lo, hi) component-wise clamp, or None

    # -- per-term interface ------------------------------------------------
    def term_support(self, i) -> np.ndarray:
        return self._S.indices[self._S.indptr[i] : self._S.indptr[i + 1]]

    def term_grad_vals(self, i, w_vals) -> np.ndarray:
        """Gradient of term i given iterate values aligned to term_support(i)."""
        raise NotImplementedError

    def term_grad(self, i, x):
        idx = self.term_support(i)
        return idx, self.term_grad_vals(i, x[idx])

    # -- full-function interface --------------------------------------------
    def value(self, x) -> float:
        raise NotImplementedError

    def full_grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def full_grad_coord(self, v, x) -> float:
        """Coordinate v of the full gradient, touching only incident terms."""
        raise NotImplementedError

    def _index(self, S):
        """Keep the support pattern S, its CSC, and the weights p_v it implies."""
        self._S = S
        self._Sc = S.tocsc()
        self._row_start = S.indptr[:-1].astype(np.int64)
        self._row_len = np.diff(S.indptr).astype(np.int64)
        if not self._row_len.all():
            # the row gathers and reduceat below need every row nonempty
            raise ValueError(f"term {int(np.argmin(self._row_len))} has an empty support")
        self.weights = weights_from_counts(np.diff(self._Sc.indptr), S.shape[0])
        self._union_cache = {}
        if not self.weights.all_covered:
            raise ValueError(
                f"{(~self.weights.covered).sum()} coordinates are covered by no "
                "term; remap them out of the variable space first "
                "(see asyncopt.data.remap_covered)"
            )

    def _incident_terms(self, v):
        """Ids of the terms whose support contains coordinate v, ascending."""
        return self._Sc.indices[self._Sc.indptr[v] : self._Sc.indptr[v + 1]]

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
            pos, _ = self._gather(self._incident_terms(v))
            u = self._union_cache[v] = np.unique(self._S.indices[pos])
        return u

    def grad_norm_bound(self, center, radius) -> float:
        """Uniform bound on per-term gradient norms over an l2 ball."""
        raise NotImplementedError

    @property
    def d_inv(self):
        return self.weights.d_inv


class _RegressionObjective(DecomposableObjective):
    """Terms phi(<a_i, x>, b_i) plus the sparsified regularizer; a family
    supplies only the vectorized derivative ``_dphi(t, b)`` of phi in t."""

    def __init__(self, data: RegressionDataset):
        self.data = data
        self.X = data.X
        self.b = data.labels
        self.lam = float(data.l2_reg)
        self.n = data.n
        self.d = data.d
        self._index(self.X)
        self._row_sq = np.asarray(self.X.multiply(self.X).sum(axis=1)).ravel()
        # max of d_inv over each row's support, for per-term Lipschitz bounds
        self._row_dinv_max = np.maximum.reduceat(
            self.d_inv[self.X.indices], self.X.indptr[:-1]
        )

    def _row_vals(self, i):
        return self.X.data[self.X.indptr[i] : self.X.indptr[i + 1]]

    def full_grad(self, x):
        return self.X.T @ self._dphi(self.X @ x, self.b) / self.n + self.lam * x

    def full_grad_coord(self, v, x):
        lo, hi = self._Sc.indptr[v], self._Sc.indptr[v + 1]
        rows = self._Sc.indices[lo:hi]
        pos, offsets = self._gather(rows)
        dots = np.add.reduceat(self.X.data[pos] * x[self.X.indices[pos]], offsets)
        return self._Sc.data[lo:hi] @ self._dphi(dots, self.b[rows]) / self.n + self.lam * x[v]

    def _reg_grad_vals(self, idx, w_vals):
        if self.lam == 0.0:
            return 0.0
        return self.lam * self.d_inv[idx] * w_vals

    def _reg_value(self, x):
        return 0.5 * self.lam * float(x @ x)


class LeastSquaresObjective(_RegressionObjective):
    """Per-term: 0.5*(<w, a_i> - b_i)^2 plus the sparsified l2 regularizer."""

    def __init__(self, data):
        super().__init__(data)
        lam = self.lam
        L = lam + float(self._row_sq.max())
        L_term = float((self._row_sq + lam * self._row_dinv_max).max())
        M = self.grad_norm_bound(np.zeros(self.d), 1.0)
        self.constants = ProblemConstants(
            L=L, m=lam, M=M, n=self.n, d=self.d, L_term=max(L, L_term)
        )

    def term_grad_vals(self, i, w_vals):
        a = self._row_vals(i)
        r = float(a @ w_vals) - self.b[i]
        idx = self.term_support(i)
        return a * r + self._reg_grad_vals(idx, w_vals)

    @staticmethod
    def _dphi(t, b):
        return t - b

    def value(self, x):
        r = self.X @ x - self.b
        return 0.5 * float(r @ r) / self.n + self._reg_value(x)

    def grad_norm_bound(self, center, radius):
        # each term gradient is affine in w: ||g_i(w)|| <= ||g_i(c)|| + ||H_i|| r
        w = self.lam * self.d_inv * center
        r = self.X @ center - self.b
        pattern = self.X.copy()
        pattern.data = np.ones_like(pattern.data)
        sq = r * r * self._row_sq + 2.0 * r * (self.X @ w) + pattern @ (w * w)
        op = self._row_sq + self.lam * self._row_dinv_max
        return float((np.sqrt(np.maximum(sq, 0.0)) + op * radius).max())


def _sigmoid(t):
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class LogisticObjective(_RegressionObjective):
    """Per-term: log(1 + exp(-b_i <w, a_i>)) plus the sparsified regularizer."""

    def __init__(self, data):
        bad = np.setdiff1d(data.labels, [-1.0, 1.0])
        if bad.size:
            raise ValueError(f"logistic labels must be in {{-1,+1}}, got {bad[:5]}")
        super().__init__(data)
        lam = self.lam
        L = lam + float(self._row_sq.max()) / 4.0
        L_term = float((self._row_sq / 4.0 + lam * self._row_dinv_max).max())
        M = self.grad_norm_bound(np.zeros(self.d), 1.0)
        self.constants = ProblemConstants(
            L=L, m=lam, M=M, n=self.n, d=self.d, L_term=max(L, L_term)
        )

    def term_grad_vals(self, i, w_vals):
        a = self._row_vals(i)
        b = self.b[i]
        t = b * float(a @ w_vals)
        s = float(_sigmoid(np.array([-t]))[0])
        idx = self.term_support(i)
        return (-b * s) * a + self._reg_grad_vals(idx, w_vals)

    @staticmethod
    def _dphi(t, b):
        return -b * _sigmoid(-b * t)

    def value(self, x):
        t = self.b * (self.X @ x)
        return float(np.logaddexp(0.0, -t).mean()) + self._reg_value(x)

    def full_hessian(self, x):
        t = self.b * (self.X @ x)
        s = _sigmoid(t)
        w = s * (1.0 - s)
        Xw = self.X.multiply(w[:, None])
        return (self.X.T @ Xw).toarray() / self.n + self.lam * np.eye(self.d)

    def grad_norm_bound(self, center, radius):
        # |sigmoid| <= 1, so the data part is bounded by ||a_i||
        a_norm = np.sqrt(self._row_sq)
        c_norm = float(np.linalg.norm(center))
        return float(
            (a_norm + self.lam * self._row_dinv_max * (c_norm + radius)).max()
        )


class VertexCoverObjective(DecomposableObjective):
    """Quadratic penalty relaxation of vertex cover.

    Variables are [x_v for vertices] ++ [x_e for edges].  The full objective
    is sum_v x_v + (beta/2) sum_(u,v) (x_u + x_v - x_uv - 1)^2
    + (1/(2 beta)) sum_v x_v^2 + sum_e x_e^2, optionally with the box [0,1]
    enforced at write time.  One term per graph edge, with each vertex's
    linear/quadratic pieces split across its incident edge terms by inverse
    degree; isolated vertices get their own singleton term.
    """

    def __init__(self, problem: VertexCoverProblem, box=True):
        self.problem = problem
        self.beta = float(problem.beta)
        self.nV = problem.num_vertices
        self.nE = problem.num_edges
        self.d = problem.dim
        self.box = (0.0, 1.0) if box else None
        self.deg = np.bincount(problem.edges.ravel(), minlength=self.nV)
        self.isolated = np.flatnonzero(self.deg == 0)
        self.n = self.nE + self.isolated.size
        # edge term k touches (u, v, nV + k); an isolated vertex its own term
        indices = np.concatenate([
            np.column_stack([problem.edges, self.nV + np.arange(self.nE)]).ravel(),
            self.isolated,
        ])
        indptr = np.concatenate([
            np.arange(0, 3 * self.nE, 3), 3 * self.nE + np.arange(self.isolated.size + 1)
        ])
        self._index(sp.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(self.n, self.d)
        ))
        m, L = self._curvature_bounds()
        L_term = self.n * (3.0 * self.beta + max(2.0, 1.0 / self.beta))
        M = self.grad_norm_bound(np.zeros(self.d), 1.0)
        self.constants = ProblemConstants(
            L=L, m=m, M=M, n=self.n, d=self.d, L_term=max(L, L_term)
        )

    def _hessian(self):
        rows, cols, vals = [], [], []
        for k in range(self.nE):
            u, v = self.problem.edges[k]
            e = self.nV + k
            q = [(u, 1.0), (v, 1.0), (e, -1.0)]
            for a, qa in q:
                for b, qb in q:
                    rows.append(a)
                    cols.append(b)
                    vals.append(self.beta * qa * qb)
        diag = np.concatenate(
            [np.full(self.nV, 1.0 / self.beta), np.full(self.nE, 2.0)]
        )
        H = sp.coo_matrix((vals, (rows, cols)), shape=(self.d, self.d)).tocsr()
        return H + sp.diags(diag)

    def _curvature_bounds(self):
        if self.d <= 1500:
            eigs = np.linalg.eigvalsh(self._hessian().toarray())
            return float(eigs[0]), float(eigs[-1])
        # cheap valid bounds for large graphs: the penalty part is PSD, and
        # Gershgorin bounds its largest eigenvalue by 3*max_degree
        m = min(1.0 / self.beta, 2.0)
        L = 3.0 * self.beta * max(int(self.deg.max(initial=1)), 1) + max(
            1.0 / self.beta, 2.0
        )
        return m, L

    def term_grad_vals(self, i, w_vals):
        n, beta = self.n, self.beta
        if i < self.nE:
            u, v = self.problem.edges[i]
            xu, xv, xe = w_vals
            r = xu + xv - xe - 1.0
            gu = beta * r + (1.0 + xu / beta) / self.deg[u]
            gv = beta * r + (1.0 + xv / beta) / self.deg[v]
            ge = -beta * r + 2.0 * xe
            return n * np.array([gu, gv, ge])
        xv = w_vals[0]
        return n * np.array([1.0 + xv / beta])

    def value(self, x):
        xv = x[: self.nV]
        xe = x[self.nV :]
        u, v = self.problem.edges[:, 0], self.problem.edges[:, 1]
        r = xv[u] + xv[v] - xe - 1.0
        return float(
            xv.sum()
            + 0.5 * self.beta * (r @ r)
            + 0.5 / self.beta * (xv @ xv)
            + xe @ xe
        )

    def full_grad(self, x):
        xv = x[: self.nV]
        xe = x[self.nV :]
        u, v = self.problem.edges[:, 0], self.problem.edges[:, 1]
        r = xv[u] + xv[v] - xe - 1.0
        gv = 1.0 + xv / self.beta
        np.add.at(gv, u, self.beta * r)
        np.add.at(gv, v, self.beta * r)
        ge = -self.beta * r + 2.0 * xe
        return np.concatenate([gv, ge])

    def full_grad_coord(self, v, x):
        beta = self.beta
        if v >= self.nV:  # an edge variable lies in its own edge's term only
            u, w = self.problem.edges[v - self.nV]
            return -beta * (x[u] + x[w] - x[v] - 1.0) + 2.0 * x[v]
        k = self._incident_terms(v)
        k = k[k < self.nE]  # an isolated vertex's own term has no penalty part
        u, w = self.problem.edges[k].T
        r = x[u] + x[w] - x[self.nV + k] - 1.0
        return beta * r.sum() + (1.0 + x[v] / beta)

    def grad_norm_bound(self, center, radius):
        best = 0.0
        op = self.n * (3.0 * self.beta + max(2.0, 1.0 / self.beta))
        for i in range(self.n):
            idx, g = self.term_grad(i, center)
            best = max(best, float(np.linalg.norm(g)) + op * radius)
        return best


def least_squares_objective(data: RegressionDataset) -> LeastSquaresObjective:
    return LeastSquaresObjective(data)


def logistic_objective(data: RegressionDataset) -> LogisticObjective:
    return LogisticObjective(data)


def vertex_cover_objective(p: VertexCoverProblem, box=True) -> VertexCoverObjective:
    return VertexCoverObjective(p, box=box)


def _projected_grad_norm(obj, x):
    if obj.box is None:
        return float(np.linalg.norm(obj.full_grad(x)))
    lo, hi = obj.box
    step = np.clip(x - obj.full_grad(x) / obj.constants.L, lo, hi)
    return float(np.linalg.norm(x - step)) * obj.constants.L


def solve_reference(obj: DecomposableObjective, tol=1e-10, max_iter=10_000):
    """High-accuracy minimizer x*: closed form where available, Newton or
    projected gradient descent otherwise.  Raises ReferenceSolveError when
    the gradient (or projected-gradient) norm target is not reached."""
    if not obj.constants.strongly_convex:
        raise ValueError("reference solve requires a strongly convex objective")

    if isinstance(obj, LeastSquaresObjective):
        A = (obj.X.T @ obj.X).toarray() / obj.n + obj.lam * np.eye(obj.d)
        rhs = obj.X.T @ obj.b / obj.n
        x = np.linalg.solve(A, rhs)
        achieved = float(np.linalg.norm(obj.full_grad(x)))
        if achieved > tol:
            raise ReferenceSolveError(achieved, tol)
        return x

    if isinstance(obj, LogisticObjective):
        x = np.zeros(obj.d)
        for _ in range(200):
            g = obj.full_grad(x)
            gn = float(np.linalg.norm(g))
            if gn <= tol:
                return x
            step = np.linalg.solve(obj.full_hessian(x), g)
            t, f0 = 1.0, obj.value(x)
            while obj.value(x - t * step) > f0 - 1e-4 * t * float(g @ step):
                t *= 0.5
                if t < 1e-12:
                    break
            x = x - t * step
        raise ReferenceSolveError(float(np.linalg.norm(obj.full_grad(x))), tol)

    if isinstance(obj, VertexCoverObjective):
        H = obj._hessian()
        c = obj.full_grad(np.zeros(obj.d))
        if obj.box is None:
            if obj.d <= 4000:
                x = np.linalg.solve(H.toarray(), -c)
            else:
                x = sp.linalg.spsolve(H.tocsc(), -c)
            achieved = float(np.linalg.norm(obj.full_grad(x)))
            if achieved > tol:
                raise ReferenceSolveError(achieved, tol)
            return x
        lo, hi = obj.box
        L = obj.constants.L
        x = np.clip(np.zeros(obj.d), lo, hi)
        for _ in range(max_iter):
            x_new = np.clip(x - obj.full_grad(x) / L, lo, hi)
            if np.max(np.abs(x_new - x)) <= tol / L:
                return x_new
            x = x_new
        raise ReferenceSolveError(_projected_grad_norm(obj, x), tol)

    raise TypeError(f"no reference solver for {type(obj).__name__}")
