"""Dataset ingestion and synthesis.

Covers the libsvm text format (sparse rows, 1-based indices), a synthetic
sparse regression generator with a planted weight vector, and plain edge
lists for the vertex cover relaxation.  Files ending in .gz are read and
written through gzip transparently.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .objectives import RegressionDataset, VertexCoverProblem

__all__ = [
    "SyntheticSpec",
    "parse_libsvm",
    "write_libsvm",
    "gen_synthetic",
    "parse_edge_list",
    "write_edge_list",
    "remap_covered",
]


def _open_text(path, mode="rt"):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic sparse dataset: n rows, d features, nnz per row."""

    n: int
    d: int
    nnz: int
    label_model: str = "linear"  # "linear" (labels + gaussian noise) or "logistic"
    seed: int = 0
    noise: float = 0.1

    def __post_init__(self):
        if not (1 <= self.nnz <= self.d):
            raise ValueError(f"need 1 <= nnz <= d, got nnz={self.nnz}, d={self.d}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.label_model not in ("linear", "logistic"):
            raise ValueError(f"unknown label_model {self.label_model!r}")


def parse_libsvm(path, d=None, l2_reg=0.0) -> RegressionDataset:
    """Parse 'label idx:val ...' lines; 1-based indices become 0-based."""
    labels = []
    indptr = [0]
    indices = []
    data = []
    max_idx = -1
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from None
            prev = -1
            for tok in parts[1:]:
                try:
                    i_s, v_s = tok.split(":")
                    idx = int(i_s) - 1
                    val = float(v_s)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: malformed feature {tok!r}"
                    ) from None
                if idx < 0 or not np.isfinite(val):
                    raise ValueError(f"line {lineno}: bad feature {tok!r}")
                if idx <= prev:
                    raise ValueError(
                        f"line {lineno}: indices must be strictly increasing"
                    )
                prev = idx
                indices.append(idx)
                data.append(val)
            max_idx = max(max_idx, prev)
            indptr.append(len(indices))
    dim = (max_idx + 1) if d is None else d
    if max_idx >= dim:
        raise ValueError(f"feature index {max_idx} exceeds requested d={dim}")
    X = sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(labels), dim),
    )
    return RegressionDataset(X=X, labels=np.asarray(labels), l2_reg=l2_reg)


def write_libsvm(path, dataset: RegressionDataset):
    """Inverse of parse_libsvm (indices written 1-based)."""
    X = dataset.X
    with _open_text(path, "wt") as fh:
        for i in range(dataset.n):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(
                f"{j + 1}:{v:.17g}" for j, v in zip(X.indices[lo:hi], X.data[lo:hi])
            )
            fh.write(f"{dataset.labels[i]:.17g} {feats}\n")


def gen_synthetic(spec: SyntheticSpec, l2_reg=0.0) -> RegressionDataset:
    """Random sparse rows with a planted weight vector.

    Each row gets nnz coordinates sampled uniformly without replacement and
    standard normal values.  Labels come from a planted w (scaled so the
    logits are O(1)): linear labels are <w, a> plus N(0, noise^2); logistic
    labels are +-1 drawn with probability sigmoid(<w, a>).
    """
    rng = np.random.default_rng(np.random.Philox(key=spec.seed))
    n, d, nnz = spec.n, spec.d, spec.nnz
    indices = np.empty(n * nnz, dtype=np.int64)
    for i in range(n):
        indices[i * nnz : (i + 1) * nnz] = np.sort(rng.choice(d, nnz, replace=False))
    data = rng.standard_normal(n * nnz)
    indptr = np.arange(0, n * nnz + 1, nnz, dtype=np.int64)
    X = sp.csr_matrix((data, indices, indptr), shape=(n, d))
    w = rng.standard_normal(d) / np.sqrt(nnz)
    logits = X @ w
    if spec.label_model == "linear":
        labels = logits + spec.noise * rng.standard_normal(n)
    else:
        p = 1.0 / (1.0 + np.exp(-logits))
        labels = np.where(rng.random(n) < p, 1.0, -1.0)
    return RegressionDataset(X=X, labels=labels, l2_reg=l2_reg)


def parse_edge_list(path, beta=1.0, num_vertices=None) -> VertexCoverProblem:
    """Whitespace-separated 'u v' lines; dedups edges and drops self-loops."""
    seen = set()
    max_v = -1
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex id") from None
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: negative vertex id")
            max_v = max(max_v, u, v)
            if u == v:
                continue
            seen.add((min(u, v), max(u, v)))
    nv = (max_v + 1) if num_vertices is None else num_vertices
    edges = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    return VertexCoverProblem(num_vertices=nv, edges=edges, beta=beta)


def write_edge_list(path, problem: VertexCoverProblem):
    """Inverse of parse_edge_list.  An isolated last vertex is written as a
    self-loop, which the parser counts as a vertex and then drops."""
    top = problem.num_vertices - 1
    with _open_text(path, "wt") as fh:
        for u, v in problem.edges:
            fh.write(f"{u} {v}\n")
        if top > problem.edges.max(initial=-1):
            fh.write(f"{top} {top}\n")


def remap_covered(dataset: RegressionDataset):
    """Drop all-zero feature columns; returns (new dataset, kept column ids)."""
    col_counts = np.diff(dataset.X.tocsc().indptr)
    kept = np.flatnonzero(col_counts > 0)
    if kept.size == dataset.d:
        return dataset, kept
    X = dataset.X[:, kept].tocsr()
    return (
        RegressionDataset(X=X, labels=dataset.labels, l2_reg=dataset.l2_reg),
        kept,
    )
