"""Dataset ingestion and synthesis.

Covers the libsvm text format (sparse rows, 1-based indices), a synthetic
sparse regression generator with a planted weight vector, and plain edge
lists for the vertex cover relaxation.  Files ending in .gz are read and
written through gzip transparently.  The generator's rows are those of one
rng.choice per row, most shapes drawn by _stretch.c's choice_rows (``_rows``).

``_libsvm_row`` is the one definition of a libsvm line.  ``parse_libsvm``
reads a file in blocks of whole lines with the native reader of _stretch.c,
which takes a strict subset of that format.  When a line falls outside that
subset, or the library does not load, ``_read_text`` reads the whole file
instead, every line with ``_libsvm_row``.
"""

from __future__ import annotations

import contextlib
import gzip
import operator
import sys
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _stretch
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


@contextlib.contextmanager
def _open(path, mode="rt"):
    """The file, through gzip when its name ends in .gz.  A gzip stream that
    ends early or does not inflate raises ValueError naming the file, as the
    loaders' other refusals do."""
    path = str(path)
    with gzip.open(path, mode) if path.endswith(".gz") else open(path, mode) as fh:
        try:
            yield fh
        except (EOFError, zlib.error) as exc:
            raise ValueError(f"{path}: {exc}") from exc


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
        for name in ("n", "d", "nnz", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if not (1 <= self.nnz <= self.d):
            raise ValueError(f"need 1 <= nnz <= d, got nnz={self.nnz}, d={self.d}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.label_model not in ("linear", "logistic"):
            raise ValueError(f"unknown label_model {self.label_model!r}")
        if not 0 <= self.seed < 2**128:  # Philox's key
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


_BLOCK = 1 << 22  # bytes the native reader reads at a time; a block is cut at a line end
_NO_D = int(np.iinfo(np.int64).max)  # the native reader's index limit when d is not given


def _libsvm_row(line, lineno, d):
    """The libsvm format, one line at a time: None for a blank or '#' line,
    else (label, 0-based indices, values) of 'label idx:val ...' with 1-based,
    strictly increasing indices, at most d when d is given.  A line outside
    the format raises ValueError naming lineno."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        label = np.nan
    if not np.isfinite(label):
        raise ValueError(f"line {lineno}: bad label {parts[0]!r}")
    indices, values = [], []
    prev = -1
    for tok in parts[1:]:
        try:
            i_s, v_s = tok.split(":")
            idx = int(i_s) - 1
            val = float(v_s)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed feature {tok!r}") from None
        if idx < 0 or not np.isfinite(val):
            raise ValueError(f"line {lineno}: bad feature {tok!r}")
        if idx <= prev:
            raise ValueError(f"line {lineno}: indices must be strictly increasing")
        if d is not None and idx >= d:
            raise ValueError(f"line {lineno}: feature index {idx + 1} exceeds requested d={d}")
        prev = idx
        indices.append(idx)
        values.append(val)
    return label, indices, values


def _read_text(path, d):
    """(labels, row lengths, indices, values) of the file, line by line in text mode."""
    labels, lens, indices, values = [], [], [], []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _libsvm_row(line, lineno, d)
            if row is not None:
                labels.append(row[0])
                lens.append(len(row[1]))
                indices += row[1]
                values += row[2]
    return (np.asarray(labels, dtype=np.float64), np.asarray(lens, dtype=np.int64),
            np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64))


def _blocks(fh):
    """(block, end) pairs of a binary file: block[:end] is whole lines, and
    what follows end is carried into the next block."""
    tail = b""
    while True:
        chunk = fh.read(_BLOCK)
        block = tail + chunk
        if not chunk:
            if block:
                yield block, len(block)
            return
        end = block.rfind(b"\n") + 1
        tail = block[end:]
        if end:
            yield block, end


def _plain(block, end):
    """Whether the lines of block[:end] read the same in binary and in text mode:
    ASCII only, and every \\r the start of a \\r\\n."""
    return block.isascii() and (b"\r" not in block
                                or block.count(b"\r", 0, end) == block.count(b"\r\n", 0, end))


def _read_native(lib, path, d):
    """The arrays of _read_text(path, d), read in blocks of whole lines by the
    native reader; None, for _read_text to read (and raise what it raises),
    when the file's byte lines are not its text lines (a byte outside ASCII, a
    lone \\r), a line is outside the native grammar, or the file is empty."""
    parts = []
    limit = _NO_D if d is None else min(max(d, 0), _NO_D)  # ctypes wraps ints outside int64
    with _open(path, "rb") as fh:
        for block, end in _blocks(fh):
            if not _plain(block, end):
                return None
            text = np.frombuffer(block, np.uint8, end)
            rows = np.count_nonzero(text == ord("\n")) + 1
            labels, lens = np.empty(rows), np.empty(rows, dtype=np.int64)
            nnz = np.count_nonzero(text == ord(":"))  # every feature has its own colon
            indices, values = np.empty(nnz, dtype=np.int64), np.empty(nnz)
            r = lib.parse_libsvm(block, end, limit,
                                 *(a.ctypes.data for a in (labels, lens, indices, values)))
            if r < 0:
                return None
            k = int(lens[:r].sum())
            parts.append((labels[:r], lens[:r], indices[:k], values[:k]))
    if not parts:  # an empty file
        return None
    return tuple(a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*parts))


def parse_libsvm(path, d=None, l2_reg=0.0) -> RegressionDataset:
    """Parse 'label idx:val ...' lines (_libsvm_row); 1-based indices become
    0-based, and d defaults to the largest index.  The result, or the error,
    is the same with and without the native reader."""
    if d is not None:
        d = operator.index(d)  # an integer, refused alike by both readers otherwise
    lib = _stretch.load()
    arrays = None if lib is None else _read_native(lib, path, d)
    labels, lens, indices, values = arrays if arrays is not None else _read_text(path, d)
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    dim = (int(indices.max()) + 1 if indices.size else 0) if d is None else d
    X = sp.csr_matrix((values, indices, indptr), shape=(labels.size, dim))
    return RegressionDataset(X=X, labels=labels, l2_reg=l2_reg)


_WRITE_ROWS = 4096  # rows formatted at once by write_libsvm; bounds its Python objects


def write_libsvm(path, dataset: RegressionDataset):
    """Inverse of parse_libsvm (indices written 1-based)."""
    X = dataset.X
    with _open(path, "wt") as fh:
        for r0 in range(0, dataset.n, _WRITE_ROWS):  # the Python numbers of one block at a time
            r1 = min(r0 + _WRITE_ROWS, dataset.n)
            lo, hi = X.indptr[r0], X.indptr[r1]
            pairs = [None] * (2 * (hi - lo))  # index, value, index, value, ...
            pairs[0::2] = (X.indices[lo:hi].astype(np.int64) + 1).tolist()
            pairs[1::2] = X.data[lo:hi].tolist()
            ends = (2 * (X.indptr[r0:r1 + 1] - lo)).tolist()
            for label, a, b in zip(dataset.labels[r0:r1].tolist(), ends, ends[1:]):
                fh.write(("%.17g" + " %d:%.17g" * ((b - a) // 2) + "\n") % (label, *pairs[a:b]))


def _rows_loop(rng, n, d, nnz):
    """gen_synthetic's index array, one sorted rng.choice per row: the reference of _rows."""
    indices = np.empty(n * nnz, dtype=np.int64)
    for i in range(n):
        indices[i * nnz : (i + 1) * nnz] = np.sort(rng.choice(d, nnz, replace=False))
    return indices


_native_rows = None  # whether the native row draw passed its probe in this process


def _same_draw(lib, n, d, nnz):
    """Whether the native draw gives _rows_loop's rows and generator state."""
    a, b = (np.random.default_rng(np.random.Philox(key=7)) for _ in range(2))
    return (np.array_equal(_stretch.choice_rows(lib, a, n, d, nnz), _rows_loop(b, n, d, nnz))
            and repr(a.bit_generator.state) == repr(b.bit_generator.state))


def _rows(rng, n, d, nnz):
    """_rows_loop's array, leaving rng in the state it leaves: drawn natively where
    numpy's choice runs Floyd's loop (d <= 10,000 or nnz <= d // 50) and d < 2^31,
    unless the probe at the first such call finds the native draw is not the
    loop's (then a one-line notice, and the loop from then on)."""
    global _native_rows
    lib = _stretch.load() if (d <= 10_000 or nnz <= d // 50) and d < 2**31 else None
    if lib is not None and _native_rows is None:
        _native_rows = all(_same_draw(lib, *s) for s in ((4, 1000, 20), (4, 7, 7), (2, 1, 1)))
        if not _native_rows:
            print("asyncopt: the native row draw differs from numpy's Generator.choice; "
                  "gen_synthetic draws row by row", file=sys.stderr)
    if lib is not None and _native_rows:
        return _stretch.choice_rows(lib, rng, n, d, nnz)
    return _rows_loop(rng, n, d, nnz)


def gen_synthetic(spec: SyntheticSpec, l2_reg=0.0) -> RegressionDataset:
    """Random sparse rows with a planted weight vector.

    Each row gets nnz coordinates sampled uniformly without replacement and
    standard normal values.  Labels come from a planted w (scaled so the
    logits are O(1)): linear labels are <w, a> plus N(0, noise^2); logistic
    labels are +-1 drawn with probability sigmoid(<w, a>).
    """
    rng = np.random.default_rng(np.random.Philox(key=spec.seed))
    n, d, nnz = spec.n, spec.d, spec.nnz
    indices = _rows(rng, n, d, nnz)
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
    with _open(path) as fh:
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
    with _open(path, "wt") as fh:
        for u, v in problem.edges:
            fh.write(f"{u} {v}\n")
        if top > problem.edges.max(initial=-1):
            fh.write(f"{top} {top}\n")


def remap_covered(dataset: RegressionDataset):
    """Drop all-zero feature columns; returns (new dataset, kept column ids)."""
    kept = np.flatnonzero(np.bincount(dataset.X.indices, minlength=dataset.d))
    if kept.size == dataset.d:
        return dataset, kept
    X = dataset.X[:, kept].tocsr()
    return (
        RegressionDataset(X=X, labels=dataset.labels, l2_reg=dataset.l2_reg),
        kept,
    )
