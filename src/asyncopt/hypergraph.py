"""Term/coordinate bipartite graph and conflict-graph statistics.

Two terms conflict when their hyperedges share at least one coordinate.  The
average conflict degree drives how much staleness an asynchronous run can
tolerate, so these statistics are reported alongside every benchmark.  They
and the coordinate weights are read from one 0/1 sparse pattern B of the
hyperedges.  The degrees cost sum_v count_v^2 pair work: the native count
of _stretch.c walks each term's columns of B, in int32 indices, with a
stamp array, on one thread per CPU when the work is large; when the library
does not load, or B has 2^31 nonzeros or more, the reference forms B @ B^T
in row blocks of bounded pair work.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _stretch

__all__ = [
    "ConflictStats",
    "CoordinateWeights",
    "conflict_stats",
    "conflict_stats_bruteforce",
    "coordinate_weights",
    "intersection_probability_bound",
    "tau_bound_comparison",
    "weights_from_counts",
]

BLOCK_PAIR_WORK = 2**25  # pair work of one row block of the reference's B @ B^T; bounds its memory
THREAD_PAIR_WORK = 2**23  # least pair work of a thread of the native count, ~10 ms


@dataclass(frozen=True)
class ConflictStats:
    avg_conflict_degree: float
    max_conflict_degree: int
    max_left_degree: int
    max_right_degree: int
    degrees: np.ndarray


@dataclass(frozen=True)
class CoordinateWeights:
    """Per-coordinate inclusion probabilities p_v and their inverses.

    ``p[v]`` is the probability that a uniformly sampled hyperedge contains
    coordinate v.  ``d_inv[v] = 1/p[v]`` where covered; uncovered coordinates
    get ``d_inv = 0`` and are flagged in ``covered`` so callers can remap them
    out of the optimization variable space.
    """

    p: np.ndarray
    d_inv: np.ndarray
    covered: np.ndarray
    counts: np.ndarray

    @property
    def all_covered(self):
        return bool(self.covered.all())

    @property
    def uncovered_indices(self):
        return np.flatnonzero(~self.covered)


def _pattern(edges, d):
    """The de-duplicated 0/1 CSR pattern B (terms x coordinates) of the
    hyperedges: a list of coordinate arrays, or a scipy sparse matrix whose
    row i stores hyperedge i (an objective's A), read through its CSR."""
    n = edges.shape[0] if sp.issparse(edges) else len(edges)
    if n < 1:
        raise ValueError("need at least one hyperedge")
    if sp.issparse(edges):
        csr = edges.tocsr()
        indptr, cols = csr.indptr.copy(), csr.indices.copy()  # B sorts its own, not the caller's
    else:
        indptr = np.concatenate([[0], np.cumsum(np.fromiter(map(len, edges), np.int64, n))])
        cols = np.concatenate(edges).astype(np.int64, copy=False)
    bad = np.flatnonzero((cols < 0) | (cols >= d))
    if bad.size:
        i = np.searchsorted(indptr, bad[0], side="right") - 1
        raise ValueError(f"hyperedge {i} references coordinate {cols[bad[0]]} outside [0, {d})")
    B = sp.csr_matrix((np.ones(cols.size, dtype=bool), cols, indptr), shape=(n, d))
    B.sum_duplicates()
    return B


def conflict_stats(edges, d) -> ConflictStats:
    """Conflict-graph degree statistics from the pattern B of the hyperedges
    (a list of coordinate arrays, or a sparse matrix such as an objective's
    A, whose rows' stored entries are the hyperedges).

    Term i's degree is the number of distinct other terms in the columns of
    B that row i touches, the nonzeros of row i of B @ B^T less itself.  A
    row's pair work is the sum of its coordinates' term counts, so the cost
    is sum_v count_v^2 pair work.  The native count walks the columns with a
    stamp array of n entries and forms no part of B @ B^T; when the library
    does not load, the product is formed and discarded in row blocks.
    """
    B = _stretch.narrow(_pattern(edges, d))
    Bt = _stretch.narrow(B.T.tocsr())
    row_len = np.diff(B.indptr)
    col_len = np.diff(Bt.indptr).astype(np.int64)
    lib = _stretch.load()
    if lib is None or not _stretch.is_int32(B, Bt):
        degrees = _reference_degrees(B, Bt, col_len)
    else:
        degrees = _native_degrees(lib, B, Bt, col_len)
    return ConflictStats(
        avg_conflict_degree=float(degrees.mean()),
        max_conflict_degree=int(degrees.max()),
        max_left_degree=int(row_len.max()),
        max_right_degree=int(col_len.max()),
        degrees=degrees,
    )


def _row_work(B, col_len):
    """The prefix sums, from 0, of the rows' pair work."""
    return np.concatenate([[0], np.cumsum(B @ col_len)])


def _reference_degrees(B, Bt, col_len):
    """The row counts of B @ B^T less the term itself, the product formed in
    row blocks of at most BLOCK_PAIR_WORK pair work, so in bounded memory."""
    row_len = np.diff(B.indptr)
    work = _row_work(B, col_len)
    degrees = np.empty(B.shape[0], dtype=np.int64)
    lo = 0
    while lo < B.shape[0]:
        hi = max(lo + 1, np.searchsorted(work, work[lo] + BLOCK_PAIR_WORK, side="right") - 1)
        degrees[lo:hi] = np.diff((B[lo:hi] @ Bt).indptr) - (row_len[lo:hi] > 0)
        lo = hi
    return degrees


def _native_degrees(lib, B, Bt, col_len):
    """The degrees by the native stamp count of _stretch.c, over contiguous
    row blocks of equal pair work, one thread each: at most one per CPU this
    process may run on, and at least THREAD_PAIR_WORK pair work each."""
    n = B.shape[0]
    total = int(col_len @ col_len)
    # where the OS cannot say which CPUs the process may run on (macOS), every CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = max(1, min(cpus or 1, total // THREAD_PAIR_WORK))
    bounds = [0, n]
    if parts > 1:
        bounds = np.searchsorted(_row_work(B, col_len), total * np.arange(parts + 1) // parts)
        bounds = bounds.tolist()
        bounds[-1] = n  # rows of no pair work (empty hyperedges) after the last target
    # held, so that the addresses passed stay valid
    held = [np.ascontiguousarray(a) for M in (B, Bt) for a in (M.indptr, M.indices)]
    args = [a.ctypes.data for a in held]
    degrees = np.empty(n, dtype=np.int64)

    def count(k):
        return lib.conflict_degrees(*args, n, bounds[k], bounds[k + 1], degrees.ctypes.data)

    if parts == 1:
        codes = [count(0)]
    else:
        with ThreadPoolExecutor(parts - 1) as pool:  # ctypes drops the interpreter lock
            futures = [pool.submit(count, k) for k in range(1, parts)]
            codes = [count(0)] + [f.result() for f in futures]
    if min(codes) < 0:
        raise MemoryError("the native conflict count could not allocate its stamp array")
    return degrees


def conflict_stats_bruteforce(edges, d) -> ConflictStats:
    """O(n^2) pairwise-intersection oracle, for testing conflict_stats."""
    coords = [set(np.asarray(c, dtype=np.int64).tolist()) for c in edges]
    n = len(coords)
    degrees = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if coords[i] & coords[j]:
                degrees[i] += 1
                degrees[j] += 1
    max_left = max(len(c) for c in coords)
    counts = np.zeros(d, dtype=np.int64)
    for c in coords:
        for v in c:
            counts[v] += 1
    return ConflictStats(
        avg_conflict_degree=float(degrees.mean()),
        max_conflict_degree=int(degrees.max()),
        max_left_degree=int(max_left),
        max_right_degree=int(counts.max()),
        degrees=degrees,
    )


def coordinate_weights(edges, d) -> CoordinateWeights:
    """p_v = (#hyperedges containing v) / n, and d_inv = 1/p_v where covered."""
    B = _pattern(edges, d)
    return weights_from_counts(np.bincount(B.indices, minlength=d), B.shape[0])


def weights_from_counts(counts, n) -> CoordinateWeights:
    """The weights of n hyperedges, counts[v] of which contain coordinate v."""
    if n < 1:
        raise ValueError("need at least one hyperedge")
    counts = np.asarray(counts, dtype=np.int64)
    covered = counts > 0
    p = counts / n
    d_inv = np.zeros(counts.size)
    d_inv[covered] = n / counts[covered]
    return CoordinateWeights(p=p, d_inv=d_inv, covered=covered, counts=counts)


def intersection_probability_bound(stats: ConflictStats, n: int):
    """Upper bound on P(two with-replacement samples intersect): 2*avg/n, capped at 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, 2.0 * stats.avg_conflict_degree / n)


def tau_bound_comparison(stats: ConflictStats, n: int):
    """Staleness budgets: (n / avg conflict degree, (n / (max_right * max_left^2))^(1/4)).

    The first is this library's budget (infinite when the conflict graph is
    empty); the second is the classical budget based on maximum bipartite
    degrees (infinite when every hyperedge is empty); no leading constants.
    """
    this_work = n / stats.avg_conflict_degree if stats.avg_conflict_degree > 0 else np.inf
    work = stats.max_right_degree * stats.max_left_degree**2
    prior = (n / work) ** 0.25 if work > 0 else np.inf
    return (this_work, prior)
