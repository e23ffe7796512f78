"""Term/coordinate bipartite graph and conflict-graph statistics.

Two terms conflict when their hyperedges share at least one coordinate.  The
average conflict degree drives how much staleness an asynchronous run can
tolerate, so these statistics are reported alongside every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _coord_arrays(edges):
    return [np.asarray(e, dtype=np.int64) for e in edges]


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


def conflict_stats(edges, d) -> ConflictStats:
    """Conflict-graph degree statistics via a coordinate-inverted index.

    Cost is O(sum over coordinates of (incident terms)^2) set operations,
    which beats the O(n^2) pairwise scan on sparse instances.
    """
    coords = _coord_arrays(edges)
    n = len(coords)
    if n < 1:
        raise ValueError("need at least one hyperedge")
    incident = [[] for _ in range(d)]
    max_left = 0
    for i, c in enumerate(coords):
        if c.size and c[-1] >= d:
            raise ValueError(f"hyperedge {i} references coordinate >= d")
        max_left = max(max_left, c.size)
        for v in c:
            incident[v].append(i)
    neighbors = [set() for _ in range(n)]
    max_right = 0
    for terms in incident:
        max_right = max(max_right, len(terms))
        if len(terms) > 1:
            for i in terms:
                neighbors[i].update(terms)
    degrees = np.array(
        [len(nb) - 1 if nb else 0 for nb in neighbors], dtype=np.int64
    )
    return ConflictStats(
        avg_conflict_degree=float(degrees.mean()),
        max_conflict_degree=int(degrees.max()),
        max_left_degree=int(max_left),
        max_right_degree=int(max_right),
        degrees=degrees,
    )


def conflict_stats_bruteforce(edges, d) -> ConflictStats:
    """O(n^2) pairwise-intersection oracle, for testing conflict_stats."""
    coords = [set(c.tolist()) for c in _coord_arrays(edges)]
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
    coords = _coord_arrays(edges)
    counts = np.zeros(d, dtype=np.int64)
    for c in coords:
        counts[c] += 1
    return weights_from_counts(counts, len(coords))


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
    degrees.  No leading constants are applied.
    """
    if stats.avg_conflict_degree > 0:
        this_work = n / stats.avg_conflict_degree
    else:
        this_work = np.inf
    prior = (n / (stats.max_right_degree * stats.max_left_degree**2)) ** 0.25
    return (this_work, prior)
