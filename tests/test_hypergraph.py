from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncopt import _stretch, hypergraph
from asyncopt.hypergraph import (
    conflict_stats,
    conflict_stats_bruteforce,
    coordinate_weights,
    intersection_probability_bound,
    tau_bound_comparison,
)


def random_hypergraph(rng, n, d, max_size):
    edges = []
    for _ in range(n):
        k = int(rng.integers(1, max_size + 1))
        edges.append(rng.choice(d, size=min(k, d), replace=False))
    return edges


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(3, 40))
        edges = random_hypergraph(rng, n, d, 5)
        fast = conflict_stats(edges, d)
        slow = conflict_stats_bruteforce(edges, d)
        assert fast.degrees.tolist() == slow.degrees.tolist()
        assert fast.avg_conflict_degree == slow.avg_conflict_degree
        assert fast.max_conflict_degree == slow.max_conflict_degree
        assert fast.max_left_degree == slow.max_left_degree
        assert fast.max_right_degree == slow.max_right_degree


def assert_matches_oracle(edges, d):
    fast = conflict_stats(edges, d)
    slow = conflict_stats_bruteforce(edges, d)
    assert fast.degrees.tolist() == slow.degrees.tolist()
    assert fast.max_left_degree == slow.max_left_degree
    assert fast.max_right_degree == slow.max_right_degree
    counts = np.zeros(d, dtype=np.int64)
    for e in edges:
        for v in set(np.asarray(e).tolist()):
            counts[v] += 1
    assert coordinate_weights(edges, d).counts.tolist() == counts.tolist()


@st.composite
def hypergraphs(draw):
    """Unsorted hyperedges, possibly empty, with repeated coordinates, over d
    coordinates and up to 3 more that no hyperedge uses."""
    d = draw(st.integers(1, 40))
    edge = st.lists(st.integers(0, d - 1), max_size=8)
    edges = draw(st.lists(edge, min_size=1, max_size=60))
    return [np.array(e, dtype=np.int64) for e in edges], d + draw(st.integers(0, 3))


def _reference_stats(edges, d):
    """conflict_stats with the native library unloaded: the blocked B @ B^T."""
    with mock.patch.object(_stretch, "load", lambda: None):
        return conflict_stats(edges, d)


@settings(max_examples=100, deadline=None)
@given(hypergraphs(), st.sampled_from([np.int32, np.int64]))
def test_matches_bruteforce_on_any_hypergraph(graph, index_dtype):
    # the native count, for a pattern given with index arrays of either
    # dtype, the blocked reference and brute force give the same degrees
    edges, d = graph
    assert _stretch.load() is not None
    indptr = np.concatenate([[0], np.cumsum([e.size for e in edges])])
    M = sp.csr_matrix((len(edges), d))  # row i stores hyperedge i, its arrays set by hand
    M.data = np.ones(indptr[-1])
    M.indices, M.indptr = np.concatenate(edges).astype(index_dtype), indptr.astype(index_dtype)
    native = mock.Mock(wraps=hypergraph._native_degrees)
    with mock.patch.object(hypergraph, "_native_degrees", native):
        assert _same_stats(conflict_stats(M, d), conflict_stats_bruteforce(edges, d))
    assert native.call_count == 1
    assert_matches_oracle(edges, d)
    ref = _reference_stats(edges, d)
    assert ref.degrees.tolist() == conflict_stats_bruteforce(edges, d).degrees.tolist()


def _same_stats(a, b):
    return (np.array_equal(a.degrees, b.degrees) and a.avg_conflict_degree == b.avg_conflict_degree
            and a.max_conflict_degree == b.max_conflict_degree
            and a.max_left_degree == b.max_left_degree
            and a.max_right_degree == b.max_right_degree)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_sparse_pattern_gives_the_stats_of_its_rows(graph):
    # a sparse matrix whose row i stores hyperedge i (unsorted, repeated
    # coordinates, empty rows) is read through its CSR, without being changed
    edges, d = graph
    indptr = np.concatenate([[0], np.cumsum([e.size for e in edges])])
    cols = np.concatenate(edges)
    M = sp.csr_matrix((np.ones(cols.size), cols, indptr), shape=(len(edges), d))
    before = (M.indices.copy(), M.indptr.copy())
    assert _same_stats(conflict_stats(M, d), conflict_stats(edges, d))
    assert _same_stats(conflict_stats(M.tocsc(), d), conflict_stats(edges, d))
    assert coordinate_weights(M, d).counts.tolist() == coordinate_weights(edges, d).counts.tolist()
    assert np.array_equal(M.indices, before[0]) and np.array_equal(M.indptr, before[1])


def test_objective_pattern_gives_the_stats_of_its_term_supports(logistic_desk):
    obj, _ = logistic_desk
    supports = [obj.term_support(i) for i in range(obj.n)]
    assert _same_stats(conflict_stats(obj.A, obj.d), conflict_stats(supports, obj.d))


@pytest.mark.parametrize("cpus", [2, 3, None])
def test_threaded_native_count_covers_every_row_once(monkeypatch, cpus):
    # a floor of 1 splits any graph into one block per CPU; the blocks tile
    # the rows, trailing empty hyperedges included, and the degrees are equal.
    # None: an OS with no sched_getaffinity (macOS), where each CPU counts
    lib = _stretch.load()
    assert lib is not None
    real = lib.conflict_degrees
    spans = []

    def count(*args):
        spans.append(args[-3:-1])
        return real(*args)

    monkeypatch.setattr(lib, "conflict_degrees", count)
    monkeypatch.setattr(hypergraph, "THREAD_PAIR_WORK", 1)
    if cpus is None:
        monkeypatch.delattr(hypergraph.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(hypergraph.os, "cpu_count", lambda: 3)
        cpus = 3
    else:
        monkeypatch.setattr(hypergraph.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 17, 200):
        d = int(rng.integers(1, 30))
        edges = [rng.integers(0, d, size=int(rng.integers(0, 7))) for _ in range(n)]
        edges += [np.array([], dtype=np.int64)] * int(rng.integers(0, 3))
        spans.clear()
        fast = conflict_stats(edges, d)
        assert fast.degrees.tolist() == _reference_stats(edges, d).degrees.tolist()
        work = int((coordinate_weights(edges, d).counts ** 2).sum())
        assert len(spans) == min(cpus, max(work, 1))
        tiles = sorted(spans)
        assert tiles[0][0] == 0 and tiles[-1][1] == len(edges)
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))


def test_failed_build_gives_the_same_stats_with_one_notice(monkeypatch, capsys):
    def broken():
        raise OSError("gcc failed: no compiler here")

    monkeypatch.setattr(_stretch, "_build", broken)
    monkeypatch.setattr(_stretch, "_tried", False)
    monkeypatch.setattr(_stretch, "_lib", None)
    rng = np.random.default_rng(6)
    for _ in range(3):
        assert_matches_oracle(random_hypergraph(rng, 30, 12, 4), 12)
    err = capsys.readouterr().err
    assert err.count("asyncopt: native stretch kernels unavailable") == 1


def test_matches_bruteforce_one_row_per_block(monkeypatch):
    monkeypatch.setattr(hypergraph, "BLOCK_PAIR_WORK", 1)
    monkeypatch.setattr(_stretch, "load", lambda: None)  # the blocked reference
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        d = int(rng.integers(1, 30))
        edges = [rng.integers(0, d, size=int(rng.integers(1, 7))) for _ in range(n)]
        assert_matches_oracle(edges, d)


def test_disjoint_edges_have_zero_degree():
    edges = [np.array([0]), np.array([1]), np.array([2, 3])]
    st = conflict_stats(edges, 4)
    assert st.avg_conflict_degree == 0.0
    assert st.max_conflict_degree == 0
    this_tau, _ = tau_bound_comparison(st, 3)
    assert this_tau == np.inf


def test_empty_hyperedges_have_infinite_budgets():
    # no hyperedge touches a coordinate: both maximum degrees are 0
    st = conflict_stats([np.array([], dtype=np.int64)], 3)
    assert st.max_left_degree == st.max_right_degree == 0
    assert tau_bound_comparison(st, 1) == (np.inf, np.inf)


def test_identical_edges_fully_conflict():
    edges = [np.array([0, 1])] * 5
    st = conflict_stats(edges, 2)
    assert st.max_conflict_degree == 4
    assert st.avg_conflict_degree == 4.0
    assert intersection_probability_bound(st, 5) == 1.0


def test_coordinate_weights_counting_identity():
    rng = np.random.default_rng(3)
    edges = random_hypergraph(rng, 40, 15, 4)
    w = coordinate_weights(edges, 15)
    counts = np.zeros(15, dtype=int)
    for e in edges:
        counts[e] += 1
    assert w.counts.tolist() == counts.tolist()
    np.testing.assert_allclose(w.p, counts / 40)
    covered = counts > 0
    np.testing.assert_allclose(w.d_inv[covered] * w.p[covered], 1.0)
    assert np.all(w.d_inv[~covered] == 0.0)
    assert w.all_covered == bool(covered.all())


def test_uncovered_coordinates_flagged():
    w = coordinate_weights([np.array([0, 2])], 4)
    assert not w.all_covered
    assert w.uncovered_indices.tolist() == [1, 3]


def test_bound_is_capped_at_one():
    edges = [np.array([0])] * 3
    st = conflict_stats(edges, 1)
    assert intersection_probability_bound(st, 3) == 1.0


def test_rejects_out_of_range_coordinate():
    for fn in (conflict_stats, coordinate_weights):
        for edges in ([np.array([5])], [[0, -1], [2]], [[0, -1]], [[5, 0]]):
            with pytest.raises(ValueError, match="hyperedge 0 references coordinate"):
                fn(edges, 3)
        with pytest.raises(ValueError):
            fn([], 3)
    with pytest.raises(ValueError, match="hyperedge 1 references coordinate 1 "):
        conflict_stats(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]])), 1)
    with pytest.raises(ValueError, match="need at least one hyperedge"):
        conflict_stats(sp.csr_matrix((0, 3)), 3)
