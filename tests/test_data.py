import gzip

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt.data import parse_edge_list, parse_libsvm, write_edge_list, write_libsvm


def test_parse_libsvm_basic(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("+1 1:0.5 3:-2\n-1 2:1.5\n0.25 1:1 2:2 3:3\n")
    data = parse_libsvm(p, l2_reg=0.1)
    assert data.X.shape == (3, 3)
    assert data.labels.tolist() == [1.0, -1.0, 0.25]
    dense = data.X.toarray()
    assert dense[0].tolist() == [0.5, 0.0, -2.0]
    assert dense[1].tolist() == [0.0, 1.5, 0.0]
    assert dense[2].tolist() == [1.0, 2.0, 3.0]


def test_parse_libsvm_comments_and_blank_lines(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("# header\n\n1 1:2.0\n")
    data = parse_libsvm(p, l2_reg=0.0)
    assert data.X.shape == (1, 1)


def test_parse_libsvm_rejects_nonincreasing_indices(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2:1.0 1:2.0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_libsvm(p, l2_reg=0.0)


def test_parse_libsvm_rejects_zero_index(tmp_path):
    p = tmp_path / "bad.txt"
    for tok in ("0:1.5", "-3:2"):
        p.write_text(f"1 {tok}\n")
        with pytest.raises(ValueError, match=f"bad feature '{tok}'"):
            parse_libsvm(p, l2_reg=0.0)


def test_libsvm_roundtrip(tmp_path):
    spec = ao.SyntheticSpec(n=40, d=12, nnz=4, label_model="linear", seed=3)
    data = ao.gen_synthetic(spec, l2_reg=0.5)
    p = tmp_path / "rt.txt"
    write_libsvm(p, data)
    back = parse_libsvm(p, l2_reg=0.5)
    assert back.X.shape == data.X.shape
    np.testing.assert_array_equal(back.X.toarray(), data.X.toarray())
    np.testing.assert_array_equal(back.labels, data.labels)


def test_libsvm_gzip(tmp_path):
    p = tmp_path / "toy.txt.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("1 1:3.5\n-1 2:1.0\n")
    data = parse_libsvm(p, l2_reg=0.0)
    assert data.X.toarray().tolist() == [[3.5, 0.0], [0.0, 1.0]]


def test_gen_synthetic_shapes_and_determinism():
    spec = ao.SyntheticSpec(n=50, d=15, nnz=5, label_model="logistic", seed=9)
    a = ao.gen_synthetic(spec, l2_reg=0.1)
    b = ao.gen_synthetic(spec, l2_reg=0.1)
    assert a.X.shape == (50, 15)
    np.testing.assert_array_equal(a.X.toarray(), b.X.toarray())
    np.testing.assert_array_equal(a.labels, b.labels)
    assert set(np.unique(a.labels)) <= {-1.0, 1.0}
    # every row has exactly nnz distinct entries
    nnz_per_row = np.diff(a.X.indptr)
    assert np.all(nnz_per_row == 5)
    for i in range(50):
        row = a.X.indices[a.X.indptr[i] : a.X.indptr[i + 1]]
        assert len(set(row.tolist())) == 5
        assert np.all(np.diff(row) > 0)


def test_gen_synthetic_coverage():
    # with n*nnz >> d, every coordinate should be covered with overwhelming
    # probability; the objective constructors rely on this
    spec = ao.SyntheticSpec(n=400, d=20, nnz=4, label_model="linear", seed=5)
    data = ao.gen_synthetic(spec, l2_reg=0.1)
    counts = np.zeros(20, dtype=int)
    counts[data.X.indices] = 1
    np.add.at(counts, data.X.indices, 0)
    covered = np.bincount(data.X.indices, minlength=20)
    assert np.all(covered > 0)
    # column usage should look uniform: each coordinate is drawn n*nnz/d
    # times in expectation, check 3 sigma of the binomial
    p = 4 / 20
    mean = 400 * p
    sd = np.sqrt(400 * p * (1 - p))
    assert np.all(np.abs(covered - mean) <= 3 * sd)


def test_gen_synthetic_linear_labels_correlate():
    spec = ao.SyntheticSpec(n=500, d=10, nnz=3, label_model="linear", seed=6, noise=0.01)
    data = ao.gen_synthetic(spec, l2_reg=0.0)
    # low-noise linear labels should be nearly in the row space: ridge fit
    # with tiny reg recovers them
    X = data.X.toarray()
    w, *_ = np.linalg.lstsq(X, data.labels, rcond=None)
    resid = np.linalg.norm(X @ w - data.labels) / np.linalg.norm(data.labels)
    assert resid < 0.05


def test_parse_edge_list(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1\n1 0\n2 2\n1 3\n")
    prob = parse_edge_list(p, beta=2.0)
    assert prob.num_vertices == 4
    assert prob.edges.tolist() == [[0, 1], [1, 3]]
    assert prob.beta == 2.0


def test_edge_list_roundtrip(tmp_path):
    prob = ao.VertexCoverProblem(
        num_vertices=5, edges=np.array([[0, 1], [1, 4], [2, 3]]), beta=1.0
    )
    p = tmp_path / "g.txt"
    write_edge_list(p, prob)
    back = parse_edge_list(p, beta=1.0)
    assert back.edges.tolist() == prob.edges.tolist()
    assert back.num_vertices == 5


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_libsvm_roundtrip_any_values(tmp_path_factory, data):
    d = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.sets(st.integers(0, d - 1), min_size=1), min_size=1, max_size=6))
    indices = np.array([j for r in rows for j in sorted(r)], dtype=np.int64)
    values = np.array(data.draw(st.lists(finite, min_size=indices.size, max_size=indices.size)))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    labels = np.array(data.draw(st.lists(finite, min_size=len(rows), max_size=len(rows))))
    X = sp.csr_matrix((values, indices, indptr), shape=(len(rows), d))
    p = tmp_path_factory.mktemp("libsvm") / "rt.txt"
    write_libsvm(p, ao.RegressionDataset(X=X, labels=labels))
    back = parse_libsvm(p, d=d)
    assert np.array_equal(back.X.indptr, X.indptr) and np.array_equal(back.X.indices, X.indices)
    assert back.X.data.tobytes() == X.data.tobytes()  # bit for bit, signed zeros too
    assert back.labels.tobytes() == labels.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8).flatmap(lambda nv: st.tuples(
    st.just(nv),
    st.sets(st.tuples(st.integers(0, max(nv - 1, 0)), st.integers(0, max(nv - 1, 0)))
            .map(sorted).map(tuple).filter(lambda e: e[0] < e[1])),
)))
def test_edge_list_roundtrip_any_graph(tmp_path_factory, graph):
    nv, edges = graph
    prob = ao.VertexCoverProblem(nv, np.array(sorted(edges), dtype=np.int64))
    p = tmp_path_factory.mktemp("edges") / "g.txt"
    write_edge_list(p, prob)
    back = parse_edge_list(p)
    assert back.num_vertices == nv  # isolated vertices above the last endpoint too
    assert back.edges.tolist() == prob.edges.tolist()


def test_remap_covered():
    X = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]]))
    data = ao.RegressionDataset(X=X, labels=np.array([1.0, -1.0]), l2_reg=0.1)
    mapped, kept = ao.remap_covered(data)
    assert kept.tolist() == [0, 2]
    assert mapped.X.shape == (2, 2)
    obj = ao.least_squares_objective(mapped)
    assert obj.d == 2
