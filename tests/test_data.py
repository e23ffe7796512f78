import contextlib
import decimal
import functools
import gzip
import io
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asyncopt as ao
from asyncopt import _stretch
from asyncopt import data as data_mod
from asyncopt.data import parse_edge_list, parse_libsvm, write_edge_list, write_libsvm


def _reference(call, *args, **kwargs):
    """call(*args, **kwargs) with the native library unloaded: the per-line Python reader."""
    with mock.patch.object(_stretch, "load", lambda: None):
        return call(*args, **kwargs)


@contextlib.contextmanager
def _text_reads():
    """Yields the list of the arguments of each _read_text call made inside."""
    calls, read_text = [], data_mod._read_text
    with mock.patch.object(data_mod, "_read_text", lambda *a: calls.append(a) or read_text(*a)):
        yield calls


def _outcome(call, *args, **kwargs):
    """Every array of the parsed dataset as bytes, or the exception's type and message."""
    try:
        ds = call(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    X = ds.X
    return (X.shape, X.indptr.dtype, X.indptr.tobytes(), X.indices.dtype, X.indices.tobytes(),
            X.data.tobytes(), ds.labels.dtype, ds.labels.tobytes())


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


def test_parse_libsvm_rejects_nonfinite_label(tmp_path):
    p = tmp_path / "bad.txt"
    for label in ("nan", "inf", "-inf"):
        p.write_text(f"1 1:0.5\n{label} 1:1.0\n")
        with pytest.raises(ValueError, match=f"line 2: bad label '{label}'"):
            parse_libsvm(p, l2_reg=0.0)


@pytest.mark.parametrize("reader", ["native", "reference"])
def test_parse_libsvm_index_above_requested_d(tmp_path, reader):
    p = tmp_path / "wide.txt"
    p.write_text("-1 1:2.0\n1 3:1.0\n")
    parse = parse_libsvm if reader == "native" else functools.partial(_reference, parse_libsvm)
    with pytest.raises(ValueError, match=r"^line 2: feature index 3 exceeds requested d=2$"):
        parse(p, d=2)
    d = 5 - 2**64  # not the d of 5 that a 64-bit wrap gives
    with pytest.raises(ValueError, match=f"^line 1: feature index 1 exceeds requested d={d}$"):
        parse(p, d=d)
    assert parse(p, d=3).X.shape == (2, 3)


def test_libsvm_roundtrip(tmp_path):
    spec = ao.SyntheticSpec(n=40, d=12, nnz=4, label_model="linear", seed=3)
    data = ao.gen_synthetic(spec, l2_reg=0.5)
    p = tmp_path / "rt.txt"
    write_libsvm(p, data)
    back = parse_libsvm(p, l2_reg=0.5)
    assert back.X.shape == data.X.shape
    np.testing.assert_array_equal(back.X.toarray(), data.X.toarray())
    np.testing.assert_array_equal(back.labels, data.labels)


def _write_libsvm_per_feature(path, dataset):
    """write_libsvm as one f-string per feature: the writer whose bytes it keeps."""
    X = dataset.X
    with open(path, "w") as fh:
        for i in range(dataset.n):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(
                f"{j + 1}:{v:.17g}" for j, v in zip(X.indices[lo:hi], X.data[lo:hi])
            )
            fh.write(f"{dataset.labels[i]:.17g} {feats}\n")


@pytest.mark.parametrize("block_rows", [3, 4096])
def test_write_libsvm_bytes_equal_per_feature_formatting(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(data_mod, "_WRITE_ROWS", block_rows)
    values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 3.0, -2.0, 1e16,
              0.1, 1 / 3, -1.7976931348623157e308, 123456789.0, 2.5e-300]
    labels = np.array([2.5, -7.0, 0.0, -0.0, 1e308, 4.0, 5e-324])
    rng = np.random.default_rng(4)
    rows = [np.sort(rng.choice(9, size=k, replace=False)) for k in (3, 1, 9, 1, 4, 5, 2)]
    indices = np.concatenate(rows)
    data = np.resize(values, indices.size)
    indptr = np.cumsum([0] + [r.size for r in rows])
    ds = ao.RegressionDataset(X=sp.csr_matrix((data, indices, indptr), shape=(len(rows), 9)),
                              labels=labels)
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    write_libsvm(new, ds)
    _write_libsvm_per_feature(old, ds)
    assert new.read_bytes() == old.read_bytes()
    for parse in (parse_libsvm, functools.partial(_reference, parse_libsvm)):
        back = parse(new, d=9)
        assert back.X.indptr.tolist() == indptr.tolist()
        assert back.X.indices.tolist() == indices.tolist()
        assert back.X.data.tobytes() == data.tobytes() and back.labels.tobytes() == labels.tobytes()


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


@pytest.mark.parametrize("field, value", [("noise", np.nan), ("noise", np.inf), ("noise", -0.1),
                                          ("seed", -1), ("seed", 2**128)])
def test_synthetic_spec_refuses_bad_noise_and_seed(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ao.SyntheticSpec(n=5, d=4, nnz=2, **{field: value})
    ao.SyntheticSpec(n=5, d=4, nnz=2, noise=0.0, seed=2**128 - 1)  # both ends of the range


@pytest.mark.parametrize("field", ["n", "d", "nnz", "seed"])
def test_synthetic_spec_refuses_a_count_that_is_not_an_integer(field):
    for value in (3.5, 4.0, "4"):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            ao.SyntheticSpec(**{"n": 5, "d": 4, "nnz": 2, field: value})
    ao.SyntheticSpec(n=np.int64(5), d=np.int32(4), nnz=np.uint8(2), seed=np.int64(3))


_NOTICE = "asyncopt: the native row draw differs"


@contextlib.contextmanager
def _row_draw(mode):
    """The native row draw as loaded ("built"), without the library ("unbuilt"),
    or with one wrong value in each of its arrays ("wrong"), its probe not yet
    run; yields the list of (n, d, nnz) it is called with."""
    real, calls = _stretch.choice_rows, []

    def draw(lib, rng, n, d, nnz):
        calls.append((n, d, nnz))
        out = real(lib, rng, n, d, nnz)
        out[-1] += mode == "wrong"
        return out

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(data_mod, "_native_rows", None))
        stack.enter_context(mock.patch.object(_stretch, "choice_rows", draw))
        if mode == "unbuilt":
            stack.enter_context(mock.patch.object(_stretch, "_tried", True))
            stack.enter_context(mock.patch.object(_stretch, "_lib", None))
        yield calls


def _philox(seed):
    return np.random.default_rng(np.random.Philox(key=seed))


@st.composite
def _row_shapes(draw):
    """(d, nnz): d up to 30,000, nnz few, about d // 50 (both sides of numpy's
    Floyd boundary above d = 10,000), d itself, or any."""
    d = draw(st.one_of(st.integers(1, 30_000), st.sampled_from([1, 2, 10_000, 10_001])))
    nnz = draw(st.one_of(st.integers(1, min(d, 40)), st.just(d), st.integers(1, d),
                         st.integers(max(1, d // 50 - 1), min(d, d // 50 + 2))))
    return d, nnz


@pytest.mark.parametrize("mode", ["built", "unbuilt", "wrong"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), n=st.integers(1, 300), shape=_row_shapes(),
       model=st.sampled_from(["linear", "logistic"]))
@example(seed=0, n=300, shape=(12_000, 240), model="logistic")  # Floyd's loop, the last nnz
@example(seed=0, n=30, shape=(12_000, 241), model="logistic")  # the tail shuffle, the first
@example(seed=5, n=300, shape=(1, 1), model="linear")
@example(seed=5, n=20, shape=(7, 7), model="linear")
def test_native_row_draw_is_the_loop(mode, seed, n, shape, model):
    if mode != "unbuilt" and _stretch.load() is None:
        pytest.skip("the native library did not build")
    d, nnz = shape
    n = min(n, max(1, 100_000 // nnz))  # at most 100,000 nonzeros
    spec = ao.SyntheticSpec(n=n, d=d, nnz=nnz, label_model=model, seed=seed)
    with _row_draw(mode) as calls, contextlib.redirect_stderr(io.StringIO()) as err:
        got, rng = ao.gen_synthetic(spec), _philox(seed)
        rows = data_mod._rows(rng, n, d, nnz)
    with mock.patch.object(data_mod, "_rows", data_mod._rows_loop):
        want, ref = ao.gen_synthetic(spec), _philox(seed)
    for a, b in ((got.X.data, want.X.data), (got.X.indices, want.X.indices),
                 (got.X.indptr, want.X.indptr), (got.labels, want.labels),
                 (rows, data_mod._rows_loop(ref, n, d, nnz))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    floyd = d <= 10_000 or nnz <= d // 50
    if mode == "built" and floyd:  # the probe's three shapes, then both draws natively
        assert len(calls) == 5 and calls[3:] == [(n, d, nnz)] * 2
    else:  # the wrong draw fails the probe's first shape, and the loop draws from then on
        assert len(calls) == (mode == "wrong" and floyd)
    assert err.getvalue().count(_NOTICE) == (mode == "wrong" and floyd)


def test_native_row_draw_redraws_a_rejected_value():
    """bounded(r) draws again when the low half of u * (r + 1) falls below
    (2^32 - 1 - r) mod (r + 1), as numpy's Lemire draw does: at r = 29,999 one
    draw in 250,000 does, so the test seeks such a draw in a Philox stream."""
    lib = _stretch.load()
    if lib is None:
        pytest.skip("the native library did not build")
    d = 30_000
    low = _philox(11).bit_generator.random_raw(1 << 21) & 0xFFFFFFFF  # each raw's first uint32
    rejected = np.flatnonzero((low * d) & 0xFFFFFFFF < (2**32 - d) % d)
    assert rejected.size
    for nnz in (1, 3):
        rng, ref = _philox(11), _philox(11)
        for g in (rng, ref):
            g.bit_generator.random_raw(rejected[0])  # the next uint32 is rejected at r = d - 1
        rows = _stretch.choice_rows(lib, rng, 2, d, nnz)
        want = np.concatenate([np.sort(ref.choice(d, nnz, replace=False)) for _ in range(2)])
        assert rows.tolist() == want.tolist()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


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


# The differential test's alphabet: numbers the native grammar takes, numbers only
# Python's int and float take (_PYTHON_ONLY, and the index forms that are not all
# digits), tokens neither takes, and bytes whose text-mode lines differ from their
# byte lines.
_LABELS = ["1", "-1", "+1", "0.25", "-0", "3e2", ".5", "7.", "1_0"]
_BAD_LABELS = ["0x10", "inf", "nan", "-inf", "abc", "1e999", "1:2"]
_INDEX_FORMS = [str] * 8 + [lambda i: f"+{i}", lambda i: f"00{i}", lambda i: "_".join(str(i))]
_VALUES = ["0.5", "-1.25e-3", "7", ".5", "1.", "-0", "+2", "1E+2", "1e-400", "4.9e-324",
           "0.1000000000000000055511151231257827", "123456789012345678901234567890",
           "1_0", "+2_5e-1"]
_BAD_FEATURES = ["0x10:1", "1e3:1", "3:inf", "3:nan", "3:-inf", "3:0x1p3", "3:1e999", "1.5:2",
                 "3:", ":3", "qid:1", "1:2:3", "0:1", "-3:2", "#", "3:\x0c1",
                 "99999999999999999999:1"]
_SEPS = [" ", "\t", "  ", " \t "]
_PYTHON_ONLY = {"1_0", "+2_5e-1"}


@st.composite
def _libsvm_file(draw):
    """(bytes, outside, top) of a file: lines of the grammar and of Python's wider
    numbers; in some files refused tokens on some lines; in a few, bytes whose
    text-mode lines are not their byte lines (a byte outside ASCII, a lone \\r).
    outside says whether a line holds a token outside the native grammar, and
    top is the largest feature index drawn for a row."""
    bad_file, odd = draw(st.booleans()), not draw(st.integers(0, 3))
    raw, outside, top = b"", False, 0
    for _ in range(draw(st.integers(0, 12))):
        bad = bad_file and draw(st.booleans())
        kind = draw(st.sampled_from(["row"] * 12 + ["comment", "blank", "label"]
                                    + ["odd"] * 2 * odd))
        if kind == "comment":
            body = draw(st.sampled_from(["# c 1:2", "  #", "\t# x"]))
        elif kind == "blank":
            body = draw(st.sampled_from(["", "  ", "\t"]))
        elif kind == "label":  # a row with no feature, which the dataset refuses
            body = draw(st.sampled_from(_LABELS))
            outside |= body in _PYTHON_ONLY
        elif kind == "odd":
            body = draw(st.sampled_from(["1 1:2\xff", "\xff", "1 1:2\r3:4"]))
        else:
            body = draw(st.sampled_from(_LABELS + _BAD_LABELS * bad))
            outside |= body in _PYTHON_ONLY or body in _BAD_LABELS
            idx = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=5)))
            top = max(top, idx[-1])
            if bad and draw(st.booleans()):
                idx, outside = draw(st.permutations(idx + idx[:1])), True
            feats = []
            for i in idx:
                i_s, v_s = draw(st.sampled_from(_INDEX_FORMS))(i), draw(st.sampled_from(_VALUES))
                outside |= not i_s.isdigit() or v_s in _PYTHON_ONLY
                feats.append(f"{i_s}:{v_s}")
            if bad and draw(st.booleans()):
                feats.insert(draw(st.integers(0, len(feats))),
                             draw(st.sampled_from(_BAD_FEATURES)))
                outside = True
            for f in feats:
                body += draw(st.sampled_from(_SEPS)) + f
            body = draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " "]))
        end = draw(st.sampled_from(["\n", "\r\n", " \r\n"] + ["\r"] * odd))
        raw += body.encode("latin-1") + end.encode()
    if draw(st.booleans()):  # no line end after the last line
        raw = raw.rstrip(b"\r\n")
    return raw, outside, top


@settings(max_examples=300, deadline=None)
@given(_libsvm_file(), st.booleans(), st.integers(1, 48), st.none() | st.integers(6, 13))
# a line that errs after the wide index, and one before it
@example((b"# c 1:2\n1 1:0.5 2:0.5 99999999999999999999:1\n1 1:0.5 1:0.5\n", True, 2),
         False, 48, None)
@example((b"1 1:0.5 1:0.5\n1 99999999999999999999:1\n", True, 1), False, 48, None)
# a file that is not ASCII, whose error names no line
@example((b"1 1:2\xff\n1 1:0.5\n1 99999999999999999999:1 1:0.5\n", True, 2), False, 1, None)
# lines the native grammar would take, were a block's bytes not first found plain: a
# comment that does not decode, and a comment that a lone \r ends in text mode
@example((b"# \xff\n1 1:0.5\n", False, 1), False, 48, None)
@example((b"# c\r1 1:0.5\n", False, 1), False, 48, None)
def test_native_libsvm_reader_matches_the_reference(tmp_path_factory, file, gz, block, d):
    if _stretch.load() is None:
        pytest.skip("the native library did not build")
    raw, outside, top = file
    p = tmp_path_factory.mktemp("diff") / ("f.txt.gz" if gz else "f.txt")
    with (gzip.open if gz else open)(p, "wb") as fh:
        fh.write(raw)
    expected = _outcome(_reference, parse_libsvm, p, d=d)
    with mock.patch.object(data_mod, "_BLOCK", block), _text_reads() as text_reads:
        got = _outcome(parse_libsvm, p, d=d)
    assert got == expected
    # the native reader reads a nonempty file whose byte lines are its text lines
    # whole, or declines it at the first line outside its grammar (an index
    # above d among them); the Python reader then reads the whole file, once
    plain = raw.isascii() and raw.count(b"\r") == raw.count(b"\r\n")
    declined = not raw or not plain or outside or (d is not None and top > d)
    assert len(text_reads) == declined


@pytest.mark.parametrize("line", [f"{label} 2:0.5 5:-1" for label in _LABELS + _BAD_LABELS]
                         + [f"1 2:0.5 {feat}" for feat in _BAD_FEATURES]
                         + [f"1 {form(7)}:{v}" for form in _INDEX_FORMS[7:] for v in _VALUES])
def test_native_libsvm_reader_matches_the_reference_token_by_token(tmp_path, line):
    if _stretch.load() is None:
        pytest.skip("the native library did not build")
    p = tmp_path / "line.txt"
    p.write_bytes(f"1 1:2\n{line}\n-1 3:4\n".encode())
    assert _outcome(parse_libsvm, p) == _outcome(_reference, parse_libsvm, p)


@pytest.mark.parametrize("d", [1_000, 100_000])  # the benchmark's two shapes, fewer rows
def test_native_libsvm_reader_on_written_datasets(tmp_path, d):
    if _stretch.load() is None:
        pytest.skip("the native library did not build")
    spec = ao.SyntheticSpec(n=3_000, d=d, nnz=20, label_model="logistic", seed=3000)
    ds = ao.gen_synthetic(spec)
    for name in ("w.txt", "w.txt.gz"):
        p = tmp_path / name
        write_libsvm(p, ds)
        with mock.patch.object(data_mod, "_BLOCK", 1 << 16), _text_reads() as text_reads:
            got = _outcome(parse_libsvm, p)  # in many blocks
        assert got == _outcome(_reference, parse_libsvm, p)
        assert not text_reads  # write_libsvm's %.17g and %d are inside the native grammar


def test_native_libsvm_reader_declines_a_file_at_a_late_line(tmp_path):
    """A line outside the native grammar in a late block sends the whole file,
    once, to the Python reader: a valid one gives the reference's dataset, a
    malformed one the reference's error, with its line number."""
    if _stretch.load() is None:
        pytest.skip("the native library did not build")
    p = tmp_path / "w.txt"
    write_libsvm(p, ao.gen_synthetic(ao.SyntheticSpec(n=400, d=50, nnz=5, seed=3)))
    lines = p.read_bytes().splitlines(keepends=True)
    for at, line, error in ((400, b"1 +7:0.5 9:1_0\n", None),  # valid, in the last block
                            (300, b"1 9:1 7:0.5\n", "indices must be strictly increasing")):
        p.write_bytes(b"".join(lines[:at] + [line] + lines[at:]))
        with mock.patch.object(data_mod, "_BLOCK", 1 << 10), _text_reads() as text_reads:
            got = _outcome(parse_libsvm, p)  # in about fifty blocks
        assert got == _outcome(_reference, parse_libsvm, p)
        assert len(text_reads) == 1
        if error is None:
            assert got[0] == (401, 50)
        else:
            assert got == (ValueError, f"line {at + 1}: {error}")


_ROUNDINGS = [decimal.ROUND_DOWN, decimal.ROUND_UP, decimal.ROUND_HALF_EVEN]


@st.composite
def _decimal_token(draw):
    """A number of the native grammar near where a fast conversion would go wrong:
    a double printed with 15 to 19 significant digits or by repr; the midpoint of
    two adjacent doubles cut to 15 to 21 digits (past 19, strtod's), rounded down,
    up or half-even; leading and trailing zeros, signed zeros, integers of up to
    19 digits, and up to 19 digits scaled by a power of ten on both sides of 10^+-19."""
    kind = draw(st.sampled_from(["double", "midpoint", "leading", "trailing", "zero", "int",
                                 "power"]))
    sign = draw(st.sampled_from(["", "-", "+"]))
    digits = draw(st.integers(0, 10**19 - 1).map(str))
    if kind == "double":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        tok = draw(st.sampled_from([f"%.{p}g" % x for p in range(15, 20)] + [repr(x)]))
        return tok if math.isfinite(float(tok)) else repr(x)  # a cut above the largest double
    if kind == "midpoint":
        # in [0.92, 1) a 19-digit cut can lie above a midpoint by less than the 2^-64
        # that the exact division resolves, so that only its sticky bit rounds it up
        near_one = st.integers(2**53 * 23 // 25, 2**53 - 1).map(lambda m: m / 2**53)
        x = draw(st.floats(0, 1e308) | near_one)
        exact = decimal.Context(prec=2000)  # a double's decimal expansion has at most 767 digits
        pair = exact.add(decimal.Decimal(x), decimal.Decimal(np.nextafter(x, 2 * x + 1)))
        cut = decimal.Context(prec=draw(st.integers(15, 21)),
                              rounding=draw(st.sampled_from(_ROUNDINGS)))
        mid = exact.divide(pair, 2)
        return sign + str(cut.plus(mid))
    if kind == "leading":
        return f"{sign}0.{'0' * draw(st.integers(0, 25))}{digits}"
    if kind == "trailing":
        return sign + digits + draw(st.sampled_from(["0" * draw(st.integers(1, 25)),
                                                     "." + "0" * draw(st.integers(0, 25))]))
    if kind == "power":
        return f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-25, 25))}"
    if kind == "zero":
        return sign + draw(st.sampled_from(["0", "0.0", ".0", "0.", "000", "0e5", "0e-400"]))
    return sign + digits


# where the exact conversion hands over to strtod: 19 and 20 significant digits,
# a power of ten of +-19 and +-20, and numbers far outside the exact range
@example(["1234567890123456789", "12345678901234567891", "0.1234567890123456789",
          "0.12345678901234567891", "1234567890123456789.5", "12345678901234567890",
          "9007199254740993.0001", "9007199254740993.0000"])
@example(["1e19", "1e20", "1e-19", "1e-20", "9999999999999999999e19", "9999999999999999999e-19",
          "9999999999999999999e-20", "1.5e-18", "0.00000000000000000015", "15e-20"])
@example(["9999999999999999999", "-9999999999999999999", "18446744073709551615",
          "4.9e-324", "2.4703282292062328e-324", "1e-400", "1.7976931348623157e308"])
# 19-digit numbers less than 2^-64 above the midpoint of two doubles
@example(["0.9941503669568276247", "0.9308886813042734354", "-0.9704518068280107435"])
@settings(max_examples=300, deadline=None)
@given(st.lists(_decimal_token(), min_size=1, max_size=40))
def test_native_libsvm_reader_rounds_every_number_as_float_does(tmp_path_factory, tokens):
    if _stretch.load() is None:
        pytest.skip("the native library did not build")
    p = tmp_path_factory.mktemp("exact") / "t.txt"
    p.write_text("".join(f"{tok} 1:{tok}\n" for tok in tokens))
    with _text_reads() as text_reads:
        ds = parse_libsvm(p)
    assert not text_reads  # every token is inside the native grammar
    want = np.array([float(tok) for tok in tokens])
    assert ds.labels.tobytes() == want.tobytes()
    assert ds.X.data.tobytes() == want.tobytes()
