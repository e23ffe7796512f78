"""The native stretch kernels, enumeration (``moment``), simulated segment
(``sim_segment``), libsvm reader (which parses a block whole or declines it,
and parse_libsvm then reads the file in Python; it scans each number once and
rounds it exactly in integers, or with strtod past 19 significant digits or a
power of ten past 10^+-19), conflict-degree count and synthetic row draw
(``choice_rows``) of _stretch.c: build, load, and bind to a kernel.

``load()`` compiles _stretch.c with the installed gcc at its first call (the
first solver run, before its clock starts, the first parse_libsvm,
gen_synthetic or conflict_stats; never at import), into ``__pycache__``
beside this file, or ``~/.cache/asyncopt`` when that cannot be written.  A cache
directory or cached build that another user could write is never used:
what is loaded into the process must be this user's (or root's).  The
file name hashes the source and the flags, and the build is written to a
temporary file and moved into place, so processes that build at once do
not clash and a changed source is rebuilt.  A build into ``__pycache__``
removes this user's older builds there; the shared ``~/.cache/asyncopt``
is never pruned, as another checkout may be loading from it.  When the
build or the load fails, a one-line notice goes to stderr, once per
process, every kernel keeps its NumPy path, parse_libsvm its Python reader,
gen_synthetic its rng.choice per row and conflict_stats its blocked
B @ B^T.  ctypes releases the interpreter lock for the length of each call,
so engine workers in a stretch, and the threads of a conflict count, run in
parallel.

``bind(obj, y, dz, coords)`` gives the ``Stretch`` of the term kernels (or
of scd's coordinates) of an objective whose phi has a native form, or None.
Besides the stretch, a ``Stretch`` runs ``moment`` (E_s ||g(x, s)||^2 over
every sample, and optionally the sum of g, for the enumeration oracles) and
``simulate`` (one epoch segment of asyncopt.sim.simulate in a single call)
on the same C direction code.  Every call takes a batch: a kernel's
one-sample ``direction`` is its NumPy definition in asyncopt.serial.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import threading

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_stretch.c")
_CC = "gcc"
# -ffp-contract=off: no a*b+c fused into one rounding (GCC fuses under -march=native,
# and by default where FMA is baseline), which would part from the NumPy arithmetic.
# No -march=native, so a cached build runs on any CPU of its architecture; the one
# loop that gains from wide vectors picks its version at load time (_stretch.c).
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_lock = threading.Lock()
_tried = False
_lib = None


class _Terms(ctypes.Structure):
    _fields_ = [
        ("data", ctypes.c_void_p), ("indices", ctypes.c_void_p), ("indptr", ctypes.c_void_p),
        ("logistic", ctypes.c_int64), ("s", ctypes.c_double),
        ("b", ctypes.c_void_p), ("c", ctypes.c_void_p), ("e", ctypes.c_void_p),
        ("y", ctypes.c_void_p), ("dz", ctypes.c_void_p), ("maxlen", ctypes.c_int64),
        ("coords", ctypes.c_int64), ("cdata", ctypes.c_void_p), ("cindices", ctypes.c_void_p),
        ("cindptr", ctypes.c_void_p), ("rho", ctypes.c_void_p),
        ("eta", ctypes.c_void_p), ("n", ctypes.c_int64), ("d", ctypes.c_int64),
    ]


def _cache_dirs():
    """Where the build may be cached, in order of preference."""
    return [os.path.join(os.path.dirname(_SRC), "__pycache__"),
            os.path.join(os.path.expanduser("~"), ".cache", "asyncopt")]


def _private(path):
    """Whether path belongs to this user or root and no one else may write it."""
    st = os.stat(path)
    return st.st_uid in (os.getuid(), 0) and not st.st_mode & 0o022


def _build():
    """Path of the shared library built from _stretch.c, building it if needed,
    in the first of _cache_dirs() that exists or can be made and that only
    this user (or root) can write."""
    with open(_SRC, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        b"\0".join([source, _CC.encode(), " ".join(_FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    for rank, cache in enumerate(_cache_dirs()):
        try:
            os.makedirs(cache, mode=0o700, exist_ok=True)
        except OSError:
            continue
        if not _private(cache):
            continue
        path = os.path.join(cache, f"_stretch-{key}.so")
        if os.path.exists(path) and _private(path):
            return path
        if os.access(cache, os.W_OK):
            _compile(path)
            if rank == 0:  # the checkout's own; another checkout may load from the others
                _prune(cache, path)
            return path
    raise OSError("no cache directory that only this user can write")


def _prune(cache, keep):
    """Remove this user's builds in cache other than keep, each edit of the
    source having left one; a build that cannot be removed stays."""
    for name in glob.glob("_stretch-*.so", root_dir=cache):
        path = os.path.join(cache, name)
        try:
            if path != keep and os.stat(path).st_uid == os.getuid():
                os.unlink(path)
        except OSError:
            pass


def _compile(path):
    fd, tmp = tempfile.mkstemp(prefix="_stretch-", suffix=".so.tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([_CC, *_FLAGS, "-o", tmp, _SRC, "-lm"], capture_output=True,
                              text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
            raise OSError(f"{_CC} failed: {lines[0]}")
        os.chmod(tmp, 0o644)  # readable by the users who may share this cache, writable by none
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind_functions(lib):
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.stretch.argtypes = [p, p, i64, p, i64, f64, i64, f64, f64, p, p]
    lib.stretch.restype = i64
    lib.moment.argtypes = [p, p, p]
    lib.moment.restype = f64
    lib.sim_segment.argtypes = [p, p, p, p, p, p, i64, i64, p, i64, f64]
    lib.sim_segment.restype = i64
    lib.parse_libsvm.argtypes = [ctypes.c_char_p, i64, i64, p, p, p, p]
    lib.parse_libsvm.restype = i64
    lib.conflict_degrees.argtypes = [p, p, p, p, i64, i64, i64, p]
    lib.conflict_degrees.restype = i64
    lib.choice_rows.argtypes = [p, i64, i64, i64, p]
    lib.choice_rows.restype = i64
    return lib


def load():
    """The loaded library, or None when it cannot be built or loaded."""
    global _tried, _lib
    with _lock:
        if not _tried:
            _tried = True
            try:
                _lib = _bind_functions(ctypes.CDLL(_build()))
            except (OSError, subprocess.SubprocessError) as exc:
                print(f"asyncopt: native stretch kernels unavailable ({exc}); "
                      "running the NumPy path", file=sys.stderr)
    return _lib


def _f64(a, size):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != (size,):
        raise ValueError(f"expected a vector of {size} values, got shape {a.shape}")
    return a


class Stretch:
    """The native stretch of one kernel of obj: sgm (no snapshot), svrg_dense
    (snapshot y), svrg_sparse (y and dz = d_inv * grad f(y)), or scd (coords,
    sampling coordinates).  It serves one thread at a time (the engine builds
    a kernel per worker)."""

    def __init__(self, lib, obj, y, dz, coords=False):
        A, Ac, d = obj.A, obj._Ac, obj.d
        self.lib, self.obj, self.d, self.coords = lib, obj, d, coords
        self.samples = d if coords else obj.n
        self._row_len = obj._row_len
        self._keep = {  # the arrays the structure points into
            "data": A.data, "indices": A.indices, "indptr": A.indptr, "b": _f64(obj.b, obj.n),
            "c": _f64(obj._c, d), "e": _f64(obj._e, d), "y": None if y is None else _f64(y, d),
            "dz": None if dz is None else _f64(dz, d), "cdata": Ac.data, "cindices": Ac.indices,
            "cindptr": Ac.indptr, "rho": _f64(obj.rho, d), "eta": _f64(obj.eta, d),
        }
        self._terms = _Terms(
            logistic=obj._phi_kind == "logistic", s=float(obj._sup_d2phi),
            maxlen=int(self._row_len.max()), coords=coords, n=obj.n, d=d,
            **{name: _ptr(a) for name, a in self._keep.items()},
        )
        self._ref = ctypes.addressof(self._terms)

    def moment(self, x, out=None):
        """E_s ||g(x, s)||^2 over every sample s, adding each g into out (a
        contiguous float64 vector of d) on its support when given."""
        x = _f64(x, self.d)
        if out is not None:
            _require_rows(out, (self.d,))
        m = self.lib.moment(self._ref, x.ctypes.data, _ptr(out))
        if m < 0:
            raise MemoryError("native moment could not allocate its row buffer")
        return m

    def simulate(self, X, Xhat, U, q, missing, tau, ep0, draws, gamma):
        """Steps ep0 .. ep0 + draws.size - 1, one epoch segment of
        asyncopt.sim.simulate, in the rows of X, Xhat, U and q (None: not
        recorded) under the bool mask missing, in one call; the contract of
        asyncopt.sim._reference_segment, with the same bits."""
        T, end = Xhat.shape[0], ep0 + draws.size
        for a, shape in ((X, (T + 1, self.d)), (Xhat, (T, self.d)), (U, (T, self.d)), (q, (T,))):
            if a is not None:
                _require_rows(a, shape)
        if (missing.dtype != np.bool_ or not missing.flags.c_contiguous or missing.shape[1:]
                != (tau, self.d) or not 0 <= ep0 <= end <= min(T, len(missing))):
            raise ValueError(f"steps {ep0}..{end} need a contiguous bool mask of shape "
                             f"(>= {end}, {tau}, {self.d}) and a trace of as many")
        draws = self._draws(draws)
        if self.lib.sim_segment(self._ref, X.ctypes.data, Xhat.ctypes.data, U.ctypes.data,
                                _ptr(q), missing.ctypes.data, tau, ep0, draws.ctypes.data,
                                draws.size, gamma) < 0:
            raise MemoryError("native sim_segment could not allocate its row buffer")

    def _draws(self, draws):
        """draws as a contiguous int64 array, each a sample index."""
        draws = np.ascontiguousarray(draws, dtype=np.int64)
        if draws.size and (draws.min() < 0 or draws.max() >= self.samples):
            raise IndexError("a draw is out of the sample range")
        return draws

    def __call__(self, x, draws, gamma, lo=None, hi=None, dense_step=None, sync=None):
        """x[idx] += -gamma * g for the samples draws, in place; returns how many
        it used.  Without sync the adds are plain and every draw is used, each
        followed by dense_step on every coordinate when given, and the writes
        are clamped to [lo, hi] unless lo is None.  With sync (one engine
        worker), see Sync."""
        _require_rows(x, (self.d,))
        draws = self._draws(draws)
        if dense_step is not None:
            if sync is not None:
                raise ValueError("a dense step is written by a serial solver only")
            dense_step = _f64(dense_step, self.d)
        updates = None if sync is None else sync.log.updates
        if updates is not None:
            lens = np.ones(draws.size, dtype=np.int64) if self.coords else self._row_len[draws]
            jbuf, abuf = np.empty(draws.size, dtype=np.int64), np.empty(int(lens.sum()))
            sync.jbuf, sync.abuf = jbuf.ctypes.data, abuf.ctypes.data
        used = self.lib.stretch(
            self._ref, x.ctypes.data, self.d, draws.ctypes.data, draws.size, -gamma,
            lo is not None, 0.0 if lo is None else lo, 0.0 if hi is None else hi,
            _ptr(dense_step), None if sync is None else ctypes.addressof(sync),
        )
        if used < 0:
            raise MemoryError("native stretch could not allocate its row buffer")
        if updates is not None:  # each sample's (idx, applied) at its j
            applied = np.split(abuf, np.cumsum(lens[:used]))
            for j, i, a in zip(jbuf[:used].tolist(), draws[:used].tolist(), applied):
                updates[j] = (np.array([i]) if self.coords else self.obj.term_support(i), a)
        return used


class Sync(ctypes.Structure):
    """One engine worker's share of a segment's stretch calls, as the native
    stretch reads it: the shared sample counter (an int64 array of one cell)
    each sample takes its index j from, the limit at which the workers stop,
    the worker id, whether other workers run at the same time (fetch-add
    takes, atomic reads and compare-and-swap adds; plain ones otherwise), the
    SampleLog each sample is recorded in at j (edge, worker, end[j]: the
    counter once j's write has landed, and updates[j] when the log keeps
    them, through a call's buffers jbuf and abuf), and whether each sample
    reads a consistent copy of x, which only serial.Kernel.reference does."""

    _fields_ = [
        ("_counter", ctypes.c_void_p), ("limit", ctypes.c_int64), ("wid", ctypes.c_int64),
        ("atomic", ctypes.c_int64), ("_edge", ctypes.c_void_p), ("_worker", ctypes.c_void_p),
        ("_end", ctypes.c_void_p), ("jbuf", ctypes.c_void_p), ("abuf", ctypes.c_void_p),
    ]

    def __init__(self, counter, limit, wid, atomic, log, snapshot=False):
        if counter.dtype != np.int64 or counter.shape != (1,):
            raise ValueError("the counter is one int64 cell")
        arrays = ((log.edge, np.int64), (log.worker, np.int32), (log.end, np.int64))
        if not all(a.dtype == dt and a.flags.c_contiguous and a.size >= limit
                   for a, dt in arrays):
            raise ValueError("the SampleLog arrays must be contiguous, of its dtypes, and "
                             "hold the limit's samples")
        super().__init__(counter.ctypes.data, int(limit), int(wid), bool(atomic),
                         *(a.ctypes.data for a, _ in arrays))
        self.counter, self.log, self.snapshot = counter, log, bool(snapshot)


def choice_rows(lib, rng, n, d, nnz):
    """n rows of sorted(rng.choice(d, nnz, replace=False)) in one int64 array,
    drawn natively under the bit generator's lock, for shapes where numpy's
    choice runs Floyd's loop (asyncopt.data._rows decides)."""
    if not 1 <= nnz <= d < 2**31:
        raise ValueError(f"choice_rows needs 1 <= nnz <= d < 2**31, got nnz={nnz}, d={d}")
    out = np.empty(n * nnz, dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        if lib.choice_rows(bitgen.ctypes.bit_generator, n, d, nnz, out.ctypes.data) < 0:
            raise MemoryError("native choice_rows could not allocate its stamps")
    out.reshape(n, nnz).sort(axis=1)
    return out


def _ptr(a):
    return None if a is None else a.ctypes.data


def _require_rows(a, shape):
    """a must be a contiguous float64 array of shape, as C writes it in place."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or a.shape != shape:
        raise ValueError(f"expected a contiguous float64 array of shape {shape}")


def narrow(M):
    """M, a CSR or CSC, with int32 index arrays, the one width _stretch.c reads,
    when its shape and nonzeros fit in them; else M unchanged (and on the
    NumPy path).  An objective's A and the conflict pattern pass through it."""
    if is_int32(M) or max(*M.shape, M.nnz) > np.iinfo(np.int32).max:
        return M
    return type(M)((M.data, M.indices.astype(np.int32), M.indptr.astype(np.int32)), M.shape)


def is_int32(*mats):
    """Whether the index arrays of every CSR or CSC of mats are int32, as C reads them."""
    return all(M.indices.dtype == M.indptr.dtype == np.int32 for M in mats)


def bind(obj, y=None, dz=None, coords=False):
    """The Stretch of obj's terms (or coordinates), or None (the kernel keeps
    its NumPy reference) when the library is not loaded, the objective's phi
    has no native form, or A or its CSC is not contiguous float64 with int32
    indices (as narrow() leaves every matrix of fewer than 2^31 nonzeros)."""
    if getattr(obj, "_phi_kind", None) not in ("quadratic", "logistic"):
        return None
    if not all(is_int32(M) and M.data.dtype == np.float64 and M.data.flags.c_contiguous
               and M.indices.flags.c_contiguous and M.indptr.flags.c_contiguous
               for M in (obj.A, obj._Ac)):
        return None
    lib = load()
    return None if lib is None else Stretch(lib, obj, y, dz, coords)
