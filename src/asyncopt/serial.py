"""The step kernels of every solver, and the serial baselines SGM, SCD, dense
SVRG and sparse SVRG.

Every method is x <- x - gamma * g(xhat, s) for a sampled s and a read
xhat.  Each algorithm's direction g is one kernel here, and nowhere else:
``sgm``, ``scd``, ``svrg_sparse`` and ``svrg_dense`` build ``Kernel(samples,
direction)`` with ``direction(s, src) -> (idx, g)`` read from ``src``.  The
kernels take no step size; each writer applies ``-gamma * g``.
asyncopt.engine.run is the one driver of every solver: a serial one is its
lone worker writing with plain adds, a threaded one its workers writing
concurrently; asyncopt.sim stores g under a delay schedule; the enumeration
oracles average g over every s.  So a 1-worker async run and a zero-delay
simulation reproduce the serial trajectory bit for bit.

Every kernel runs a run of samples as a stretch, ``stretch(x, draws,
gamma, lo, hi, dense_step=None, sync=None) -> used``, one contract with two
implementations: the native ``stretch`` of asyncopt._stretch, bound when the
kernel is built if the build loads (one C loop over a batch of draws), and
``Kernel.reference``, the NumPy loop over ``direction`` (NumPy always) that
the native one is tested against.  The
engine's worker loop makes one stretch call per chunk of draws: with no
``sync`` for a serial solver, with a ``sync`` (asyncopt._stretch.Sync) for
each worker of a threaded one.  ``SOLVERS`` is the one table of solver
names, each with its kernel, its theorem step rule, and whether engine
threads drive it.  The ``run_*`` solvers here are one call of
asyncopt.engine.run each.
"""

from __future__ import annotations

import math
import operator
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import _stretch
from .hypergraph import CoordinateWeights
from .objectives import DecomposableObjective, solve_reference
from .vectors import LinfBall, sq_distance

__all__ = [
    "SolverConfig",
    "RunResult",
    "worker_rng",
    "resolve_config",
    "SOLVERS",
    "run_sgm",
    "run_scd",
    "run_svrg_dense",
    "run_svrg_sparse",
    "svrg_variance_check",
    "enumerated_mean_direction",
    "trace_to_csv",
]

STEP_RULES = ("explicit", "hogwild_theorem1", "scd_theorem2", "svrg_theorem3")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, and RNG configuration for one run.

    Either set ``gamma`` explicitly (step_rule="explicit") or pick a named
    rule; the rules need ``eps`` and ``a0`` (the target accuracy and the
    initial squared distance) to derive gamma and the horizon.
    """

    gamma: float | None = None
    step_rule: str = "explicit"
    total_iters: int | None = None
    epoch_size: int | None = None
    epochs: int | None = None
    seed: int = 0
    linf: LinfBall = field(default_factory=LinfBall)
    snapshot_interval: int = 1
    eps: float | None = None
    a0: float | None = None
    M: float | None = None  # overrides constants.M in the hogwild_theorem1 rule
    log_every: int = 0  # checkpoint every log_every samples (0: never), every epoch end, and last

    def __post_init__(self):
        for name in ("total_iters", "epoch_size", "epochs", "seed", "snapshot_interval",
                     "log_every"):
            value = getattr(self, name)
            try:
                if value is not None:
                    operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        # worker_rng's Philox key [seed, worker] is int64; above, NumPy made it float64
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step_rule {self.step_rule!r}")
        if (self.gamma is not None) != (self.step_rule == "explicit"):
            raise ValueError("set gamma exactly when step_rule is 'explicit'")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.log_every < 0:
            raise ValueError("log_every must be >= 0")
        for name in ("total_iters", "epoch_size", "epochs"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class RunResult:
    x: np.ndarray
    iters: int
    gamma: float
    seed: int
    trace_iter: np.ndarray  # checkpoint iteration numbers
    trace_a: np.ndarray | None  # ||x - x*||^2 at checkpoints (when x* known)
    trace_f: np.ndarray | None  # f(x) at checkpoints (when requested)
    epoch_a: np.ndarray | None = None  # per-epoch squared distances (SVRG)
    trace_wall: np.ndarray | None = None  # elapsed seconds at checkpoints
    wall_time: float = 0.0
    diverged: bool = False


def worker_rng(seed, worker=0):
    """Counter-based per-worker stream; worker 0 is the serial stream.  The
    seed is taken as a Python int, as NumPy keys [np.uint64, int] as float64."""
    return np.random.Generator(np.random.Philox(key=[operator.index(seed), worker]))


def resolve_config(cfg: SolverConfig, obj: DecomposableObjective, algo: str):
    """Fill in gamma / horizons from the named step rule for the solver named
    algo (a key of SOLVERS). Returns a new config."""
    if algo not in SOLVERS:
        raise ValueError(f"unknown solver {algo!r}; choose from {sorted(SOLVERS)}")
    c = obj.constants
    if cfg.step_rule == "explicit":
        out = cfg
    elif cfg.step_rule == "hogwild_theorem1":
        if cfg.eps is None:
            raise ValueError("hogwild_theorem1 needs eps")
        M = cfg.M if cfg.M is not None else c.M
        gamma = cfg.eps * c.m / (2.0 * M**2)
        T = cfg.total_iters
        if T is None:
            if cfg.a0 is None:
                raise ValueError("hogwild_theorem1 needs total_iters or a0")
            T = math.ceil(
                (2.0 * M**2 / (cfg.eps * c.m**2)) * math.log(2.0 * cfg.a0 / cfg.eps)
            )
        out = replace(cfg, gamma=gamma, step_rule="explicit", total_iters=T)
    elif cfg.step_rule == "scd_theorem2":
        gamma = 1.0 / (6.0 * c.d * c.L * c.kappa)
        T = cfg.total_iters
        if T is None:
            if cfg.eps is None or cfg.a0 is None:
                raise ValueError("scd_theorem2 needs total_iters or (eps, a0)")
            T = math.ceil(6.0 * c.d * c.kappa**2 * math.log(cfg.a0 / cfg.eps))
        out = replace(cfg, gamma=gamma, step_rule="explicit", total_iters=T)
    else:  # svrg_theorem3
        gamma = 1.0 / (4.0 * c.L * c.kappa)
        S = cfg.epoch_size if cfg.epoch_size is not None else math.ceil(8.0 * c.kappa**2)
        E = cfg.epochs
        if E is None:
            if cfg.eps is None or cfg.a0 is None:
                raise ValueError("svrg_theorem3 needs epochs or (eps, a0)")
            E = math.ceil(math.log(cfg.a0 / cfg.eps) / math.log(4.0 / 3.0))
        out = replace(
            cfg, gamma=gamma, step_rule="explicit", epoch_size=S, epochs=E
        )
    if out.gamma * c.m >= 1.0:
        raise ValueError(
            f"divergent configuration: gamma*m = {out.gamma * c.m:.3g} >= 1"
        )
    if SOLVERS[algo].epochal:
        if out.epoch_size is None or out.epochs is None:
            raise ValueError(f"{algo} needs epoch_size and epochs")
    elif out.total_iters is None:
        raise ValueError(f"{algo} needs total_iters")
    return out


# ---------------------------------------------------------------------------
# kernels: the only definition of each algorithm's direction g(x, s)
# ---------------------------------------------------------------------------

class Kernel(NamedTuple):
    """One algorithm's update direction.

    Samples are drawn as ``rng.integers(samples, size=k)``, and
    ``direction(s, src) -> (idx, g)`` reads ``src`` on ``idx``.  ``dense``,
    when set, is added to g on every coordinate (dense SVRG's grad f(y)); the
    writer applies it after the sparse part.  ``stretch``, when set, is the
    native loop over many samples (asyncopt._stretch.Stretch); ``reference``
    is the same loop in NumPy over ``direction``.
    """

    samples: int
    direction: Callable
    dense: np.ndarray | None = None
    stretch: Callable | None = None

    def reference(self, x, draws, gamma, lo=None, hi=None, dense_step=None, sync=None):
        """The NumPy form of the native stretch, under its contract
        (asyncopt._stretch.Stretch.__call__).  With sync, as one engine worker,
        it takes each sample's index j under a lock, reads a copy of x when
        sync.snapshot is set, and writes through add_clamped when sync.atomic."""
        if sync is not None and dense_step is not None:
            raise ValueError("a dense step is written by a serial solver only")
        updates = None if sync is None else sync.log.updates
        for used, s in enumerate(draws.tolist()):
            if sync is not None:
                with _COUNTER_LOCK:
                    j = int(sync.counter[0])
                    if j >= sync.limit:
                        return used
                    sync.counter[0] = j + 1
            idx, g = self.direction(s, _snapshot(x) if sync is not None and sync.snapshot else x)
            delta = -gamma * g
            if sync is not None and sync.atomic:
                applied = add_clamped(x, idx, delta, lo, hi)
            else:
                old = x[idx]
                x[idx] = old + delta
                if dense_step is not None:
                    x += dense_step
                    if lo is not None:
                        np.clip(x, lo, hi, out=x)
                elif lo is not None:
                    x[idx] = np.clip(x[idx], lo, hi)
                applied = None if updates is None else x[idx] - old
            if sync is not None:
                sync.log.edge[j], sync.log.worker[j], sync.log.end[j] = s, sync.wid, sync.counter[0]
                if updates is not None:
                    updates[j] = (idx, applied)
        return draws.size


_STRIPES = [threading.Lock() for _ in range(64)]  # coordinate v's writes take lock v % 64
_COUNTER_LOCK = threading.Lock()  # the reference workers' take of a sample index


def add_clamped(x, idx, deltas, lo, hi):
    """x[v] += delta for each v of idx, clamped to [lo, hi] unless lo is None;
    returns the deltas applied.  Each read-modify-write holds v's stripe lock,
    so writers on other threads lose no update: the interpreter lock does not
    make x[v] += u indivisible (a thread may be switched out after the read)."""
    applied = []
    for v, delta in zip(idx.tolist(), deltas.tolist()):
        with _STRIPES[v % len(_STRIPES)]:
            old = x.item(v)
            new = old + delta
            if lo is not None:
                if new < lo:
                    new = lo
                elif new > hi:
                    new = hi
            x[v] = new
            applied.append(new - old)
    return np.array(applied)


def _snapshot(x):
    """A copy of x with every stripe lock held: NumPy copies a large array
    outside the interpreter lock, and no add_clamped write may land mid-copy."""
    with ExitStack() as held:
        for lock in _STRIPES:
            held.enter_context(lock)
        return x.copy()


def sgm(obj):
    """SGM, and Hogwild! when the engine drives it: the gradient of term s."""
    def direction(i, src):
        idx = obj.term_support(i)
        return idx, obj.term_grad_vals(i, src[idx])
    return Kernel(obj.n, direction, stretch=_stretch.bind(obj))


def scd(obj):
    """SCD, and ASCD when the engine drives it: d times coordinate s of grad f.

    The coordinate's read set is first copied into a private buffer, so the
    direction is computed from one read of each value.
    """
    scratch = np.zeros(obj.d)

    def direction(v, src):
        union = obj.coord_read_support(v)
        scratch[union] = src[union]
        return np.array([v], dtype=np.int64), np.array([obj.d * obj.full_grad_coord(v, scratch)])
    return Kernel(obj.d, direction, stretch=_stretch.bind(obj, coords=True))


def svrg_sparse(obj, y, z):
    """Sparse SVRG around the snapshot y with z = grad f(y), KroMagnon in the
    engine: g(x, s) - g(y, s) + D_s z on the term's support."""
    def direction(i, src):
        idx = obj.term_support(i)
        gx = obj.term_grad_vals(i, src[idx])
        return idx, gx - obj.term_grad_vals(i, y[idx]) + obj.d_inv[idx] * z[idx]
    return Kernel(obj.n, direction, stretch=_stretch.bind(obj, y, obj.d_inv * z))


def svrg_dense(obj, y, z):
    """Dense SVRG: g(x, s) - g(y, s) on the term's support, plus z everywhere."""
    def direction(i, src):
        idx = obj.term_support(i)
        return idx, obj.term_grad_vals(i, src[idx]) - obj.term_grad_vals(i, y[idx])
    return Kernel(obj.n, direction, dense=z, stretch=_stretch.bind(obj, y))


EPOCHAL_KERNELS = (svrg_sparse, svrg_dense)  # built from a snapshot (y, z)


class Solver(NamedTuple):
    """A solver name's decisions: its kernel, its theorem step rule (used when
    no gamma is given), and whether asyncopt.engine's threads drive it."""

    kernel: Callable
    rule: str
    threaded: bool

    @property
    def epochal(self):  # configured by epochs, with a snapshot at each epoch start
        return self.kernel in EPOCHAL_KERNELS


# the one table of solver names; asyncopt.engine.run runs any of them
SOLVERS = {
    "sgm": Solver(sgm, "hogwild_theorem1", False),
    "scd": Solver(scd, "scd_theorem2", False),
    "svrg_dense": Solver(svrg_dense, "svrg_theorem3", False),
    "svrg_sparse": Solver(svrg_sparse, "svrg_theorem3", False),
    "hogwild": Solver(sgm, "hogwild_theorem1", True),
    "ascd": Solver(scd, "scd_theorem2", True),
    "kromagnon": Solver(svrg_sparse, "svrg_theorem3", True),
}


def clamp_bounds(obj, cfg):
    """(lo, hi) of the l-inf ball intersected with the objective's box, or (None, None)."""
    lo = hi = None
    if cfg.linf.bounded:
        lo, hi = -cfg.linf.radius, cfg.linf.radius
    if obj.box is not None:
        blo, bhi = obj.box
        lo = blo if lo is None else max(lo, blo)
        hi = bhi if hi is None else min(hi, bhi)
    return lo, hi


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _epochs(cfg, epochal):
    """(epoch_size, epochs) of a run; a flat run is one epoch of total_iters."""
    return (cfg.epoch_size, cfg.epochs) if epochal else (cfg.total_iters, 1)


def _checkpoints(obj, cfg, factory, x):
    """The one checkpoint schedule of asyncopt.engine.run and the simulator.

    Yields (t, bound, snap): the run takes samples t..bound-1 with the kernel
    factory(obj, *snap), then a checkpoint after bound samples.  Checkpoints
    fall every log_every samples, at every epoch end, and after the last
    sample.  An epochal kernel's snap = (y, grad f(y)) is a fresh copy y of
    x at every snapshot_interval-th epoch start; a flat run has snap = ().
    """
    epochal = factory in EPOCHAL_KERNELS
    S, E = _epochs(cfg, epochal)
    marks = set(range(S, S * E + 1, S))
    if cfg.log_every > 0:
        marks.update(range(cfg.log_every, S * E, cfg.log_every))
    t, snap = 0, ()
    for bound in sorted(marks):
        if epochal and t % S == 0 and t // S % cfg.snapshot_interval == 0:
            y = x.copy()
            snap = (y, obj.full_grad(y))
        yield t, bound, snap
        t = bound


class _Tracer:
    """Checkpoint recorder of asyncopt.engine.run.

    The wall clock starts at construction and excludes the measurements.  A
    checkpoint whose iterate is not finite ends the run: it is not recorded,
    the run is marked diverged, and its iteration count is that of the last
    finite checkpoint.
    """

    def __init__(self, obj, xstar, track_f, epochal):
        self.obj = obj
        self.xstar = xstar
        self.track_f = track_f
        self.epochal = epochal
        self.iters, self.a, self.f, self.wall = [], [], [], []
        self.diverged = False
        self.elapsed = 0.0
        self.seg_start = time.perf_counter()

    def record(self, t, x):
        """Checkpoint after t samples; False when x is not finite."""
        self.elapsed += time.perf_counter() - self.seg_start
        if not np.isfinite(x).all():
            self.diverged = True
            return False
        self.iters.append(t)
        if self.xstar is not None:
            self.a.append(sq_distance(x, self.xstar))
        if self.track_f:
            self.f.append(self.obj.value(x))
        self.wall.append(self.elapsed)
        self.seg_start = time.perf_counter()
        return True

    def result(self, x, cfg) -> RunResult:
        epoch_a = None
        if self.epochal and self.xstar is not None:  # the epoch-end checkpoints
            epoch_a = [a for t, a in zip(self.iters, self.a) if t % cfg.epoch_size == 0]
        return RunResult(
            x=x, iters=self.iters[-1] if self.iters else 0, gamma=cfg.gamma,
            seed=cfg.seed, trace_iter=np.asarray(self.iters, dtype=np.int64),
            trace_a=np.asarray(self.a) if self.xstar is not None else None,
            trace_f=np.asarray(self.f) if self.track_f else None,
            epoch_a=np.asarray(epoch_a) if epoch_a is not None else None,
            trace_wall=np.asarray(self.wall), wall_time=self.elapsed,
            diverged=self.diverged,
        )


def _run_serial(obj, algo, cfg, x0, xstar, track_f) -> RunResult:
    """The serial solver named algo, run by asyncopt.engine.run as a lone worker."""
    from .engine import run  # deferred: asyncopt.engine imports this module

    return run(obj, algo, cfg, x0, xstar=xstar, track_f=track_f)[0]


def run_sgm(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    return _run_serial(obj, "sgm", cfg, x0, xstar, track_f)


def run_scd(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    return _run_serial(obj, "scd", cfg, x0, xstar, track_f)


def run_svrg_dense(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    return _run_serial(obj, "svrg_dense", cfg, x0, xstar, track_f)


def run_svrg_sparse(
    obj, weights: CoordinateWeights | None, cfg: SolverConfig, x0, xstar=None,
    track_f=False,
) -> RunResult:
    _require_covered(weights)
    return _run_serial(obj, "svrg_sparse", cfg, x0, xstar, track_f)


def _require_covered(weights):
    """An explicit weights must cover every coordinate (objectives check their own)."""
    if weights is not None and not weights.all_covered:
        raise ValueError("sparse SVRG requires every coordinate covered")


class VarianceCheck(NamedTuple):
    lhs: float
    rhs: float
    dz_quadratic: float  # z^T D z, the subtracted term (always >= 0)


def svrg_variance_check(obj, weights, x, y, xstar=None) -> VarianceCheck:
    """Enumerated second moment of the sparse SVRG update versus its bound.

    lhs = E_s ||g(x,s) - g(y,s) + D_s grad f(y)||^2 (svrg_sparse) by enumeration;
    rhs = 2 E||g(x,s) - g(x*,s)||^2 + 2 E||g(y,s) - g(x*,s)||^2
          - 2 grad f(y)^T D grad f(y).
    ``weights`` only gets run_svrg_sparse's coverage check.
    """
    _require_covered(weights)
    if xstar is None:
        xstar = solve_reference(obj)
    z = obj.full_grad(y)
    dz = float(z @ (obj.d_inv * z))
    around_xstar = svrg_dense(obj, xstar, None)  # g(., s) - g(x*, s)
    rhs = 2.0 * _second_moment(around_xstar, x) + 2.0 * _second_moment(around_xstar, y)
    return VarianceCheck(lhs=_second_moment(svrg_sparse(obj, y, z), x), rhs=rhs - 2.0 * dz,
                         dz_quadratic=dz)


def _second_moment(kernel, x, out=None):
    """E_s ||g(x, s)||^2 by enumeration of every sample s (dense part excluded),
    adding each g into out on its support when out is given.  The kernel's
    native moment when it has a stretch (which sums ||g||^2 left to right
    where g @ g calls BLAS), else this loop over the NumPy direction."""
    if kernel.stretch is not None:
        return kernel.stretch.moment(x, out)
    total = 0.0
    for s in range(kernel.samples):
        idx, g = kernel.direction(s, x)
        total += float(g @ g)
        if out is not None:
            out[idx] += g
    return total / kernel.samples


def enumerated_mean_direction(obj, x, algo, y=None):
    """Average of the kernel's g(x, s) over every sample s, with the snapshot
    y for SVRG; equals grad f(x) when the direction is unbiased."""
    if algo not in SOLVERS:
        raise ValueError(f"unknown solver {algo!r}")
    factory = SOLVERS[algo].kernel
    kernel = factory(obj, y, obj.full_grad(y)) if factory in EPOCHAL_KERNELS else factory(obj)
    out = np.zeros(obj.d)
    _second_moment(kernel, x, out)
    out /= kernel.samples
    return out if kernel.dense is None else out + kernel.dense


def trace_to_csv(result: RunResult, path, epoch_size=None):
    """Write the checkpoint trace as CSV: iter, epoch, seed, a_j, f, wall_ns."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "epoch", "seed", "a_j", "f", "wall_ns"])
        for k, it in enumerate(result.trace_iter):
            epoch = it // epoch_size if epoch_size else 0
            a = result.trace_a[k] if result.trace_a is not None else ""
            f = result.trace_f[k] if result.trace_f is not None else ""
            wall_ns = int(result.trace_wall[k] * 1e9)
            w.writerow([int(it), int(epoch), result.seed, a, f, wall_ns])
