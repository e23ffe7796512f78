"""The one driver of every solver: serial SGM, SCD and SVRG, and lock-free
shared-memory Hogwild!, async SCD and KroMagnon.

"Lock-free" here means no global lock and no multi-coordinate consistency:
workers sample, read, and write concurrently with no coordination beyond
per-coordinate write indivisibility.

Hogwild!, ASCD and KroMagnon are the kernels ``sgm``, ``scd`` and
``svrg_sparse`` of asyncopt.serial with a perturbed read and an indivisible
write of ``-gamma * g``.  ``run`` runs every name of serial.SOLVERS between
the checkpoints of serial._checkpoints, and every worker is one loop,
``_stretch_worker``, of calls to its kernel's stretch.  A serial solver is
a lone worker with no ``Sync``: it takes its samples with plain adds and
the kernel's dense part.  A threaded solver's workers each have a ``Sync``
that shares the sample counter and the SampleLog, and their stretch has two
implementations:

  - the native one (asyncopt._stretch), in the default sparse read mode: one
    C call per chunk of draws, outside the interpreter lock, that takes each
    sample's index by an atomic fetch-add and writes by a compare-and-swap
    on the double's bits when several workers run (plainly when one does);
  - the NumPy reference (serial.Kernel.reference), in the
    full_consistent_snapshot read mode and when the build is not loaded: it
    takes the index under a lock and writes through serial.add_clamped's
    striped locks (an indivisible read-modify-write on one float64 cell in
    Python), and a snapshot read copies x with every stripe lock held.

The workers are joined at each checkpoint, so KroMagnon's snapshot,
refreshed at an epoch start, is consistent.  Worker 0 runs on the calling
thread and each other worker on its own thread, so a lone worker starts no
thread.  The ``run_*`` functions here and in asyncopt.serial are one call
of ``run`` each.

With workers=1 every threaded algorithm reduces bit-exactly to its serial
counterpart: the kernels, stretches and loop are the serial ones, worker 0
takes the serial RNG stream in the same chunks, and a lone worker's add is
the serial add.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import cached_property

import numpy as np

from . import _stretch
from .hypergraph import CoordinateWeights
from .serial import (
    SOLVERS,
    SolverConfig,
    _checkpoints,
    _epochs,
    _require_covered,
    _Tracer,
    add_clamped,
    clamp_bounds,
    resolve_config,
    worker_rng,
)

__all__ = [
    "SharedIterate",
    "SampleLog",
    "OverlapReport",
    "run",
    "run_hogwild",
    "run_ascd",
    "run_kromagnon",
    "measure_speedup",
    "time_to_progress",
]

CHUNK = 4096  # samples drawn at once: the draws of one stretch call of a worker
SPARSE_INCONSISTENT = "sparse_inconsistent"
FULL_SNAPSHOT = "full_consistent_snapshot"


class SharedIterate:
    """A dense float64 copy of x0 whose writes take serial.add_clamped's
    stripe locks, so concurrent read-modify-writes to a cell lose no update."""

    def __init__(self, x0):
        self.x = np.array(x0, dtype=np.float64, copy=True)

    def add_clamped(self, idx, deltas, lo, hi):
        """x[v] += delta per coordinate, clamped; returns applied deltas."""
        return add_clamped(self.x, idx, deltas, lo, hi)


class SampleLog:
    """Per-sample records at the index j each sample took from the shared
    counter (0..T-1): edge (hyperedge id, or coordinate id for ASCD), worker,
    end, the counter once j's write had landed, and updates, the applied (idx,
    deltas) when logged (else None), flat until the first read (defer_updates)."""

    def __init__(self, edge, worker, end, updates, deferred=()):
        self.edge, self.worker, self.end = edge, worker, end
        self._updates, self._deferred = updates, list(deferred)

    def __len__(self):
        return int(self.edge.size)

    logs_updates = property(lambda self: self._updates is not None)

    @property
    def updates(self):
        for js, unpack in self._deferred:
            for j, update in zip(js.tolist(), unpack()):
                if j < len(self._updates):  # a head() drops the samples past it
                    self._updates[j] = update
        self._deferred = []
        return self._updates

    def defer_updates(self, js, unpack):
        """The updates of samples js, as the list unpack() returns, at the first read."""
        self._deferred.append((js, unpack))

    @classmethod
    def empty(cls, total, log_updates):
        return cls(
            np.zeros(total, dtype=np.int64), np.zeros(total, dtype=np.int32),
            np.zeros(total, dtype=np.int64), [None] * total if log_updates else None,
        )

    def head(self, count):
        """The records of the first count samples."""
        return SampleLog(self.edge[:count], self.worker[:count], self.end[:count],
                         None if self._updates is None else self._updates[:count], self._deferred)


class OverlapReport:
    """For each sample j of log, how many others k overlap it in sample order
    (k < end[j] and j < end[k]: each started before the other's write landed):
    their histogram, and tau_observed, their maximum, both at the first read."""

    def __init__(self, log: SampleLog):
        self.log = log

    @cached_property
    def histogram(self) -> np.ndarray:
        start, end = np.arange(len(self.log)), self.log.end
        # the k < end[j], less those whose end[k] <= j, less j itself
        counts = (np.minimum(end, start.size)
                  - np.searchsorted(np.sort(end), start, side="right") - 1)
        return np.bincount(np.maximum(counts, 0), minlength=1)

    @property
    def tau_observed(self) -> int:
        return self.histogram.size - 1


def _stretch_worker(kernel, gamma, x, lo, hi, count, rng, sync=None):
    """Run the kernel's stretch, native or else its NumPy reference, over draws
    from rng, CHUNK at most at a time.  Without sync (a serial solver) it takes
    count samples with plain adds, each followed by the kernel's dense part.
    With sync it stops when the shared counter reaches the limit: a lone worker
    uses every draw; with several, the draws left when the others reach the
    limit first are dropped."""
    stretch = kernel.stretch or kernel.reference
    dense_step = None if kernel.dense is None else -gamma * kernel.dense  # once per segment
    while True:
        need = count if sync is None else sync.limit - int(sync.counter[0])
        if need <= 0:
            return
        draws = rng.integers(kernel.samples, size=min(CHUNK, need))
        used = stretch(x, draws, gamma, lo, hi, dense_step, sync=sync)
        if used < draws.size:
            return
        count -= used


def check_workers(algo, workers):
    """Refuse a worker count the solver named algo cannot run: a serial
    solver takes workers=1, a threaded one at least 1."""
    if algo in SOLVERS and not SOLVERS[algo].threaded and workers != 1:
        raise ValueError(f"{algo} is serial; it runs with workers=1, not {workers}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def run(
    obj, algo, cfg: SolverConfig, x0, workers=1, mode=SPARSE_INCONSISTENT,
    xstar=None, log_updates=True, track_f=False,
):
    """Run the solver named algo (a key of serial.SOLVERS) from x0: (RunResult,
    OverlapReport), the report None for a serial solver, which takes workers=1.

    Each segment between two checkpoints of serial._checkpoints runs every
    worker's _stretch_worker, worker 0 on this thread.  Each worker builds its
    own kernel, since SCD's read buffer is private.  The workers of a threaded
    solver share a sample counter through their Syncs; in the
    full_consistent_snapshot mode, which a serial solver ignores, they run the
    kernel's NumPy reference, whose reads copy x (a native whole-vector read
    beside compare-and-swap writes would not be consistent)."""
    cfg = resolve_config(cfg, obj, algo)  # rejects a name that is not in SOLVERS
    check_workers(algo, workers)
    solver = SOLVERS[algo]
    lo, hi = clamp_bounds(obj, cfg)
    x = np.array(x0 if lo is None else np.clip(x0, lo, hi), dtype=np.float64, copy=True)
    snapshot = solver.threaded and mode == FULL_SNAPSHOT
    cell = np.zeros(1, dtype=np.int64)  # the workers' sample counter
    S, E = _epochs(cfg, solver.epochal)
    log = SampleLog.empty(S * E, log_updates) if solver.threaded else None
    rngs = [worker_rng(cfg.seed, w) for w in range(workers)]
    _stretch.load()  # build or load now, so that the run's clock, started after, does not count it
    tracer = _Tracer(obj, xstar, track_f, solver.epochal)
    for t, bound, snap in _checkpoints(obj, cfg, solver.kernel, x):
        cell[0] = t
        kernels = [solver.kernel(obj, *snap) for _ in range(workers)]
        syncs = [None if log is None else _stretch.Sync(cell, bound, w, workers > 1, log, snapshot)
                 for w in range(workers)]
        jobs = [(k._replace(stretch=None) if snapshot else k, cfg.gamma, x, lo, hi, bound - t,
                 rngs[w], syncs[w]) for w, k in enumerate(kernels)]
        # worker 0 runs on this thread, so a lone worker starts no thread and
        # keeps the core and the caches that the checkpoint before it used
        threads = [threading.Thread(target=_stretch_worker, args=args) for args in jobs[1:]]
        for th in threads:
            th.start()
        try:
            _stretch_worker(*jobs[0])
        finally:
            for th in threads:
                th.join()
        if not tracer.record(bound, x):
            break
    result = tracer.result(x, cfg)
    return result, None if log is None else OverlapReport(log.head(result.iters))


def run_hogwild(
    obj, cfg: SolverConfig, x0, workers=1, mode=SPARSE_INCONSISTENT,
    xstar=None, log_updates=True, track_f=False,
):
    return run(obj, "hogwild", cfg, x0, workers, mode, xstar, log_updates, track_f)


def run_ascd(
    obj, cfg: SolverConfig, x0, workers=1, mode=SPARSE_INCONSISTENT,
    xstar=None, log_updates=True, track_f=False,
):
    return run(obj, "ascd", cfg, x0, workers, mode, xstar, log_updates, track_f)


def run_kromagnon(
    obj, weights: CoordinateWeights | None, cfg: SolverConfig, x0, workers=1,
    mode=SPARSE_INCONSISTENT, xstar=None, log_updates=True, track_f=False,
):
    _require_covered(weights)
    return run(obj, "kromagnon", cfg, x0, workers, mode, xstar, log_updates, track_f)


def time_to_progress(wall, f, target_fraction):
    """First wall time at which the running best of f has made target_fraction
    of its own progress from f[0] to its minimum; None if it never does."""
    best = np.minimum.accumulate(f)
    fmin = best[-1]
    target = fmin + (1.0 - target_fraction) * (f[0] - fmin)
    hit = np.flatnonzero(best <= target + 1e-15)
    return float(wall[hit[0]]) if hit.size else None


def _with_origin(res, f0):
    """The run with the t=0 point prepended, so normalization and targets see the start."""
    return replace(
        res, trace_iter=np.concatenate([[0], res.trace_iter]),
        trace_wall=np.concatenate([[0.0], res.trace_wall]),
        trace_f=np.concatenate([[f0], res.trace_f]),
    )


def measure_speedup(runs: dict, f0: float, target_fraction: float) -> dict:
    """Time for each run, started at objective value f0, to reach
    target_fraction of its own progress to its own minimum, and speedup
    relative to the 1-worker run.  Each run needs trace_f and trace_wall; the
    start (wall 0, f0) is prepended to them, as asyncopt.bench.summarize
    does.  A run with no time, or a 1-worker time of 0, has no speedup.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    times = {}
    for w, res in runs.items():
        if res.trace_f is None or res.trace_wall is None:
            raise ValueError("measure_speedup needs trace_f and trace_wall")
        res = _with_origin(res, f0)
        times[w] = time_to_progress(res.trace_wall, res.trace_f, target_fraction)
    base = times.get(1)
    return {
        w: {"time_to_target": t, "speedup": base / t if base and t else None}
        for w, t in times.items()
    }
