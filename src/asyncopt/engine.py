"""Lock-free shared-memory execution of Hogwild!, async SCD, and KroMagnon.

"Lock-free" here means no global lock and no multi-coordinate consistency:
workers sample, read, and write concurrently with no coordination beyond
per-coordinate write indivisibility.  Coordinate writes go through a striped
lock table, which is how an indivisible read-modify-write on one float64
cell is realized in Python (the GIL does not make `x[v] += u` atomic).

Hogwild!, ASCD and KroMagnon are the step kernels ``sgm``, ``scd`` and
``svrg_sparse`` of asyncopt.serial with a perturbed read and a striped-lock
write: one worker loop runs any kernel, and one driver runs the workers
between checkpoints.  KroMagnon's checkpoints are its epoch barriers, where
the driver refreshes the snapshot.

With workers=1 every algorithm reduces bit-exactly to its serial
counterpart, because the kernels are the serial ones and worker 0 uses the
serial RNG stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .hypergraph import CoordinateWeights
from .serial import (
    EPOCHAL_KERNELS,
    SolverConfig,
    _Tracer,
    clamp_bounds,
    resolve_config,
    scd,
    sgm,
    svrg_sparse,
    worker_rng,
)

__all__ = [
    "SharedIterate",
    "SampleLog",
    "OverlapReport",
    "run_hogwild",
    "run_ascd",
    "run_kromagnon",
    "measure_speedup",
    "overlap_report",
    "time_to_progress",
]

SPARSE_INCONSISTENT = "sparse_inconsistent"
FULL_SNAPSHOT = "full_consistent_snapshot"

_N_STRIPES = 64


class AtomicCounter:
    """Bounded fetch-and-increment; assigns the global sample order.

    next(limit) returns None without consuming an index once the limit is
    reached, so epoch barriers do not burn sample slots.
    """

    def __init__(self, start=0):
        self._value = start
        self._lock = threading.Lock()

    def next(self, limit=None):
        with self._lock:
            if limit is not None and self._value >= limit:
                return None
            v = self._value
            self._value += 1
            return v


class SharedIterate:
    """Dense shared vector with per-coordinate indivisible updates.

    Reads are plain element loads (inconsistent across coordinates by
    design); writes take the coordinate's stripe lock so concurrent
    read-modify-writes to the same cell never lose an update.
    """

    def __init__(self, x0):
        self.x = np.array(x0, dtype=np.float64, copy=True)
        self._locks = [threading.Lock() for _ in range(_N_STRIPES)]

    def snapshot(self):
        return self.x.copy()

    def add_clamped(self, idx, deltas, lo, hi):
        """x[v] += delta per coordinate, clamped; returns applied deltas."""
        x = self.x
        applied = np.empty(len(idx))
        for k, v in enumerate(idx):
            lock = self._locks[v % _N_STRIPES]
            with lock:
                old = x[v]
                new = old + deltas[k]
                if lo is not None:
                    if new < lo:
                        new = lo
                    elif new > hi:
                        new = hi
                x[v] = new
                applied[k] = new - old
        return applied


@dataclass
class SampleLog:
    """Per-sample records in global sample order (dense indices 0..T-1)."""

    edge: np.ndarray  # hyperedge id (or coordinate id for ASCD)
    worker: np.ndarray
    t_sample: np.ndarray
    t_last_write: np.ndarray
    updates: list | None  # applied (idx, deltas) per sample, when logged

    def __len__(self):
        return int(self.edge.size)

    @classmethod
    def empty(cls, total, log_updates):
        return cls(
            np.zeros(total, dtype=np.int64), np.zeros(total, dtype=np.int32),
            np.zeros(total), np.zeros(total), [None] * total if log_updates else None,
        )

    def head(self, count):
        """The records of the first count samples."""
        return SampleLog(*(v if v is None else v[:count] for v in vars(self).values()))


@dataclass
class OverlapReport:
    tau_observed: int
    histogram: np.ndarray  # histogram of per-sample overlap counts
    log: SampleLog | None = None


def overlap_report(log: SampleLog) -> OverlapReport:
    """tau = max over samples of how many other samples' [t_sample,
    t_last_write] intervals overlap its own (open-interval overlap)."""
    starts = np.sort(log.t_sample)
    ends = np.sort(log.t_last_write)
    n_before_end = np.searchsorted(starts, log.t_last_write, side="left")
    n_ended = np.searchsorted(ends, log.t_sample, side="right")
    counts = n_before_end - n_ended - 1
    counts = np.maximum(counts, 0)
    tau = int(counts.max()) if counts.size else 0
    return OverlapReport(
        tau_observed=tau,
        histogram=np.bincount(counts, minlength=1),
        log=log,
    )


def _worker(step, shared, lo, hi, counter, limit, rng, wid, log, mode):
    """Run kernel steps against the shared iterate until the counter hits limit."""
    x = shared.x
    while True:
        j = counter.next(limit)
        if j is None:
            return
        t0 = time.perf_counter()
        # the snapshot variant reads the whole vector before sampling
        src = shared.snapshot() if mode == FULL_SNAPSHOT else x
        e, idx, delta = step(rng, src)
        applied = shared.add_clamped(idx, delta, lo, hi)
        t1 = time.perf_counter()
        log.edge[j] = e
        log.worker[j] = wid
        log.t_sample[j] = t0
        log.t_last_write[j] = t1
        if log.updates is not None:
            log.updates[j] = (idx, applied)


def _run_async(obj, cfg, x0, workers, mode, xstar, log_updates, track_f, kernel, bounds):
    """The one threaded driver: workers share a sample counter and stop at
    each bound, where the run takes a checkpoint.  An epochal kernel is
    rebuilt from a fresh snapshot at every snapshot_interval-th bound; the
    workers are joined there, so the snapshot is consistent.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    epochal = kernel in EPOCHAL_KERNELS
    lo, hi = clamp_bounds(obj, cfg)
    shared = SharedIterate(x0)
    counter = AtomicCounter()
    log = SampleLog.empty(bounds[-1], log_updates)
    rngs = [worker_rng(cfg.seed, w) for w in range(workers)]
    steps = None if epochal else [kernel(obj, cfg.gamma) for _ in range(workers)]
    tracer = _Tracer(obj, xstar, track_f, epochal)  # the clock excludes the setup above
    for k, bound in enumerate(bounds):
        if epochal and k % cfg.snapshot_interval == 0:
            y = shared.snapshot()
            z = obj.full_grad(y)
            steps = [kernel(obj, cfg.gamma, y, z) for _ in range(workers)]
        threads = [
            threading.Thread(
                target=_worker,
                args=(steps[w], shared, lo, hi, counter, bound, rngs[w], w, log, mode),
            )
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not tracer.record(bound, shared.x):
            break
        tracer.end_epoch(bound, shared.x)
    result = tracer.result(shared.x, cfg)
    return result, overlap_report(log.head(result.iters))


def _flat_bounds(cfg):
    """Checkpoints every log_every samples and after the last one."""
    T = cfg.total_iters
    chunk = cfg.log_every if cfg.log_every > 0 else T
    return list(range(chunk, T, chunk)) + [T]


def run_hogwild(
    obj, cfg: SolverConfig, x0, workers=1, mode=SPARSE_INCONSISTENT,
    xstar=None, log_updates=True, track_f=False,
):
    cfg = resolve_config(cfg, obj, "sgm")
    return _run_async(
        obj, cfg, x0, workers, mode, xstar, log_updates, track_f, sgm, _flat_bounds(cfg)
    )


def run_ascd(
    obj, cfg: SolverConfig, x0, workers=1, mode=SPARSE_INCONSISTENT,
    xstar=None, log_updates=True, track_f=False,
):
    cfg = resolve_config(cfg, obj, "scd")
    return _run_async(
        obj, cfg, x0, workers, mode, xstar, log_updates, track_f, scd, _flat_bounds(cfg)
    )


def run_kromagnon(
    obj, weights: CoordinateWeights | None, cfg: SolverConfig, x0, workers=1,
    mode=SPARSE_INCONSISTENT, xstar=None, log_updates=True, track_f=False,
):
    cfg = resolve_config(cfg, obj, "kromagnon")
    w_cov = weights if weights is not None else obj.weights
    if not w_cov.all_covered:
        raise ValueError("KroMagnon requires every coordinate covered")
    bounds = [(k + 1) * cfg.epoch_size for k in range(cfg.epochs)]  # one checkpoint per epoch
    return _run_async(
        obj, cfg, x0, workers, mode, xstar, log_updates, track_f, svrg_sparse, bounds
    )


def time_to_progress(wall, f, target_fraction):
    """First wall time at which the running best of f has made target_fraction
    of its own progress from f[0] to its minimum; None if it never does."""
    best = np.minimum.accumulate(f)
    fmin = best[-1]
    target = fmin + (1.0 - target_fraction) * (f[0] - fmin)
    hit = np.flatnonzero(best <= target + 1e-15)
    return float(wall[hit[0]]) if hit.size else None


def measure_speedup(runs: dict, target_fraction: float) -> dict:
    """Time for each run to reach target_fraction of its own progress to its
    own minimum, and speedup relative to the 1-worker run.

    Each run must carry trace_f and trace_wall, plus the initial objective as
    the first trace entry or supplied via run.trace_f[0].
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    times = {}
    for w, run in runs.items():
        if run.trace_f is None or run.trace_wall is None:
            raise ValueError("measure_speedup needs trace_f and trace_wall")
        times[w] = time_to_progress(run.trace_wall, run.trace_f, target_fraction)
    base = times.get(1)
    return {
        w: {"time_to_target": t, "speedup": base / t if t and base is not None else None}
        for w, t in times.items()
    }
