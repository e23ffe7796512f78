"""Serial baseline solvers: SGM, SCD, dense SVRG, and sparse SVRG.

Each algorithm is one step kernel here: ``sgm``, ``scd``, ``svrg_sparse``
and ``svrg_dense`` build ``step(rng, src) -> (edge_id, idx, delta)`` with
``delta = -gamma * direction`` read from ``src``.  The serial solvers drive
the kernels with one sampling loop that writes ``x[idx] += delta`` with
plain NumPy; asyncopt.engine drives the same kernels from worker threads
that write through striped locks.  The staleness simulator uses the same
``*_direction`` helpers, so a 1-worker async run or a zero-delay simulation
reproduces the serial trajectory bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .hypergraph import CoordinateWeights
from .objectives import DecomposableObjective, solve_reference
from .vectors import LinfBall, sq_distance

__all__ = [
    "SolverConfig",
    "RunResult",
    "worker_rng",
    "resolve_config",
    "run_sgm",
    "run_scd",
    "run_svrg_dense",
    "run_svrg_sparse",
    "svrg_variance_check",
    "enumerated_mean_direction",
    "trace_to_csv",
]

STEP_RULES = ("explicit", "hogwild_theorem1", "scd_theorem2", "svrg_theorem3")
EPOCHAL_ALGOS = ("svrg_dense", "svrg_sparse", "kromagnon")  # configured by epochs
# the theorem step rule of each solver, used when no gamma is given
THEOREM_RULE = {
    "sgm": "hogwild_theorem1", "hogwild": "hogwild_theorem1",
    "scd": "scd_theorem2", "ascd": "scd_theorem2",
    "svrg_dense": "svrg_theorem3", "svrg_sparse": "svrg_theorem3",
    "kromagnon": "svrg_theorem3",
}


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
    theta: float = 1.0  # O(1) constant in the SCD rule gamma = theta/(6 d L kappa)
    log_every: int = 0  # 0 means log epoch boundaries / final only

    def __post_init__(self):
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step_rule {self.step_rule!r}")
        if (self.gamma is not None) != (self.step_rule == "explicit"):
            raise ValueError("set gamma exactly when step_rule is 'explicit'")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
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
    """Counter-based per-worker stream; worker 0 is the serial stream."""
    return np.random.Generator(np.random.Philox(key=[seed, worker]))


def resolve_config(cfg: SolverConfig, obj: DecomposableObjective, algo: str):
    """Fill in gamma / horizons from the named step rule. Returns a new config."""
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
        gamma = cfg.theta / (6.0 * c.d * c.L * c.kappa)
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
    if algo in EPOCHAL_ALGOS:
        if out.epoch_size is None or out.epochs is None:
            raise ValueError(f"{algo} needs epoch_size and epochs")
    elif out.total_iters is None:
        raise ValueError(f"{algo} needs total_iters")
    return out


# ---------------------------------------------------------------------------
# update directions, shared with the simulator
# ---------------------------------------------------------------------------

def draw_term(rng, n):
    return int(rng.integers(n))


def draw_coord(rng, d):
    return int(rng.integers(d))


def sgm_direction(obj, i, x_vals):
    """Gradient of term i evaluated at values aligned to its support."""
    return obj.term_grad_vals(i, x_vals)


def scd_direction(obj, v, x_like):
    """d * [full gradient]_v; x_like only needs valid entries on the read set."""
    return obj.d * obj.full_grad_coord(v, x_like)


def svrg_sparse_direction(obj, i, x_vals, y_vals, z, idx):
    """g(x,s) - g(y,s) + D_s z, values aligned to support idx."""
    gx = obj.term_grad_vals(i, x_vals)
    gy = obj.term_grad_vals(i, y_vals)
    return gx - gy + obj.d_inv[idx] * z[idx]


def svrg_dense_direction(obj, i, x_vals, y_vals):
    """Sparse part of the dense SVRG update; the dense z is added by the caller."""
    return obj.term_grad_vals(i, x_vals) - obj.term_grad_vals(i, y_vals)


# ---------------------------------------------------------------------------
# step kernels: step(rng, src) -> (edge_id, idx, delta), delta = -gamma * direction
# read from src; the serial loop and the async engine differ only in the write
# ---------------------------------------------------------------------------

def sgm(obj, gamma):
    """SGM, and Hogwild! when the engine drives it."""
    def step(rng, src):
        i = draw_term(rng, obj.n)
        idx = obj.term_support(i)
        return i, idx, -gamma * sgm_direction(obj, i, src[idx])
    return step


def scd(obj, gamma):
    """SCD, and ASCD when the engine drives it.

    The coordinate's read set is first copied into a private buffer, so the
    direction is computed from one read of each value.
    """
    scratch = np.zeros(obj.d)

    def step(rng, src):
        v = draw_coord(rng, obj.d)
        union = obj.coord_read_support(v)
        scratch[union] = src[union]
        u = scd_direction(obj, v, scratch)
        return v, np.array([v], dtype=np.int64), np.array([-gamma * u])
    return step


def svrg_sparse(obj, gamma, y, z):
    """Sparse SVRG around the snapshot y with z = grad f(y); KroMagnon in the engine."""
    def step(rng, src):
        i = draw_term(rng, obj.n)
        idx = obj.term_support(i)
        return i, idx, -gamma * svrg_sparse_direction(obj, i, src[idx], y[idx], z, idx)
    return step


def svrg_dense(obj, gamma, y, z):
    """Sparse part of dense SVRG; the serial loop adds the dense -gamma * z after it."""
    def step(rng, src):
        i = draw_term(rng, obj.n)
        idx = obj.term_support(i)
        return i, idx, -gamma * svrg_dense_direction(obj, i, src[idx], y[idx])
    return step


EPOCHAL_KERNELS = (svrg_sparse, svrg_dense)  # built from a snapshot (y, z)


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

class _Tracer:
    """Checkpoint recorder of the serial loop and the async driver.

    The wall clock starts at construction and excludes the measurements.  A
    checkpoint whose iterate is not finite ends the run: it is not recorded,
    the run is marked diverged, and its iteration count is that of the last
    finite checkpoint.
    """

    def __init__(self, obj, xstar, track_f, epochal):
        self.obj = obj
        self.xstar = xstar
        self.track_f = track_f
        self.iters, self.a, self.f, self.wall = [], [], [], []
        self.epoch_a = [] if epochal and xstar is not None else None
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

    def end_epoch(self, t, x):
        """||x - x*||^2 at an epoch end, reusing a checkpoint taken there."""
        if self.epoch_a is None:
            return
        if self.iters and self.iters[-1] == t:
            self.epoch_a.append(self.a[-1])
        else:
            self.epoch_a.append(sq_distance(x, self.xstar))

    def result(self, x, cfg) -> RunResult:
        return RunResult(
            x=x, iters=self.iters[-1] if self.iters else 0, gamma=cfg.gamma,
            seed=cfg.seed, trace_iter=np.asarray(self.iters, dtype=np.int64),
            trace_a=np.asarray(self.a) if self.xstar is not None else None,
            trace_f=np.asarray(self.f) if self.track_f else None,
            epoch_a=np.asarray(self.epoch_a) if self.epoch_a is not None else None,
            trace_wall=np.asarray(self.wall), wall_time=self.elapsed,
            diverged=self.diverged,
        )


def _run_serial(obj, cfg, x0, xstar, track_f, kernel) -> RunResult:
    """The one sampling loop: kernel steps written to x with plain NumPy.

    Epochal kernels are rebuilt from a fresh snapshot every
    snapshot_interval epochs; checkpoints fall every log_every samples and
    after the last one.
    """
    epochal = kernel in EPOCHAL_KERNELS
    dense = kernel is svrg_dense
    S, E = (cfg.epoch_size, cfg.epochs) if epochal else (cfg.total_iters, 1)
    every = cfg.log_every if cfg.log_every > 0 else S * E
    gamma = cfg.gamma
    lo, hi = clamp_bounds(obj, cfg)
    rng = worker_rng(cfg.seed, 0)
    x = np.array(x0, dtype=np.float64, copy=True)
    tracer = _Tracer(obj, xstar, track_f, epochal)
    step = None if epochal else kernel(obj, gamma)
    t = 0
    for k in range(E):
        if epochal and k % cfg.snapshot_interval == 0:
            y = x.copy()
            z = obj.full_grad(y)
            step = kernel(obj, gamma, y, z)
        for _ in range(S):
            _, idx, delta = step(rng, x)
            x[idx] += delta
            if dense:
                x += -gamma * z
                if lo is not None:
                    np.clip(x, lo, hi, out=x)
            elif lo is not None:
                x[idx] = np.clip(x[idx], lo, hi)
            t += 1
            if t % every == 0 and not tracer.record(t, x):
                return tracer.result(x, cfg)
        tracer.end_epoch(t, x)
    if t % every:
        tracer.record(t, x)
    return tracer.result(x, cfg)


def run_sgm(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    cfg = resolve_config(cfg, obj, "sgm")
    return _run_serial(obj, cfg, x0, xstar, track_f, sgm)


def run_scd(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    cfg = resolve_config(cfg, obj, "scd")
    return _run_serial(obj, cfg, x0, xstar, track_f, scd)


def run_svrg_dense(obj, cfg: SolverConfig, x0, xstar=None, track_f=False) -> RunResult:
    cfg = resolve_config(cfg, obj, "svrg_dense")
    return _run_serial(obj, cfg, x0, xstar, track_f, svrg_dense)


def run_svrg_sparse(
    obj, weights: CoordinateWeights | None, cfg: SolverConfig, x0, xstar=None,
    track_f=False,
) -> RunResult:
    cfg = resolve_config(cfg, obj, "svrg_sparse")
    for w in (weights, obj.weights):
        if w is not None and not w.all_covered:
            raise ValueError("sparse SVRG requires every coordinate covered")
    return _run_serial(obj, cfg, x0, xstar, track_f, svrg_sparse)


class VarianceCheck(NamedTuple):
    lhs: float
    rhs: float
    dz_quadratic: float  # z^T D z, the subtracted term (always >= 0)


def svrg_variance_check(obj, weights, x, y, xstar=None) -> VarianceCheck:
    """Enumerated second moment of the sparse SVRG update versus its bound.

    lhs = E_s ||g(x,s) - g(y,s) + D_s grad f(y)||^2 by full enumeration;
    rhs = 2 E||g(x,s) - g(x*,s)||^2 + 2 E||g(y,s) - g(x*,s)||^2
          - 2 grad f(y)^T D grad f(y).
    """
    if xstar is None:
        xstar = solve_reference(obj)
    d_inv = weights.d_inv if weights is not None else obj.d_inv
    z = obj.full_grad(y)
    lhs = 0.0
    t1 = 0.0
    t2 = 0.0
    for i in range(obj.n):
        idx = obj.term_support(i)
        gx = obj.term_grad_vals(i, x[idx])
        gy = obj.term_grad_vals(i, y[idx])
        gs = obj.term_grad_vals(i, xstar[idx])
        v = gx - gy + d_inv[idx] * z[idx]
        lhs += float(v @ v)
        dxs = gx - gs
        dys = gy - gs
        t1 += float(dxs @ dxs)
        t2 += float(dys @ dys)
    n = obj.n
    dz = float(z @ (d_inv * z))
    rhs = 2.0 * t1 / n + 2.0 * t2 / n - 2.0 * dz
    return VarianceCheck(lhs=lhs / n, rhs=rhs, dz_quadratic=dz)


def enumerated_mean_direction(obj, x, algo, y=None):
    """Average update direction over all samples; equals grad f(x) when unbiased."""
    if algo in ("svrg_dense", "svrg_sparse"):
        z = obj.full_grad(y)
    out = np.zeros(obj.d)
    if algo == "scd":
        for v in range(obj.d):
            out[v] = obj.d * obj.full_grad_coord(v, x)
        return out / obj.d
    for i in range(obj.n):
        idx = obj.term_support(i)
        if algo == "sgm":
            out[idx] += obj.term_grad_vals(i, x[idx])
        elif algo == "svrg_dense":
            out[idx] += svrg_dense_direction(obj, i, x[idx], y[idx])
            out += z
        elif algo == "svrg_sparse":
            out[idx] += svrg_sparse_direction(obj, i, x[idx], y[idx], z, idx)
        else:
            raise ValueError(f"unknown algo {algo!r}")
    return out / obj.n


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
