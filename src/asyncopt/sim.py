"""Deterministic single-threaded simulator of asynchronous staleness.

Reconstructs the analysis objects of lock-free execution: the exact "fake"
iterate sequence x_{j+1} = x_j - gamma * g(xhat_j, s_j), and the stale
read iterates xhat_j built from an explicit per-coordinate visibility
schedule.  g is the solvers' own kernel from asyncopt.serial, with their
sample stream and epoch schedule, so a zero-delay simulation is the serial
run.  A SimTrace keeps (x_j, xhat_j, g_j) and everything the analysis reads
is derived from it: the error terms R0 = ||g_j||^2, R1 = ||xhat_j - x_j||^2
and R2 = <xhat_j - x_j, g_j>, and the distances a_j = ||x_j - x*||^2.  The
checks are:

  - the per-step expansion of ||x_{j+1} - x*||^2 (exact algebra),
  - the distance recursion through R0, R1, R2,
  - one window chain G_r / Delta_r for the coordinate-descent and
    sparse-SVRG analyses, with G_r read from the enumerated second moment
    q_j = E_s ||g(xhat_j, s)||^2.

A schedule only marks *earlier* in-window writes as missing.  Making later
writes visible in earlier reads is acausal for a single-pass simulation
(each read would depend on updates that in turn depend on that read), so
staleness is the only deviation modeled; the window bounds cover it the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .objectives import DecomposableObjective
from .serial import (
    SOLVERS,
    SolverConfig,
    _checkpoints,
    _epochs,
    _second_moment,
    resolve_config,
    worker_rng,
)
from .vectors import sq_distance

__all__ = [
    "DelaySchedule",
    "SimTrace",
    "gen_schedule",
    "simulate",
    "check_step_identity",
    "check_recursion",
    "check_hogwild_bounds",
    "check_ascd_windows",
    "check_svrg_variance_window",
    "window_indices",
]

STYLES = ("none", "random", "adversarial_stale")


@dataclass(frozen=True)
class DelaySchedule:
    """Per-coordinate visibility deviations within a staleness window.

    ``missing[j, l-1, v]`` is True when the write of sample ``j - l``
    (lag l in 1..tau) to coordinate v is not yet visible in the read
    xhat_j.  Writes older than the window are always visible; writes at
    j or later are never visible.
    """

    T: int
    tau: int
    d: int
    missing: np.ndarray  # bool, shape (T, tau, d), C-contiguous

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        expect = (self.T, self.tau, self.d)
        if self.missing.shape != expect:
            raise ValueError(f"missing mask must have shape {expect}")
        # an integer mask would index xhat[mask] by position, not select
        if self.missing.dtype != np.bool_:
            raise ValueError(f"missing mask must be bool, got dtype {self.missing.dtype}")
        object.__setattr__(self, "missing", np.ascontiguousarray(self.missing))


def gen_schedule(T, tau, d, seed=0, style="random") -> DelaySchedule:
    """Generate a visibility schedule.

    none: no deviations (serial).  random: each in-window coordinate write
    is missing independently with probability 1/2.  adversarial_stale: every
    in-window earlier write is missing (maximal staleness).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}")
    if style == "none" or tau == 0:
        missing = np.zeros((T, tau, d), dtype=bool)
    elif style == "adversarial_stale":
        missing = np.ones((T, tau, d), dtype=bool)
    else:
        rng = np.random.default_rng(seed)
        missing = rng.random((T, tau, d)) < 0.5
    # lags that would reach before sample 0 are not real deviations
    for j in range(min(T, tau)):
        missing[j, j:, :] = False
    return DelaySchedule(T=T, tau=tau, d=d, missing=missing)


@dataclass
class SimTrace:
    """The perturbed-iterate record of one simulated run (one seed).

    It keeps the sequence x_{j+1} = x_j - gamma * g_j with g_j = g(xhat_j,
    s_j) and its setting; a, r0, r1 and r2 are derived from it as row dot
    products on first use.
    """

    algo: str
    gamma: float
    tau: int
    seed: int
    X: np.ndarray  # (T+1, d) fake iterates
    Xhat: np.ndarray  # (T, d) read iterates
    U: np.ndarray  # (T, d) dense update directions g_j (x advances by -gamma*U)
    q: np.ndarray  # (T,) conditional E_s ||g(xhat_j, s)||^2 (0 when not recorded)
    epoch_start: np.ndarray  # (T,) first sample index of each step's epoch
    snapshot_a: np.ndarray  # (T,) ||y - x*||^2 of the active snapshot (SVRG), else 0
    xstar: np.ndarray

    @property
    def T(self):
        return int(self.U.shape[0])

    @cached_property
    def a(self):  # (T+1,) ||x_j - x*||^2
        return _rowdot(self.X - self.xstar)

    @cached_property
    def r0(self):  # (T,) ||g_j||^2
        return _rowdot(self.U)

    @cached_property
    def r1(self):  # (T,) ||xhat_j - x_j||^2
        return _rowdot(self.Xhat - self.X[:-1])

    @cached_property
    def r2(self):  # (T,) <xhat_j - x_j, g_j>
        return _rowdot(self.Xhat - self.X[:-1], self.U)


def _rowdot(P, Q=None):
    """Row-wise dot products of P and Q (of P with itself by default)."""
    return (P * (P if Q is None else Q)).sum(axis=1)


def simulate(
    obj: DecomposableObjective,
    cfg: SolverConfig,
    x0,
    schedule: DelaySchedule,
    algo: str,
    xstar=None,
    record_q=True,
) -> SimTrace:
    """Run one seed of {sgm|scd|svrg_sparse} under the given visibility
    schedule, with the solvers' kernel, sample stream and epochs.  Each epoch
    is one segment: the kernel's native ``simulate`` (one C call) when it
    has a stretch, else _reference_segment.  Projection/clamping is not
    simulated (the identities being checked are for the unconstrained
    recursions)."""
    if algo not in ("sgm", "scd", "svrg_sparse"):
        raise ValueError(f"unknown algo {algo!r}")
    if xstar is None:
        raise ValueError("simulate needs x* to record distances")
    cfg = replace(resolve_config(cfg, obj, algo), log_every=0)  # one segment per epoch
    factory = SOLVERS[algo].kernel
    S, E = _epochs(cfg, SOLVERS[algo].epochal)
    T = S * E
    if schedule.T < T or schedule.d != obj.d:
        raise ValueError("schedule does not cover this run (length or dim)")
    tau = schedule.tau
    gamma = cfg.gamma
    rng = worker_rng(cfg.seed, 0)
    X = np.zeros((T + 1, obj.d))
    Xhat = np.zeros((T, obj.d))
    U = np.zeros((T, obj.d))
    q = np.zeros(T)
    epoch_start = np.zeros(T, dtype=np.int64)
    snapshot_a = np.zeros(T)
    x = np.array(x0, dtype=np.float64, copy=True)
    X[0] = x
    # x is updated in place, so each snapshot is the fake iterate at its epoch start
    for ep0, end, snap in _checkpoints(obj, cfg, factory, x):
        kernel = factory(obj, *snap)
        epoch_start[ep0:end] = ep0
        snapshot_a[ep0:end] = sq_distance(snap[0], xstar) if snap else 0.0
        # the serial stream: one draw of a chunk is one draw at a time
        segment = (X, Xhat, U, q if record_q else None, schedule.missing, tau, ep0,
                   rng.integers(kernel.samples, size=end - ep0), gamma)
        if kernel.stretch is not None:
            kernel.stretch.simulate(*segment)
        else:
            _reference_segment(kernel, *segment)
        x[:] = X[end]
    return SimTrace(
        algo=algo, gamma=gamma, tau=tau, seed=cfg.seed, X=X, Xhat=Xhat, U=U, q=q,
        epoch_start=epoch_start, snapshot_a=snapshot_a,
        xstar=np.asarray(xstar, dtype=np.float64),
    )


def _reference_segment(kernel, X, Xhat, U, q, missing, tau, ep0, draws, gamma):
    """Steps ep0 .. ep0 + draws.size - 1 of one epoch, in place, in NumPy over
    the kernel's direction: the contract of the native segment
    (asyncopt._stretch.Stretch.simulate).
    X[ep0] holds the epoch's first fake iterate and U's rows are zero; q is
    None when not recorded."""
    x = X[ep0].copy()
    for j, s in enumerate(draws.tolist(), ep0):
        # read iterate: add back the in-window writes marked missing
        # (staleness does not cross the epoch barrier)
        xhat = x.copy()
        for lag in range(1, min(tau, j - ep0) + 1):
            mask = missing[j, lag - 1]
            if mask.any():
                xhat[mask] += gamma * U[j - lag][mask]
        Xhat[j] = xhat
        idx, vals = kernel.direction(s, xhat)
        U[j, idx] = vals
        if q is not None:
            q[j] = _second_moment(kernel, xhat)
        x -= gamma * U[j]
        X[j + 1] = x


# ---------------------------------------------------------------------------
# identity / bound checks
# ---------------------------------------------------------------------------

def check_step_identity(trace: SimTrace, tol=1e-9):
    """Exact per-step expansion of the squared distance:

    ||x_{j+1}-x*||^2 = ||x_j-x*||^2 - 2 gamma <xhat_j - x*, g_j>
                       + gamma^2 ||g_j||^2 + 2 gamma <xhat_j - x_j, g_j>
    """
    g, a = trace.gamma, trace.a
    rhs = (a[:-1] - 2.0 * g * _rowdot(trace.Xhat - trace.xstar, trace.U)
           + g * g * trace.r0 + 2.0 * g * trace.r2)
    errs = np.abs(a[1:] - rhs)
    scale = max(1.0, float(a.max()))
    return {"ok": bool(errs.max() <= tol * scale), "max_error": float(errs.max())}


def _stack(traces, attr):
    return np.stack([getattr(t, attr) for t in traces])


def _require_seeds(traces, k=5):
    if len(traces) < k:
        raise ValueError(f"need at least {k} seeds to estimate expectations")
    seeds = {t.seed for t in traces}
    if len(seeds) != len(traces):
        raise ValueError("traces must come from distinct seeds")


def check_recursion(traces, constants, tol=1e-9):
    """Seed-averaged distance recursion (error terms R0, R1, R2) plus the
    pointwise strong-convexity step with the exact full gradient.

    For each j the statistic Z = a_{j+1} - [(1-gamma*m) a_j + gamma^2 R0
    + 2 gamma m R1 + 2 gamma R2] has nonpositive expectation; we assert
    mean(Z) <= 3 SE(Z) across seeds.
    """
    _require_seeds(traces)
    gamma = traces[0].gamma
    m = constants.m
    A = _stack(traces, "a")
    R0 = _stack(traces, "r0")
    R1 = _stack(traces, "r1")
    R2 = _stack(traces, "r2")
    Z = A[:, 1:] - (
        (1.0 - gamma * m) * A[:, :-1]
        + gamma**2 * R0
        + 2.0 * gamma * m * R1
        + 2.0 * gamma * R2
    )
    n_seeds = Z.shape[0]
    mean = Z.mean(axis=0)
    se = Z.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    scale = max(1.0, float(A.max()))
    slack = 3.0 * se + tol * scale
    margins = slack - mean  # >= 0 when the recursion holds
    return {
        "ok": bool(np.all(mean <= slack)),
        "worst_margin": float(margins.min()),
        "mean": mean,
        "se": se,
    }


def check_strong_convexity_step(traces, obj, constants, tol=1e-9):
    """Pointwise lower bound with the exact gradient at the read:
    <xhat_j - x*, grad f(xhat_j)> >= (m/2)||x_j - x*||^2 - m||xhat_j - x_j||^2.
    Deterministic given the trajectory, so no statistical slack is needed."""
    m = constants.m
    worst = np.inf
    for t in traces:
        for j in range(t.T):
            gf = obj.full_grad(t.Xhat[j])
            lhs = float((t.Xhat[j] - t.xstar) @ gf)
            rhs = 0.5 * m * t.a[j] - m * t.r1[j]
            worst = min(worst, lhs - rhs)
    scale = max(1.0, float(max(t.a.max() for t in traces)))
    return {"ok": bool(worst >= -tol * scale), "worst_margin": float(worst)}


def check_hogwild_bounds(traces, constants, avg_conflict_degree, M=None):
    """Staleness error bounds for SGM traces:

    mean R1 <= gamma^2 M^2 (2 tau + 8 tau^2 dbar/n)  and
    mean R2 <= 4 gamma M^2 tau dbar / n,  each plus 3 standard errors.
    """
    _require_seeds(traces)
    gamma = traces[0].gamma
    tau = traces[0].tau
    n = constants.n
    dbar = avg_conflict_degree
    if M is None:
        M = constants.M
    R1 = _stack(traces, "r1")
    R2 = _stack(traces, "r2")
    k = R1.shape[0]
    r1_bound = gamma**2 * M**2 * (2.0 * tau + 8.0 * tau**2 * dbar / n)
    r2_bound = 4.0 * gamma * M**2 * tau * dbar / n
    m1 = R1.mean(axis=0)
    s1 = R1.std(axis=0, ddof=1) / math.sqrt(k)
    m2 = np.abs(R2).mean(axis=0)
    s2 = np.abs(R2).std(axis=0, ddof=1) / math.sqrt(k)
    ok1 = np.all(m1 <= r1_bound + 3.0 * s1)
    ok2 = np.all(m2 <= r2_bound + 3.0 * s2)
    return {
        "ok": bool(ok1 and ok2),
        "r1_ok": bool(ok1),
        "r2_ok": bool(ok2),
        "r1_bound": r1_bound,
        "r2_bound": r2_bound,
        "r1_worst_margin": float((r1_bound + 3.0 * s1 - m1).min()),
        "r2_worst_margin": float((r2_bound + 3.0 * s2 - m2).min()),
    }


def window_indices(j, r, tau, hi, lo=0):
    """S_r^j: indices within r*tau of j, clipped to [lo, hi).  Cardinality
    is at most 2*r*tau + 1 by construction."""
    return np.arange(max(lo, j - r * tau), min(hi, j + r * tau + 1))


def _window_chain(traces, algo, coef, r_max, j_stride, tol):
    """The window chain of the coordinate-descent and sparse-SVRG analyses:
    for r <= r_max and every j_stride-th step j,

    G_r <= coef (a_j + a_y + Delta_r)   and
    Delta_r <= (3 gamma tau (r+1))^2 * (realized max ||g||^2 over S_{r+1}),

    with seed means of a_j, of the snapshot distance a_y (0 for SCD), of the
    conditional second moment q (G_r is its max over S_r) and of
    ||x_j - xhat_k||^2 (Delta_r is its max over k in S_r).  The windows are
    clipped to j's epoch.  The first link is pointwise smoothness, the
    second the Cauchy-Schwarz expansion of the mismatch over the wider window.
    """
    _require_seeds(traces)
    t0 = traces[0]
    if t0.algo != algo:
        raise ValueError(f"this window chain expects {algo} traces")
    tau, gamma = t0.tau, t0.gamma
    Q, A, Y, R0 = (_stack(traces, k) for k in ("q", "a", "snapshot_a", "r0"))
    epoch_end = np.searchsorted(t0.epoch_start, t0.epoch_start, side="right")
    rows = []
    for j in range(0, t0.T, j_stride):
        lo, hi = int(t0.epoch_start[j]), int(epoch_end[j])
        a_tot = float(A[:, j].mean()) + float(Y[:, j].mean())
        for r in range(r_max + 1):
            S_r = window_indices(j, r, tau, hi, lo)
            assert S_r.size <= 2 * r * tau + 1
            g_hat = float(Q[:, S_r].mean(axis=0).max())
            m_jk = np.array([_rowdot(t.X[j] - t.Xhat[S_r]) for t in traces])
            delta_hat = float(m_jk.mean(axis=0).max())
            real_max = R0[:, window_indices(j, r + 1, tau, hi, lo)].max(axis=1)
            bound_d = (3.0 * gamma * tau * (r + 1)) ** 2 * float(real_max.mean())
            rows.append({"j": j, "r": r, "g_hat": g_hat, "delta_hat": delta_hat,
                         "margin_g": coef * (a_tot + delta_hat) - g_hat,
                         "margin_d": bound_d - delta_hat})
    scale = max(1.0, max(r["g_hat"] for r in rows))
    worst_g = min(r["margin_g"] for r in rows)
    worst_d = min(r["margin_d"] for r in rows)
    return {
        "ok": bool(worst_g >= -tol * scale and worst_d >= -tol * scale),
        "worst_margin_g": float(worst_g),
        "worst_margin_d": float(worst_d),
        "rows": rows,
    }


def check_ascd_windows(traces, constants, r_max=3, j_stride=1, tol=1e-9):
    """Coordinate-descent window chain with coef = 2 d L^2."""
    return _window_chain(traces, "scd", 2.0 * constants.d * constants.L**2, r_max, j_stride, tol)


def check_svrg_variance_window(traces, constants, r_max=3, j_stride=1, tol=1e-9):
    """Sparse-SVRG window chain with coef = 4 L_term^2 (the variance bound is
    per term) and a_y the active snapshot's distance."""
    return _window_chain(traces, "svrg_sparse", 4.0 * constants.L_term**2, r_max, j_stride,
                         tol)
