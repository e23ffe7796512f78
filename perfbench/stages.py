"""Workloads of the asyncopt benchmark and the stages one run goes through.

The benchmark treats asyncopt as a black box: it only calls public
functions of the layers ``data``, ``objectives``, ``serial``, ``engine``,
``hypergraph`` and ``sim``, and times those calls from outside.

Every workload runs the same stages on its own instance:

  prep      make the inputs from the seed (untimed); the sparse shape is
            remapped and written to a libsvm file here
  setup     load or generate, remap, build the objective (repeated, median)
  oracle    f* by L-BFGS on value/full_grad (untimed, checked)
  measure   rounds of every task until the run's measuring time is used:
            time to target of KroMagnon w1/w2 and dense SVRG, serial and
            lock-free per-sample costs, conflict statistics, simulator checks
"""

from __future__ import annotations

import gc
import os
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np
import scipy.optimize
from scipy.sparse.linalg import LinearOperator, cg

from asyncopt.data import (
    SyntheticSpec,
    gen_synthetic,
    parse_libsvm,
    remap_covered,
    write_libsvm,
)
from asyncopt.engine import SharedIterate, run_ascd, run_hogwild, run_kromagnon
from asyncopt.hypergraph import (
    conflict_stats,
    conflict_stats_bruteforce,
    coordinate_weights,
    intersection_probability_bound,
    tau_bound_comparison,
)
from asyncopt.objectives import (
    least_squares_objective,
    logistic_objective,
    solve_reference,
)
from asyncopt.serial import (
    SolverConfig,
    resolve_config,
    run_scd,
    run_sgm,
    run_svrg_dense,
    run_svrg_sparse,
)
from asyncopt.sim import (
    check_hogwild_bounds,
    check_recursion,
    check_step_identity,
    gen_schedule,
    simulate,
)

from spans import Tracer, timed

WORKERS = (1, 2)  # 2 cores, and CPython threads share one interpreter lock
SETUP_REPEATS = 3
MIN_ROUNDS = 3
THEOREM_EPS = 1e-2  # accuracy fed to the hogwild_theorem1 rule when recording it
ORACLE_GTOL = 1e-10  # required ||grad f(x*)||
BRUTEFORCE_TERMS = 300  # prefix on which conflict_stats is checked against the O(n^2) oracle
MICRO_BATCH = 2000  # term ids drawn from the seed for per-call timings
MICRO_MIN_S = 0.3  # each per-call timing loops at least this long
CAL_STEPS = 2_000  # gather-scatter steps of one calibration_s()
CAL_REF_S = 4.0e-3  # calibration_s() on the reference machine: the 2-vCPU VM of baseline.json, unloaded
UNSCALED = ("engine.tau_", "calibration_s")  # noted values that are not times to scale


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    nnz: int
    l2_reg: float
    from_file: bool  # set-up parses a libsvm file written during prep
    gamma: float  # explicit step size of every sampling solver
    target_gap: float  # relative gap (f - f*) / (f0 - f*) for time to target
    epoch_size: int
    epochs: int  # sample budget of a time-to-target run is epoch_size * epochs
    flat_iters: int  # samples per sgm / hogwild timing run
    cd_iters: int  # steps per scd / ascd timing run
    stats_terms: int  # conflict statistics over this many leading terms


# Every time-to-target run is 2 epochs of 5,000 samples, so one round of
# all tasks takes a few seconds and a run holds 5 to 13 rounds.  Each
# target sits between the checkpoints at 5k and 10k samples of KroMagnon
# w1, w2 and dense SVRG with a margin of at least 1.2x on both sides;
# their gaps differ by about 1% between seeds, so seeds do not flip the
# epoch it is reached in, and the budget ends at that epoch.  On the
# sparse shape, gamma 0.02 diverges (L_term ~ 509 from d_inv up to 5e4);
# at 0.01 and 8e-3 a few samples with large d_inv set KroMagnon w2 back on
# some seeds (gap 0.335 against w1's 0.228 at 10k samples, seed 402), and
# 6e-3 keeps w2 within 1% of w1 on seeds 400-405.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_d1k", n=50_000, d=1_000, nnz=20,
            l2_reg=1e-2, from_file=False, gamma=0.02, target_gap=1.5e-2,
            epoch_size=5_000, epochs=2, flat_iters=6_000, cd_iters=15,
            stats_terms=2_500,
        ),
        Workload(
            name="sparse_d100k", n=50_000, d=100_000, nnz=20,
            l2_reg=1e-2, from_file=True, gamma=6e-3, target_gap=0.45,
            epoch_size=5_000, epochs=2, flat_iters=6_000, cd_iters=1_600,
            stats_terms=8_000,
        ),
    )
}


@dataclass(frozen=True)
class SimSpec:
    """Small ridge instance for the staleness simulator, shared by all workloads.

    check_recursion tests mean <= 3 SE at every step, so its false-alarm
    rate grows with the horizon and shrinks with the seed count; T=100 over
    30 seeds passed on 30 of 30 data seeds.
    """

    n: int = 2_000
    d: int = 200
    nnz: int = 5
    l2_reg: float = 1.0
    gamma: float = 0.01
    tau: int = 4
    T: int = 100
    seeds: int = 30


SIM = SimSpec()


class Gate:
    """Correctness operations: each check is one attempt."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok), str(detail)))
        return bool(ok)

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.results if not ok)


def _median(xs):
    return float(statistics.median(xs))


def _trimmed_mean(xs):
    """Mean without the lowest and highest tenth, at least one value at each end.

    On three values this is the median.  Unlike the median it moves
    smoothly when the repeats split between a fast and a slow machine
    state, and unlike the mean one preempted repeat barely moves it.
    """
    xs = sorted(xs)
    k = max(1, len(xs) // 10) if len(xs) >= 3 else 0
    return float(np.mean(xs[k:len(xs) - k]))


def _finite(res):
    return (not res.diverged) and bool(np.all(np.isfinite(res.x)))


def _per_call_us(fn, args_list, min_calls=10):
    """Median µs of single calls, cycling through args_list for >= MICRO_MIN_S."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < MICRO_MIN_S:
        args = args_list[len(times) % len(args_list)]
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return _median(times) * 1e6


def calibration_s():
    """Wall time of a fixed loop of small gathers and scatters.

    It is shaped like a run of sampling steps but holds no asyncopt code,
    so it tracks only the machine's speed, and no change to the library
    can move it.  A 2-vCPU VM on a shared host runs the same work up to
    1.4x slower for seconds to minutes at a time, often for a whole run;
    Run.value() divides that out.
    """
    x = np.zeros(1_000)
    idx = np.arange(0, 1_000, 50)  # 20 coordinates, the nnz of one term
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        x[idx] = x[idx] * 0.5 + 1.0
    return time.perf_counter() - t0


def newton_polish(obj, x, steps=4):
    """Newton steps, Hessian products by differences of full_grad.

    L-BFGS's line search on f stalls once f moves less than its rounding
    (about 1e-16 relative), which on ill-conditioned shapes leaves
    ||grad f|| just above ORACLE_GTOL; these steps use the gradient alone.
    """
    for _ in range(steps):
        g = obj.full_grad(x)
        if np.linalg.norm(g) <= ORACLE_GTOL / 100:
            break

        def hess_vec(v, x=x, g=g):
            h = 1e-6 / max(float(np.linalg.norm(v)), 1e-300)
            return (obj.full_grad(x + h * v) - g) / h

        p, _ = cg(LinearOperator((obj.d, obj.d), matvec=hess_vec, dtype=np.float64),
                  g, rtol=1e-8, maxiter=100)
        x = x - p
    return x


def time_to_target(res, f0, fstar, target, epoch_size):
    """First checkpoint, t=0 included, whose relative gap is <= target.

    Returns (seconds, epochs, samples), or None when the run never gets
    there.  The gap is measured against the oracle's f*, never against the
    run's own minimum.
    """
    f = np.concatenate([[f0], res.trace_f])
    wall = np.concatenate([[0.0], res.trace_wall])
    iters = np.concatenate([[0], res.trace_iter])
    gap = (f - fstar) / (f0 - fstar)
    hit = np.flatnonzero(gap <= target)
    if not hit.size:
        return None
    k = int(hit[0])
    return float(wall[k]), int(iters[k]) // epoch_size, int(iters[k])


class Run:
    """One benchmark run of one workload; collects timings, gate and counts."""

    def __init__(self, w: Workload, seed: int, seconds: float, tracer: Tracer, outdir):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.tr = tracer
        self.gate = Gate()
        self.t: dict[str, list[float]] = {}  # timing name -> one value per repeat
        self.info: dict = {}
        self.counting = False
        self.rng = np.random.default_rng(np.random.Philox(key=[seed, 7]))
        self.path = os.path.join(outdir, f"{w.name}-s{seed}.svm")

    # -- helpers ---------------------------------------------------------
    def note(self, name, value):
        self.t.setdefault(name, []).append(float(value))

    def value(self, name):
        """The trimmed mean of a timing's repeats, scaled to the reference machine.

        Every time is multiplied by CAL_REF_S over the trimmed mean of the
        calibration_s() probes taken before each measuring task: what the
        run would have taken on the reference machine.  One factor per run,
        not per repeat: single probes track the speed of the next task
        poorly, while the run's mean tracks the run's.
        """
        v = _trimmed_mean(self.t[name])
        if name.startswith(UNSCALED):
            return v
        return v * CAL_REF_S / _trimmed_mean(self.t["calibration_s"])

    def call(self, layer, name, fn, *args, **kwargs):
        out, dt = timed(self.tr, layer, name, fn, *args, **kwargs)
        self.note(f"{layer}.{name}", dt)
        return out, dt

    def count_full_grad_calls(self):
        """Count obj.full_grad calls at the objectives boundary, library calls included."""
        inner = self.obj.full_grad

        def full_grad(x):
            self.count("full_grad_calls")
            return inner(x)

        self.obj.full_grad = full_grad

    def count(self, name, k=1):
        if self.counting:
            self.tr.count(name, k)

    def _solver_counts(self, res, workers=None):
        """Counts over the first run of each time-to-target task, whose work is fixed."""
        self.count("samples", res.iters)
        self.count("checkpoints", len(res.trace_iter))
        if workers is not None:  # the engine starts its workers once per checkpoint segment
            self.count("threads_started", workers * len(res.trace_iter))

    # -- prep and set-up -------------------------------------------------
    def spec(self):
        return SyntheticSpec(self.w.n, self.w.d, self.w.nnz, label_model="logistic",
                             seed=self.seed)

    def prep(self):
        w = self.w
        with self.tr.span("bench", "prep"):
            need_file = w.from_file or self.tr.enabled  # traced runs time parse_libsvm everywhere
            if need_file:
                ds, _ = self.call("data", "gen_synthetic", gen_synthetic, self.spec(), l2_reg=w.l2_reg)
                # spans only: data.remap_covered_s is the median over set-ups
                (ds, _), _ = timed(self.tr, "data", "remap_covered", remap_covered, ds)
                timed(self.tr, "data", "write_libsvm", write_libsvm, self.path, ds)
                self.info["d_after_remap"] = int(ds.d)

    def setup(self):
        w = self.w
        for _ in range(SETUP_REPEATS):
            with self.tr.span("bench", "setup"):
                t0 = time.perf_counter()
                if w.from_file:
                    ds, _ = self.call("data", "parse_libsvm", parse_libsvm, self.path, l2_reg=w.l2_reg)
                else:
                    ds, _ = self.call("data", "gen_synthetic", gen_synthetic, self.spec(), l2_reg=w.l2_reg)
                (ds, _), _ = self.call("data", "remap_covered", remap_covered, ds)
                obj, _ = self.call("objectives", "build", logistic_objective, ds)
                sim_ds, _ = self.call(
                    "data", "gen_synthetic_sim", gen_synthetic,
                    SyntheticSpec(SIM.n, SIM.d, SIM.nnz, label_model="linear", seed=self.seed),
                    l2_reg=SIM.l2_reg,
                )
                sim_obj, _ = self.call("objectives", "build_sim", least_squares_objective, sim_ds)
                self.note("setup_s", time.perf_counter() - t0)
        self.obj, self.sim_obj = obj, sim_obj
        self.info["d"] = int(obj.d)
        self.info["constants"] = asdict(obj.constants)
        self.gate.check("setup.all_covered", obj.weights.all_covered)

    # -- oracle ----------------------------------------------------------
    def oracle(self):
        obj = self.obj
        with self.tr.span("bench", "oracle"):
            r = scipy.optimize.minimize(
                lambda x: (obj.value(x), obj.full_grad(x)), np.zeros(obj.d),
                jac=True, method="L-BFGS-B",
                options={"gtol": 1e-13, "ftol": 0.0, "maxiter": 2_000, "maxcor": 20},
            )
            xstar = newton_polish(obj, r.x)
            gnorm = float(np.linalg.norm(obj.full_grad(xstar)))
            self.gate.check("oracle.grad_norm", gnorm <= ORACLE_GTOL, f"{gnorm:.3e}")
            if obj.d <= 5_000:
                # solve_reference densifies d x d; only the small-d shapes can afford it
                ref = solve_reference(obj)
                diff = float(np.linalg.norm(ref - xstar))
                self.gate.check("oracle.matches_solve_reference", diff <= 1e-7, f"{diff:.3e}")
        self.xstar = xstar
        self.f0 = float(obj.value(np.zeros(obj.d)))
        self.fstar = float(obj.value(xstar))
        self.info.update(oracle_iters=int(r.nit), oracle_grad_norm=gnorm,
                         f0=self.f0, fstar=self.fstar)
        a0 = float(xstar @ xstar)
        theorem = {
            "hogwild_theorem1": resolve_config(
                SolverConfig(step_rule="hogwild_theorem1", eps=THEOREM_EPS, a0=a0),
                obj, "sgm").gamma,
            "svrg_theorem3": resolve_config(
                SolverConfig(step_rule="svrg_theorem3", epochs=1), obj, "kromagnon").gamma,
            "scd_theorem2": resolve_config(
                SolverConfig(step_rule="scd_theorem2", total_iters=1), obj, "scd").gamma,
        }
        self.info["gamma"] = {"explicit": self.w.gamma, "theorem": theorem,
                              "theorem_eps": THEOREM_EPS}

    # -- time to target --------------------------------------------------
    def epoch_cfg(self):
        w = self.w
        return SolverConfig(gamma=w.gamma, epoch_size=w.epoch_size, epochs=w.epochs,
                            seed=self.seed, log_every=w.epoch_size)

    def ttt_run(self, key, first):
        """One time-to-target run: KroMagnon w1/w2 or dense SVRG over the budget."""
        w, obj = self.w, self.obj
        x0 = np.zeros(obj.d)
        cfg = self.epoch_cfg()
        self.counting = first
        with self.tr.span("bench", f"ttt.{key}"):
            if key == "svrg_dense":
                res, wall = timed(self.tr, "serial", "run_svrg_dense", run_svrg_dense,
                                  obj, cfg, x0, track_f=True)
                self._solver_counts(res)
            else:
                workers = int(key[-1])
                (res, _), wall = timed(
                    self.tr, "engine", f"run_kromagnon.w{workers}", run_kromagnon,
                    obj, None, cfg, x0, workers=workers, log_updates=False, track_f=True,
                )
                self._solver_counts(res, workers)
        self.counting = False
        self.note(f"us.{key}", wall / res.iters * 1e6)
        hit = time_to_target(res, self.f0, self.fstar, w.target_gap, w.epoch_size)
        self.gate.check(f"ttt.{key}.finite", _finite(res))
        self.gate.check(f"ttt.{key}.reached", hit is not None,
                        f"target {w.target_gap} within {w.epoch_size * w.epochs} samples")
        if hit is None:  # report the whole budget; the gate flags it
            hit = (float(res.trace_wall[-1]), w.epochs, w.epoch_size * w.epochs)
        self.note(f"ttt.{key}", hit[0])
        if key == "kromagnon.w1":
            self.note("engine.checkpoint_s", wall - res.wall_time)
        if not first:
            return
        gaps = (res.trace_f - self.fstar) / (self.f0 - self.fstar)
        self.info[f"ttt.{key}"] = {"epochs": hit[1], "samples": hit[2], "gaps": gaps.tolist()}
        if key == "kromagnon.w1":
            sparse, wall = timed(self.tr, "serial", "run_svrg_sparse", run_svrg_sparse,
                                 obj, None, cfg, x0)
            self.note("us.svrg_sparse", wall / sparse.iters * 1e6)
            self.gate.check("ttt.svrg_sparse.finite", _finite(sparse))
            self.gate.check("identity.kromagnon_w1_vs_svrg_sparse",
                            np.array_equal(res.x, sparse.x))

    # -- measuring tasks -------------------------------------------------
    def flat_cfg(self):
        return SolverConfig(gamma=self.w.gamma, total_iters=self.w.flat_iters, seed=self.seed)

    def sgm_run(self):
        obj = self.obj
        self.sgm, t_sgm = timed(self.tr, "serial", "run_sgm", run_sgm,
                                obj, self.flat_cfg(), np.zeros(obj.d))
        self.note("us.sgm", t_sgm / self.sgm.iters * 1e6)
        self.gate.check("flat.sgm.finite", _finite(self.sgm))

    def hogwild_run(self, workers):
        obj = self.obj
        (res, rep), wall = timed(
            self.tr, "engine", f"run_hogwild.w{workers}", run_hogwild,
            obj, self.flat_cfg(), np.zeros(obj.d), workers=workers, log_updates=False,
        )
        self.note(f"us.hogwild.w{workers}", wall / res.iters * 1e6)
        self.gate.check(f"flat.hogwild.w{workers}.finite", _finite(res))
        if workers == 1:  # sgm_run ran just before, in the same round
            self.gate.check("identity.hogwild_w1_vs_sgm", np.array_equal(res.x, self.sgm.x))
        else:
            counts = np.repeat(np.arange(rep.histogram.size), rep.histogram)
            self.note("engine.tau_observed.w2", rep.tau_observed)
            self.note("engine.tau_median.w2", float(np.median(counts)))

    def cd_cfg(self):
        return SolverConfig(step_rule="scd_theorem2", total_iters=self.w.cd_iters, seed=self.seed)

    def ascd_run(self, first):
        """run_ascd with 1 worker; the first time also run_scd, which it must equal.

        Serial SCD is timed once only: no end-to-end metric reads it, and
        its time goes to longer ASCD runs instead.
        """
        obj, cfg, x0 = self.obj, self.cd_cfg(), np.zeros(self.obj.d)
        if first:  # fills the objective's per-coordinate read-set cache, which later runs reuse
            with self.tr.span("engine", "run_ascd.warmup"):
                run_ascd(obj, cfg, x0, workers=1, log_updates=False)
            self.scd, t_scd = timed(self.tr, "serial", "run_scd", run_scd, obj, cfg, x0)
            self.note("us.scd", t_scd / self.scd.iters * 1e6)
        (res, _), wall = timed(self.tr, "engine", "run_ascd.w1", run_ascd,
                               obj, cfg, x0, workers=1, log_updates=False)
        self.note("us.ascd.w1", wall / res.iters * 1e6)
        self.gate.check("cd.ascd.w1.finite", _finite(res))
        self.gate.check("identity.ascd_w1_vs_scd", np.array_equal(res.x, self.scd.x))

    def stats_edges(self):
        return [self.obj.term_support(i) for i in range(self.w.stats_terms)]

    def stats_round(self, first):
        edges = self.stats_edges()
        n = len(edges)
        with self.tr.span("bench", "stats"):
            t0 = time.perf_counter()
            st, _ = self.call("hypergraph", "conflict_stats", conflict_stats, edges, self.obj.d)
            self.call("hypergraph", "tau_bound_comparison", tau_bound_comparison, st, n)
            self.call("hypergraph", "intersection_probability_bound",
                      intersection_probability_bound, st, n)
            self.note("stats_s", time.perf_counter() - t0)
        self.info["avg_conflict_degree"] = st.avg_conflict_degree
        if first:
            pre = edges[:BRUTEFORCE_TERMS]
            fast = conflict_stats(pre, self.obj.d)
            slow = conflict_stats_bruteforce(pre, self.obj.d)
            same = (np.array_equal(fast.degrees, slow.degrees)
                    and fast.max_left_degree == slow.max_left_degree
                    and fast.max_right_degree == slow.max_right_degree)
            self.gate.check("stats.matches_bruteforce", same)

    def sim_round(self):
        obj = self.sim_obj
        x0 = np.zeros(obj.d)
        with self.tr.span("bench", "sim"):
            t0 = time.perf_counter()
            xstar, _ = self.call("objectives", "solve_reference", solve_reference, obj)
            edges = [obj.term_support(i) for i in range(obj.n)]
            st, _ = self.call("hypergraph", "conflict_stats_sim", conflict_stats, edges, obj.d)
            traces = []
            for k in range(SIM.seeds):
                s = self.seed * 1_000 + k
                sched, _ = self.call("sim", "gen_schedule", gen_schedule,
                                     SIM.T, SIM.tau, obj.d, seed=s, style="random")
                cfg = SolverConfig(gamma=SIM.gamma, total_iters=SIM.T, seed=s)
                tr, _ = self.call("sim", "simulate_noq", simulate, obj, cfg, x0, sched,
                                  "sgm", xstar=xstar, record_q=False)
                traces.append(tr)
            tc = time.perf_counter()
            ident = [self.call("sim", "check_step_identity", check_step_identity, tr)[0]
                     for tr in traces]
            rec, _ = self.call("sim", "check_recursion", check_recursion, traces, obj.constants)
            a0 = float(xstar @ xstar)
            M = obj.grad_norm_bound(xstar, 2.0 * np.sqrt(a0))
            hog, _ = self.call("sim", "check_hogwild_bounds", check_hogwild_bounds,
                               traces, obj.constants, st.avg_conflict_degree, M=M)
            t1 = time.perf_counter()
            self.note("sim.checks_s", t1 - tc)
            self.note("sim_check_s", t1 - t0)
        self.gate.check("sim.step_identity", all(r["ok"] for r in ident),
                        max(r["max_error"] for r in ident))
        self.gate.check("sim.recursion", rec["ok"], rec["worst_margin"])
        self.gate.check("sim.hogwild_bounds", hog["ok"],
                        (hog["r1_worst_margin"], hog["r2_worst_margin"]))

    def tasks(self):
        """The measuring tasks in round order; each gets whether it runs for the first time."""
        return {
            "ttt.kromagnon.w1": lambda first: self.ttt_run("kromagnon.w1", first),
            "ttt.svrg_dense": lambda first: self.ttt_run("svrg_dense", first),
            "ttt.kromagnon.w2": lambda first: self.ttt_run("kromagnon.w2", first),
            "sgm": lambda first: self.sgm_run(),
            "hogwild.w1": lambda first: self.hogwild_run(1),
            "hogwild.w2": lambda first: self.hogwild_run(2),
            "ascd.w1": self.ascd_run,
            "stats": self.stats_round,
            "sim": lambda first: self.sim_round(),
        }

    def measure(self):
        """Run rounds of every task until --seconds have passed.

        A round runs each task once, so every metric gets one repeat per
        round and its repeats are spread evenly across the window, where
        the machine's speed drifts; a calibration_s() probe runs before
        each task.  Each metric is value() of its repeats.  At least
        MIN_ROUNDS rounds run;
        after that a round starts only while it is expected to end closer
        to the deadline than the last one did, so the window neither stops
        short nor overruns by more than half a round.
        """
        tasks = self.tasks()
        reps = {k: 0 for k in tasks}
        busy = {k: 0.0 for k in tasks}
        start = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 >= self.seconds:
                break
            for k, task in tasks.items():
                gc.collect()
                self.note("calibration_s", calibration_s())
                t0 = time.perf_counter()
                task(reps[k] == 0)
                busy[k] += time.perf_counter() - t0
                reps[k] += 1
            rounds += 1
        self.info["reps"] = reps
        self.info["task_s"] = busy
        self.info["measure_s"] = time.perf_counter() - start

    # -- per-layer extras (traced runs only) -----------------------------
    def micro(self):
        obj, x = self.obj, self.xstar
        terms = self.rng.integers(obj.n, size=MICRO_BATCH)
        sup = [obj.term_support(int(i)) for i in terms]
        with self.tr.span("objectives", "term_grad_vals"):
            self.note("objectives.term_grad_vals_us", _per_call_us(
                obj.term_grad_vals, [(int(i), x[s]) for i, s in zip(terms, sup)]))
        coords = self.rng.integers(obj.d, size=MICRO_BATCH)
        with self.tr.span("objectives", "full_grad_coord"):
            self.note("objectives.full_grad_coord_us", _per_call_us(
                obj.full_grad_coord, [(int(v), x) for v in coords]))
        shared = SharedIterate(x)
        deltas = [np.full(s.size, 1e-12) for s in sup]
        with self.tr.span("engine", "add_clamped"):
            self.note("engine.add_clamped_us", _per_call_us(
                shared.add_clamped, [(s, dl, None, None) for s, dl in zip(sup, deltas)]))
        with self.tr.span("objectives", "full_grad"):
            self.note("objectives.full_grad_ms", _per_call_us(obj.full_grad, [(x,)]) / 1e3)
        with self.tr.span("objectives", "value"):
            self.note("objectives.value_ms", _per_call_us(obj.value, [(x,)]) / 1e3)
        edges = [obj.term_support(i) for i in range(obj.n)]
        self.call("hypergraph", "coordinate_weights", coordinate_weights, edges, obj.d)
        if not self.w.from_file:
            self.call("data", "parse_libsvm", parse_libsvm, self.path, l2_reg=self.w.l2_reg)
        # allocation peak of one conflict_stats call (tracemalloc sees numpy too)
        stats_edges = self.stats_edges()
        counts = np.bincount(np.concatenate(stats_edges), minlength=obj.d)
        self.info["pair_work"] = int((counts.astype(np.int64) ** 2).sum())
        tracemalloc.start()
        try:
            with self.tr.span("hypergraph", "conflict_stats_tracemalloc"):
                conflict_stats(stats_edges, obj.d)
            self.info["conflict_stats_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        # simulate with the record_q enumeration, at the same horizon as the
        # record_q=False calls of the sim stage
        sim = self.sim_obj
        xs = solve_reference(sim)
        sched = gen_schedule(SIM.T, SIM.tau, sim.d, seed=self.seed, style="random")
        cfg = SolverConfig(gamma=SIM.gamma, total_iters=SIM.T, seed=self.seed)
        self.call("sim", "simulate", simulate, sim, cfg, np.zeros(sim.d), sched, "sgm",
                  xstar=xs, record_q=True)

    def tracing_overhead(self):
        """Wall time of one sgm/hogwild round traced minus the same round untraced."""
        walls = {}
        for enabled in (False, True):
            self.tr.enabled = enabled
            t0 = time.perf_counter()
            self.sgm_run()
            for workers in WORKERS:
                self.hogwild_run(workers)
            walls[enabled] = time.perf_counter() - t0
        self.tr.enabled = True
        return walls[True] - walls[False]
