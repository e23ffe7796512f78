"""Lock-free asynchronous stochastic optimization.

Asynchronous solvers (Hogwild!-style SGM, async coordinate descent, and a
sparse asynchronous SVRG) over decomposable objectives whose terms touch few
coordinates, plus their serial baselines, a deterministic staleness
simulator for stale-read error analysis, hypergraph conflict
statistics, and a small benchmark harness.
"""

from .vectors import (
    ProblemConstants,
    LinfBall,
    sq_distance,
)
from .hypergraph import (
    ConflictStats,
    CoordinateWeights,
    conflict_stats,
    conflict_stats_bruteforce,
    coordinate_weights,
    intersection_probability_bound,
    tau_bound_comparison,
)
from .objectives import (
    RegressionDataset,
    VertexCoverProblem,
    least_squares_objective,
    logistic_objective,
    vertex_cover_objective,
    solve_reference,
)
from .data import (
    SyntheticSpec,
    gen_synthetic,
    parse_libsvm,
    write_libsvm,
    parse_edge_list,
    remap_covered,
)
from .serial import (
    SolverConfig,
    RunResult,
    run_sgm,
    run_scd,
    run_svrg_dense,
    run_svrg_sparse,
    svrg_variance_check,
    enumerated_mean_direction,
)
from .engine import (
    SPARSE_INCONSISTENT,
    FULL_SNAPSHOT,
    run,
    run_hogwild,
    run_ascd,
    run_kromagnon,
    measure_speedup,
    OverlapReport,
    SampleLog,
    SharedIterate,
)
from .sim import (
    DelaySchedule,
    SimTrace,
    gen_schedule,
    simulate,
    check_step_identity,
    check_recursion,
    check_hogwild_bounds,
    check_ascd_windows,
    check_svrg_variance_window,
)
from .bench import BenchPlan, run_plan, summarize

__version__ = "0.1.0"
