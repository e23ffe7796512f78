from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import asyncopt as ao
from asyncopt.bench import (
    BenchPlan,
    read_key_values,
    _read_run_csv,
    build_objective,
    run_plan,
    summarize,
)
from asyncopt.engine import time_to_progress
from asyncopt.serial import THEOREM_RULE, SolverConfig, resolve_config


def small_plan(tmp_path, **kw):
    base = dict(
        problem="linreg",
        synthetic=ao.SyntheticSpec(n=60, d=12, nnz=3, label_model="linear", seed=3),
        l2_reg=0.5,
        algorithms=("hogwild", "kromagnon", "svrg_dense"),
        workers=(1, 2),
        epochs=4,
        epoch_size=60,
        seeds=(0,),
        outdir=str(tmp_path / "out"),
    )
    base.update(kw)
    return BenchPlan(**base)


def test_run_plan_artifacts(tmp_path):
    plan = small_plan(tmp_path)
    outdir = run_plan(plan)
    runs = sorted((tmp_path / "out" / "runs").iterdir())
    names = [p.name for p in runs]
    assert "hogwild_w1_s0.csv" in names
    assert "hogwild_w2_s0.csv" in names
    assert "kromagnon_w1_s0.csv" in names
    assert "svrg_dense_w1_s0.csv" in names
    assert "svrg_dense_w2_s0.csv" not in names  # serial baseline: one worker
    assert (tmp_path / "out" / "manifest.txt").exists()
    assert (tmp_path / "out" / "stats.txt").exists()
    assert (tmp_path / "out" / "speedup_hogwild.csv").exists()
    assert (tmp_path / "out" / "speedup_kromagnon.csv").exists()

    # trace normalization: starts at 1 (the shared f0), grid minimum maps to 0
    mins = []
    for p in runs:
        wall, f, fn = _read_run_csv(p)
        assert fn[0] == pytest.approx(1.0)
        assert wall[0] == 0.0
        mins.append(fn.min())
    assert min(mins) == pytest.approx(0.0, abs=1e-12)

    man = read_key_values(tmp_path / "out" / "manifest.txt")
    assert man["problem"] == "linreg"
    assert float(man["gamma_hogwild"]) > 0
    assert man["gamma_rule_hogwild"] == "hogwild_theorem1"
    assert man["gamma_rule_kromagnon"] == "svrg_theorem3"
    assert man["diverged"] == ""
    assert "kappa" in man and "platform" in man

    stats = (tmp_path / "out" / "stats.txt").read_text()
    assert "avg_conflict_degree=" in stats

    digest = summarize(outdir)
    assert not digest["warnings"]
    assert (tmp_path / "out" / "summary.csv").exists()
    algos = {r["algo"] for r in digest["rows"]}
    assert algos == {"hogwild", "kromagnon", "svrg_dense"}


def test_replay_is_deterministic(tmp_path):
    # serial algorithms replayed from the manifest settings reproduce the
    # objective trace exactly (wall clock differs, f values do not)
    plan_a = small_plan(tmp_path / "a", algorithms=("svrg_dense",), workers=(1,))
    plan_b = small_plan(tmp_path / "b", algorithms=("svrg_dense",), workers=(1,))
    run_plan(plan_a)
    run_plan(plan_b)
    _, fa, fna = _read_run_csv(tmp_path / "a" / "out" / "runs" / "svrg_dense_w1_s0.csv")
    _, fb, fnb = _read_run_csv(tmp_path / "b" / "out" / "runs" / "svrg_dense_w1_s0.csv")
    np.testing.assert_array_equal(fa, fb)
    np.testing.assert_array_equal(fna, fnb)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_with_runs_diverging_before_first_checkpoint(tmp_path):
    # one epoch of 2000 samples, so each run's only checkpoint is its last
    # sample, and every solver has overflowed by then
    algos = ("sgm", "scd", "svrg_dense", "svrg_sparse", "hogwild", "ascd", "kromagnon")
    plan = small_plan(tmp_path, l2_reg=0.01, algorithms=algos, workers=(1,),
                      epochs=1, epoch_size=2000)
    gamma = 90.0 / build_objective(plan).constants.L_term
    outdir = run_plan(replace(plan, gamma=gamma))
    man = read_key_values(tmp_path / "out" / "manifest.txt")
    assert set(man["diverged"].split(";")) == {f"{a}_w1_s0" for a in algos}
    for a in algos:  # only the t=0 origin is written
        wall, f, _ = _read_run_csv(tmp_path / "out" / "runs" / f"{a}_w1_s0.csv")
        assert wall.tolist() == [0.0] and f.size == 1
    assert {r["algo"] for r in summarize(outdir)["rows"]} == set(algos)


def test_stats_budget_gate(tmp_path):
    plan = small_plan(tmp_path, stats_budget=1)
    run_plan(plan)
    stats = (tmp_path / "out" / "stats.txt").read_text()
    assert "skipped" in stats
    assert "avg_conflict_degree" not in stats


def test_default_gamma_rules(tmp_path):
    c = ao.ProblemConstants(L=4.0, m=1.0, M=3.0, n=100, d=10, L_term=5.0)
    obj = SimpleNamespace(constants=c)

    def theorem(algo, **kw):
        rule = THEOREM_RULE[algo]
        cfg = SolverConfig(step_rule=rule, total_iters=10, epoch_size=10, epochs=1, **kw)
        return resolve_config(cfg, obj, algo).gamma, rule

    g, rule = theorem("hogwild", eps=1e-2)
    assert rule == "hogwild_theorem1"
    assert g == pytest.approx(1e-2 * 1.0 / (2 * 9.0))
    g, rule = theorem("kromagnon")
    assert rule == "svrg_theorem3"
    assert g == pytest.approx(1.0 / (4 * 4.0 * 4.0))
    g, rule = theorem("ascd")
    assert rule == "scd_theorem2"
    assert g == pytest.approx(1.0 / (6 * 10 * 4.0 * 4.0))
    g, rule = theorem("scd")
    assert rule == "scd_theorem2"

    # the manifest records the gamma resolve_config derives, with its rule
    plan = small_plan(tmp_path, algorithms=("sgm", "ascd", "svrg_sparse"), workers=(1,),
                      epochs=2, eps=1e-2)
    run_plan(plan)
    man = read_key_values(tmp_path / "out" / "manifest.txt")
    obj = build_objective(plan)
    for algo in plan.algorithms:
        g, rule = theorem(algo, eps=1e-2)
        assert man[f"gamma_rule_{algo}"] == rule
        g = resolve_config(SolverConfig(step_rule=rule, eps=1e-2, total_iters=1,
                                        epoch_size=1, epochs=1), obj, algo).gamma
        assert float(man[f"gamma_{algo}"]) == g


def test_time_to_target_arithmetic():
    wall = np.array([0.0, 1.0, 2.0, 3.0])
    fn = np.array([1.0, 0.5, 0.0009, 0.0])
    # target at 99.9% progress is fn <= 0.001, first reached at t=2
    assert time_to_progress(wall, fn, 0.999) == 2.0
    assert time_to_progress(wall, fn, 0.9999) == 3.0
    assert time_to_progress(wall, np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 0.0


def test_summarize_empty_dir(tmp_path):
    (tmp_path / "runs").mkdir()
    digest = summarize(str(tmp_path))
    assert digest["rows"] == []
    assert digest["warnings"]


def test_build_objective_problems(tmp_path):
    plan = small_plan(tmp_path, problem="logreg",
                      synthetic=ao.SyntheticSpec(n=60, d=12, nnz=3,
                                                 label_model="logistic", seed=3))
    obj = build_objective(plan)
    assert obj.n == 60
    with pytest.raises(ValueError):
        BenchPlan(problem="nope")


def test_vertexcover_plan(tmp_path):
    from conftest import make_vc_desk
    import asyncopt.data as da

    prob = make_vc_desk(num_vertices=12, num_edges=16)
    p = tmp_path / "graph.txt"
    da.write_edge_list(p, prob)
    plan = BenchPlan(
        problem="vertexcover", dataset=str(p), beta=1.0,
        algorithms=("hogwild",), workers=(1,), epochs=3, epoch_size=40,
        outdir=str(tmp_path / "out"), gamma=1e-4,
    )
    outdir = run_plan(plan)
    man = read_key_values(tmp_path / "out" / "manifest.txt")
    assert man["gamma_rule_hogwild"] == "explicit"
    digest = summarize(outdir)
    assert digest["rows"]
