import numpy as np
import pytest

import asyncopt.data as da
from asyncopt.cli import main

from conftest import make_vc_desk


def test_stats_synthetic(capsys):
    rc = main(["stats", "--problem", "linreg", "--synthetic", "50,10,3",
               "--l2-reg", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg conflict degree" in out
    assert "terms (n):              50" in out


def test_stats_edge_list(tmp_path, capsys):
    p = tmp_path / "g.txt"
    da.write_edge_list(p, make_vc_desk(num_vertices=10, num_edges=12))
    rc = main(["stats", "--problem", "vertexcover", "--data", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coordinates (d):" in out


def test_run_serial_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main([
        "run", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--mode", "sgm", "--gamma", "0.01",
        "--iters", "500", "--out", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final objective:" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,epoch,seed,a_j,f,wall_ns"
    assert len(lines) > 1


def test_run_hogwild_reports_tau(capsys):
    rc = main([
        "run", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--mode", "hogwild", "--workers", "2",
        "--gamma", "0.01", "--iters", "400",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau observed:" in out


def test_run_kromagnon_full_read(capsys):
    rc = main([
        "run", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--mode", "kromagnon", "--workers", "2",
        "--read", "full", "--gamma", "0.005", "--epoch-size", "60",
        "--epochs", "2",
    ])
    assert rc == 0


def test_run_linf_radius(capsys):
    rc = main([
        "run", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--mode", "sgm", "--gamma", "0.05",
        "--iters", "300", "--linf-radius", "0.01",
    ])
    assert rc == 0


def test_bench_and_summarize(tmp_path, capsys):
    outdir = tmp_path / "bench"
    rc = main([
        "bench", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--algorithms", "hogwild,svrg_dense",
        "--workers", "1,2", "--epochs", "3", "--epoch-size", "60",
        "--outdir", str(outdir),
    ])
    assert rc == 0
    assert (outdir / "manifest.txt").exists()
    capsys.readouterr()
    rc = main(["summarize", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hogwild" in out and "svrg_dense" in out


def test_bench_config_file(tmp_path):
    cfgfile = tmp_path / "plan.txt"
    outdir = tmp_path / "bench"
    cfgfile.write_text(
        "problem=linreg\n"
        "synthetic=60,12,3\n"
        "l2_reg=0.5\n"
        "algorithms=hogwild\n"
        "workers=1\n"
        "epochs=2\n"
        "epoch_size=60\n"
        f"outdir={outdir}\n"
    )
    rc = main(["bench", "--config", str(cfgfile)])
    assert rc == 0
    assert (outdir / "runs" / "hogwild_w1_s0.csv").exists()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bench_config_without_problem(tmp_path):
    # a plan file that sets l2_reg and synthetic but leaves problem at its default
    cfgfile = tmp_path / "plan.txt"
    outdir = tmp_path / "bench"
    cfgfile.write_text(
        "synthetic=60,12,3\n"
        "l2_reg=0.5\n"
        "algorithms=hogwild\n"
        "workers=1\n"
        "epochs=2\n"
        "epoch_size=60\n"
        f"outdir={outdir}\n"
    )
    rc = main(["bench", "--config", str(cfgfile)])
    assert rc == 0
    man = (outdir / "manifest.txt").read_text()
    assert "problem=logreg" in man and "l2_reg=0.5" in man


def test_bench_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "plan.txt"
    outdir = tmp_path / "bench"
    cfgfile.write_text("l2_reg=0.5\nalgorithms=svrg_dense\nepochs=3\n")
    rc = main([
        "bench", "--problem", "linreg", "--synthetic", "60,12,3",
        "--config", str(cfgfile), "--epochs", "2", "--epoch-size", "60",
        "--workers", "1", "--outdir", str(outdir),
    ])
    assert rc == 0
    man = (outdir / "manifest.txt").read_text()
    assert "l2_reg=0.5" in man and "epochs=2" in man and "problem=linreg" in man
    assert (outdir / "runs" / "svrg_dense_w1_s0.csv").exists()
