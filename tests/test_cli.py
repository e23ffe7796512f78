import gzip

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


def test_run_trace_epochs_default_epoch_size(tmp_path):
    # without --epoch-size an epoch is one pass over the n=60 terms
    trace = tmp_path / "trace.csv"
    rc = main([
        "run", "--problem", "linreg", "--synthetic", "60,12,3",
        "--l2-reg", "0.5", "--mode", "svrg_sparse", "--gamma", "0.005",
        "--epochs", "3", "--out", str(trace),
    ])
    assert rc == 0
    rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("60", "1"), ("120", "2"), ("180", "3")]


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


@pytest.mark.parametrize("mode,horizon", [
    ("scd", ["--gamma", "0.002", "--iters", "300"]),
    ("svrg_dense", ["--gamma", "0.005", "--epochs", "2"]),
    ("ascd", ["--gamma", "0.002", "--iters", "300", "--workers", "2"]),
])
def test_run_remaining_modes(mode, horizon, capsys):
    rc = main(["run", "--problem", "linreg", "--synthetic", "60,12,3", "--l2-reg", "0.5",
               "--mode", mode, *horizon])
    assert rc == 0
    out = capsys.readouterr().out
    assert "diverged: False" in out
    assert ("tau observed:" in out) == (mode == "ascd")


def test_run_refuses_bad_settings(capsys):
    # a usage error on stderr with exit status 2, as argparse's own refusals
    base = ["run", "--problem", "linreg", "--synthetic", "60,12,3", "--iters", "100"]
    for flags, message in [
        (["--mode", "sgm", "--gamma", "0.01", "--workers", "4"],
         "sgm is serial; it runs with workers=1, not 4"),
        (["--mode", "sgm", "--gamma", "nan"], "gamma must be finite and positive"),
        (["--mode", "hogwild", "--gamma", "0.01", "--log-every", "-5"], "log_every must be >= 0"),
        (["--mode", "hogwild", "--gamma", "0.01", "--workers", "0"], "workers must be >= 1"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(base + flags)
        assert exc.value.code == 2, flags
        err = capsys.readouterr().err
        assert "usage: asyncopt run" in err, flags
        assert f"error: {message}" in err, (flags, err)


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


def test_libsvm_file_with_an_unused_feature_id(tmp_path, capsys):
    # feature ids 1, 3, 4: column 2 is covered by no term and is remapped out
    p = tmp_path / "skip.txt"
    p.write_text("1 1:0.5 3:1\n-1 3:2\n1 1:1 4:0.5\n")
    for argv in (["stats", "--problem", "logreg", "--data", str(p)],
                 ["run", "--problem", "linreg", "--data", str(p), "--mode", "sgm",
                  "--gamma", "0.01", "--iters", "50"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "dropped 1 of 4 feature columns" in captured.err
    assert main(["stats", "--problem", "linreg", "--synthetic", "50,1000,3"]) == 0
    captured = capsys.readouterr()
    assert "dropped 860 of 1000 feature columns" in captured.err
    assert "coordinates (d):        140" in captured.out


@pytest.mark.parametrize("command", ["stats", "run", "bench"])
def test_refused_data_file_is_a_usage_error(tmp_path, capsys, command):
    p = tmp_path / "bad.txt"
    p.write_text("1 1:0.5\n-1 2:x\n")
    flags = {"stats": [], "run": ["--mode", "sgm", "--gamma", "0.01"],
             "bench": ["--outdir", str(tmp_path / "out")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", "logreg", "--data", str(p), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: asyncopt {command}" in err
    assert "error: line 2: malformed feature '2:x'" in err
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", "logreg", "--data", str(tmp_path / "missing.txt"), *flags])
    assert exc.value.code == 2
    assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_synthetic_seed_out_of_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--problem", "linreg", "--synthetic", "50,10,3", "--synthetic-seed", "-1"])
    assert exc.value.code == 2
    assert "error: seed must be in [0, 2**128), got -1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_run_seed_out_of_range_is_a_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--synthetic", "50,10,3", "--mode", "sgm", "--iters", "10", "--seed", seed])
    assert exc.value.code == 2
    assert f"error: seed must be in [0, 2**63), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("problem, text", [("logreg", b"1 1:0.5\n-1 2:1\n" * 500),
                                           ("vertexcover", b"0 1\n1 2\n" * 500)])
def test_damaged_gzip_data_file_is_a_usage_error(tmp_path, capsys, problem, text):
    packed = gzip.compress(text, mtime=0)
    cut = packed[:-20]  # no end-of-stream marker
    bad = packed[:10] + b"\x07" + packed[11:]  # the first deflate block of the reserved type
    for data, why in ((cut, "Compressed file ended before the end-of-stream marker"),
                      (bad, "Error -3 while decompressing data")):
        p = tmp_path / "data.gz"
        p.write_bytes(data)
        for command, flags in (("stats", []), ("run", ["--mode", "sgm", "--gamma", "0.01"]),
                               ("bench", ["--outdir", str(tmp_path / "out")])):
            with pytest.raises(SystemExit) as exc:
                main([command, "--problem", problem, "--data", str(p), *flags])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"usage: asyncopt {command}" in err
            assert f"error: {p}: {why}" in err
