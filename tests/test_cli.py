import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isomech
from isomech.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def scores_csv(path, values):
    write(path, "index,score\n" + "".join(f"{i+1},{v}\n" for i, v in enumerate(values)))


def ranking_csv(path, perm):
    write(path, "rank,index\n" + "".join(f"{r+1},{idx}\n" for r, idx in enumerate(perm)))


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_fit_pools_violators(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "adjusted.csv"]) == 0
    rows = read_rows(workdir / "adjusted.csv")
    assert [row["adjusted"] for row in rows] == ["2.5", "2.5", "1"]


def test_fit_sorted_input_unchanged(workdir):
    scores_csv(workdir / "scores.csv", [9, 7, 4])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "adjusted.csv"]) == 0
    rows = read_rows(workdir / "adjusted.csv")
    assert [row["adjusted"] for row in rows] == ["9", "7", "4"]


def test_fit_missing_index_exit_2(workdir, capsys):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    write(workdir / "ranking.csv", "rank,index\n1,1\n2,2\n3,5\n")
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "index 5" in err and "line 4" in err


def test_fit_is_idempotent_through_files(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1, 5])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3, 4])
    main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "a.csv"])
    rows = read_rows(workdir / "a.csv")
    scores_csv(workdir / "scores2.csv", [row["adjusted"] for row in rows])
    main(["fit", "scores2.csv", "--ranking", "ranking.csv", "--out", "b.csv"])
    assert [r["adjusted"] for r in read_rows(workdir / "b.csv")] == [
        row["adjusted"] for row in rows
    ]


def test_fit_blocks_and_family(workdir):
    scores_csv(workdir / "scores.csv", [4, 6])
    write(workdir / "blocks.csv", "block,index\n1,1\n2,2\n")
    assert main([
        "fit", "scores.csv", "--blocks", "blocks.csv",
        "--family", "binomial:10", "--out", "mle.csv",
    ]) == 0
    rows = read_rows(workdir / "mle.csv")
    assert [row["adjusted"] for row in rows] == ["5", "5"]
    assert [row["theta"] for row in rows] == ["0", "0"]


def test_fit_needs_exactly_one_constraint(workdir, capsys):
    scores_csv(workdir / "scores.csv", [1, 2])
    assert main(["fit", "scores.csv", "--out", "x.csv"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_fit_replay_is_byte_identical(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [3, 1, 2])
    main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "adjusted.csv"])
    first = (workdir / "adjusted.csv").read_bytes()
    assert main(["fit", "--config", "adjusted.csv.meta.json"]) == 0
    assert (workdir / "adjusted.csv").read_bytes() == first


def test_truthfulness_outputs_flagged_table(workdir):
    assert main([
        "truthfulness", "--family", "binomial:10", "--mu-star", "8,7,6,4",
        "--trials", "2000", "--seed", "7", "--out", "utilities.csv",
    ]) == 0
    rows = read_rows(workdir / "utilities.csv")
    assert len(rows) == 24
    flagged = [row for row in rows if row["truthful"] == "1"]
    assert len(flagged) == 1 and flagged[0]["ranking"] == "1;2;3;4"
    means = [float(row["mean"]) for row in rows]
    assert means == sorted(means, reverse=True)
    sidecar = json.loads((workdir / "utilities.csv.meta.json").read_text())
    assert sidecar["command"] == "truthfulness"
    assert sidecar["params"]["seed"] == 7


def test_estimation_poisson_curve_decreases(workdir):
    assert main([
        "estimation", "--family", "poisson", "--n-grid", "10,50,200",
        "--trials", "300", "--seed", "3", "--out", "curve.csv",
    ]) == 0
    rows = read_rows(workdir / "curve.csv")
    mse_im = [float(row["mse_im"]) for row in rows]
    assert mse_im == sorted(mse_im, reverse=True)
    mse_raw = [float(row["mse_raw"]) for row in rows]
    assert max(mse_raw) / min(mse_raw) < 1.1


def test_estimation_replay_is_byte_identical(workdir):
    args = [
        "estimation", "--family", "binomial:10", "--n-grid", "10,30",
        "--trials", "120", "--seed", "9", "--out", "curve.csv",
    ]
    assert main(args) == 0
    first = (workdir / "curve.csv").read_bytes()
    assert main(["estimation", "--config", "curve.csv.meta.json"]) == 0
    assert (workdir / "curve.csv").read_bytes() == first


def test_minimax_writes_rate_and_construction(workdir, capsys):
    assert main([
        "minimax", "--family", "gaussian:1.0", "--v-min", "0", "--v-max", "6",
        "--n-grid", "32,64,128", "--trials", "60", "--construction-n", "64",
        "--seed", "2", "--out", "rate.csv",
    ]) == 0
    assert "slope=" in capsys.readouterr().out
    rows = read_rows(workdir / "rate.csv")
    assert [row["n"] for row in rows] == ["32", "64", "128"]
    construction = json.loads((workdir / "construction.json").read_text())
    assert construction["k"] == 64
    assert construction["codewords"] >= construction["target"]
    assert construction["margins"]["kl_budget"] < construction["margins"]["kl_cap"]
    sidecar = json.loads((workdir / "rate.csv.meta.json").read_text())
    assert "construction.json" in sidecar["outputs"]


def test_icml_table_with_na_cells(workdir):
    write(
        workdir / "reviews.csv",
        "submission_id,score,confidence\n"
        "a,6,5\na,7,1\nb,4,5\nb,5,1\n"
        "c,5,3\nc,6,2\nd,3,3\nd,4,2\ne,8,3\ne,7,2\nf,6,3\nf,5,2\n",
    )
    write(
        workdir / "authors.csv",
        "author_id,submission_ids,ranking\n"
        "alice,a;b,1;2\n"
        "bob,c;d;e;f,2;4;1;3\n",
    )
    assert main(["icml", "reviews.csv", "authors.csv", "--out", "table1.csv"]) == 0
    rows = read_rows(workdir / "table1.csv")
    by_n = {row["n"]: row for row in rows}
    assert set(by_n) == {"2", "3", "4"}
    assert by_n["3"]["mse_raw"] == "NA" and by_n["3"]["authors"] == "0"
    assert float(by_n["2"]["mse_raw"]) >= 0


def test_synthetic_command_and_replay(workdir):
    rng = np.random.default_rng(0)
    write(
        workdir / "pool.csv",
        "score\n" + "".join(f"{v:.3f}\n" for v in rng.uniform(3, 8, size=80)),
    )
    args = [
        "synthetic", "pool.csv", "--n-grid", "2,5", "--trials", "100",
        "--seed", "1", "--out", "table2.csv",
    ]
    assert main(args) == 0
    first = (workdir / "table2.csv").read_bytes()
    rows = read_rows(workdir / "table2.csv")
    assert [row["n"] for row in rows] == ["2", "5"]
    assert main(["synthetic", "--config", "table2.csv.meta.json"]) == 0
    assert (workdir / "table2.csv").read_bytes() == first


def test_synthetic_rejects_out_of_range_pool(workdir, capsys):
    write(workdir / "pool.csv", "score\n5\n11\n")
    assert main(["synthetic", "pool.csv", "--n-grid", "2", "--trials", "10"]) == 2
    assert "pool" in capsys.readouterr().err


def test_synthetic_rejects_empty_submission_count(workdir, capsys):
    write(workdir / "pool.csv", "score\n5\n6\n")
    assert main(["synthetic", "pool.csv", "--n-grid", "0", "--trials", "10"]) == 2
    assert "n_grid" in capsys.readouterr().err


def test_truthfulness_sweep_over_budget_exits_2(workdir, capsys):
    argv = ["truthfulness", "--family", "binomial:10", "--mu-star", "8,7,6,5,4,3,2,1",
            "--out", "x.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "100000 trials" in err and "trials <= 12288" in err
    assert not (workdir / "x.csv").exists()


def test_check_majorization_modes(workdir, capsys):
    write(workdir / "a.csv", "value\n2\n0\n")
    write(workdir / "b.csv", "value\n1\n1\n")
    assert main(["check-majorization", "a.csv", "b.csv", "--mode", "standard"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check-majorization", "b.csv", "a.csv", "--mode", "standard"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["check-majorization", "a.csv", "b.csv", "--mode", "weak"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    write(workdir / "c.csv", "value\n0\n2\n")
    assert main(["check-majorization", "c.csv", "b.csv", "--mode", "natural"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_json_format_output(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    assert main([
        "fit", "scores.csv", "--ranking", "ranking.csv",
        "--out", "adjusted.json", "--format", "json",
    ]) == 0
    rows = json.loads((workdir / "adjusted.json").read_text())
    assert rows[0]["adjusted"] == 2.5


def test_config_file_with_flag_override(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    write(
        workdir / "cfg.json",
        json.dumps({"scores": "scores.csv", "ranking": "ranking.csv", "out": "from_file.csv"}),
    )
    assert main(["fit", "--config", "cfg.json", "--out", "override.csv"]) == 0
    assert (workdir / "override.csv").exists()
    assert not (workdir / "from_file.csv").exists()


def test_env_seed_fallback(workdir, monkeypatch):
    rng = np.random.default_rng(0)
    write(
        workdir / "pool.csv",
        "score\n" + "".join(f"{v:.3f}\n" for v in rng.uniform(3, 8, size=40)),
    )
    monkeypatch.setenv("ISOMECH_SEED", "123")
    main(["synthetic", "pool.csv", "--n-grid", "2", "--trials", "50", "--out", "t.csv"])
    sidecar = json.loads((workdir / "t.csv.meta.json").read_text())
    assert sidecar["params"]["seed"] == 123


def test_missing_input_file_exits_2(workdir, capsys):
    assert main(["fit", "nope.csv", "--ranking", "also-nope.csv"]) == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("data, token", [
    (b"index,score\n1,\xff2\n", "can't decode byte 0xff"),
    (b"index,score\n1," + b"1" * 200_000 + b"\n", "field larger than field limit"),
])
def test_unreadable_csv_exits_2(workdir, capsys, data, token):
    (workdir / "scores.csv").write_bytes(data)
    ranking_csv(workdir / "ranking.csv", [1])
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scores.csv: not a readable UTF-8 CSV file") and token in err
    assert len(err.strip().splitlines()) == 1


def test_bad_header_is_named(workdir, capsys):
    write(workdir / "scores.csv", "idx,val\n1,2\n")
    ranking_csv(workdir / "ranking.csv", [1])
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, token", [
    (["truthfulness", "--family", "binomial:10", "--mu-star", "8,x,6", "--trials", "10"], "'x'"),
    (["estimation", "--family", "binomial:10", "--n-grid", "10,abc", "--trials", "10"], "'abc'"),
    (["truthfulness", "--family", "binomial:ten", "--mu-star", "8,7", "--trials", "10"], "'ten'"),
    (["truthfulness", "--family", '{"kind": "binomial", "m":', "--mu-star", "8,7"], "JSON"),
    (["truthfulness", "--family", "binomial:10", "--mu-star", "8,7", "--utility", "exp:abc"],
     "'abc'"),
    (["truthfulness", "--family", "binomial:10", "--mu-star", "8,7", "--utility", "hinge:nan"],
     "hinge:nan"),
    (["truthfulness", "--family", "binomial:10", "--mu-star", "8,7", "--utility", "exp:inf"],
     "exp:inf"),
])
def test_malformed_flag_values_exit_2(workdir, capsys, argv, token):
    assert main(argv + ["--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()


MINIMAX_ARGS = ["minimax", "--family", "binomial:10", "--v-max", "10", "--n-grid", "8,16"]
TRUTH_ARGS = ["truthfulness", "--family", "binomial:10", "--mu-star", "8,7", "--trials", "10"]


@pytest.mark.parametrize("argv, config, env_seed, token", [
    (TRUTH_ARGS[:-2], {"trials": "abc"}, None, "'abc'"),
    (TRUTH_ARGS, {"seed": "x"}, None, "'x'"),
    (MINIMAX_ARGS, {"v_min": "a"}, None, "'a'"),
    (TRUTH_ARGS, None, "zz", "'zz'"),
    (TRUTH_ARGS, None, "-3", "-3 is negative"),
])
def test_malformed_config_and_env_numbers_exit_2(workdir, capsys, monkeypatch,
                                                 argv, config, env_seed, token):
    if config is not None:
        write(workdir / "cfg.json", json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    if env_seed is not None:
        monkeypatch.setenv("ISOMECH_SEED", env_seed)
    assert main(argv + ["--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_utility_exits_2_before_writing(workdir, capsys):
    argv = TRUTH_ARGS + ["--utility", "exp:100", "--out", "x.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exp:100" in err and "smaller parameter" in err
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()


def test_memory_error_exits_1(workdir, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr("isomech.cli._cmd_truthfulness", exhausted)
    assert main(TRUTH_ARGS) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "32.0 GiB" in err
    assert len(err.strip().splitlines()) == 1


def test_truthfulness_threads_do_not_change_output(workdir):
    argv = TRUTH_ARGS[:-1] + ["1500", "--seed", "3"]
    assert main(argv + ["--out", "serial.csv"]) == 0
    assert main(argv + ["--threads", "2", "--out", "threaded.csv"]) == 0
    assert (workdir / "serial.csv").read_bytes() == (workdir / "threaded.csv").read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(workdir, capsys, threads):
    assert main(TRUTH_ARGS + ["--threads", threads, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --threads: {threads} is below 1; use 1 or more threads\n"
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("argv, files", [
    (["fit", "scores.csv", "--ranking", "ranking.csv"],
     {"scores.csv": "index,score\n1,1e308\n2,1.7e308\n3,1.7e308\n",
      "ranking.csv": "rank,index\n1,1\n2,2\n3,3\n"}),
    (["icml", "reviews.csv", "authors.csv"],
     {"reviews.csv": "submission_id,score,confidence\n"
                     "a,1e308,5\na,1.7e308,1\na,1e308,3\nb,-1.7e308,5\nb,-1e308,1\n",
      "authors.csv": "author_id,submission_ids,ranking\nalice,a;b,1;2\n"}),
])
def test_overflowing_finite_scores_exit_2(workdir, capsys, argv, files):
    for name, text in files.items():
        write(workdir / name, text)
    assert main(argv + ["--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large to pool in float64" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (workdir / "x.csv").exists()


@pytest.mark.filterwarnings("error")
def test_icml_overflowing_improvement_exits_2(workdir, capsys):
    # a subnormal raw MSE (5e-311) makes (raw - im) / raw overflow to -inf
    write(workdir / "reviews.csv",
          "submission_id,score,confidence\na,1e-155,1\na,0,5\na,0,5\nb,1,1\nb,1,5\n")
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\nalice,a;b,1;2\n")
    assert main(["icml", "reviews.csv", "authors.csv", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n = 2 improvement overflows" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (workdir / "x.csv").exists()


def test_minimax_budget_guard_names_c(workdir, capsys):
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "8,16", "--trials", "4", "--construction-n", "512"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "k = 132" in err and "use c >= " in err


def test_fit_and_icml_leave_scipy_optimize_unloaded(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1, 5])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3, 4])
    write(workdir / "reviews.csv", "submission_id,score,confidence\na,6,5\na,7,1\nb,4,5\nb,5,1\n")
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\nalice,a;b,1;2\n")
    script = (
        "import sys\n"
        "from isomech.cli import main\n"
        "assert main(['fit', 'scores.csv', '--ranking', 'ranking.csv',"
        " '--family', 'binomial:10', '--out', 'fit.csv']) == 0\n"
        "assert main(['icml', 'reviews.csv', 'authors.csv', '--out', 'table.csv']) == 0\n"
        "assert main(['truthfulness', '--family', 'binomial:10', '--mu-star', '8,7,6',"
        " '--trials', '600', '--out', 'utilities.csv']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(isomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_runs_load_no_scipy(workdir):
    scores_csv(workdir / "scores.csv", [2, 3, 1, 5])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3, 4])
    write(workdir / "reviews.csv", "submission_id,score,confidence\na,6,5\na,7,1\nb,4,5\nb,5,1\n")
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\nalice,a;b,1;2\n")
    script = (
        "import math, sys\n"
        "import isomech\n"
        "from isomech.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert main(['fit', 'scores.csv', '--ranking', 'ranking.csv', '--out', 'fit.csv']) == 0\n"
        "assert main(['icml', 'reviews.csv', 'authors.csv', '--out', 'table.csv']) == 0\n"
        "assert main(['truthfulness', '--family', 'binomial:10', '--mu-star', '8,7,6',"
        " '--trials', '600', '--out', 'utilities.csv']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
        "from isomech.expfam import Binomial\n"
        "print(abs(Binomial(2).log_density(0.0, 1) / math.log(0.5) - 1.0) <= 1e-12)\n"
    )
    src = str(Path(isomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-2:] == ["[]", "True"]


VALID_INPUTS = {
    "scores.csv": "index,score\n1,2\n2,3\n3,1\n",
    "ranking.csv": "rank,index\n1,1\n2,2\n3,3\n",
    "blocks.csv": "block,index\n1,1\n2,2\n2,3\n",
    "reviews.csv": "submission_id,score,confidence\na,6,5\na,7,1\nb,4,5\nb,5,1\n",
    "authors.csv": "author_id,submission_ids,ranking\nalice,a;b,1;2\n",
    "pool.csv": "score\n5\n6\n7\n",
    "a.csv": "value\n2\n0\n",
    "b.csv": "value\n1\n1\n",
}
FIT_RANKING = ["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "out.csv"]
FIT_BLOCKS = ["fit", "scores.csv", "--blocks", "blocks.csv", "--out", "out.csv"]
ICML = ["icml", "reviews.csv", "authors.csv", "--out", "out.csv"]
SYNTHETIC = ["synthetic", "pool.csv", "--n-grid", "2", "--trials", "10", "--out", "out.csv"]
MAJORIZATION = ["check-majorization", "a.csv", "b.csv"]


@pytest.mark.parametrize("argv, name, text, message", [
    # a cell that is not a number, in each numeric column
    (FIT_RANKING, "scores.csv", "index,score\n1,2\nx,3\n3,1\n",
     "scores.csv line 3: index must be a number, got 'x'"),
    (FIT_RANKING, "scores.csv", "index,score\n1,2\n2,abc\n3,1\n",
     "scores.csv line 3: score must be a number, got 'abc'"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n2,2\nthird,3\n",
     "ranking.csv line 4: rank must be a number, got 'third'"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n2,2.0\n3,3\n",
     "ranking.csv line 3: index must be a number, got '2.0'"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n1,1\nB,2\n2,3\n",
     "blocks.csv line 3: block must be a number, got 'B'"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n1,1\n2,2\n2,\n",
     "blocks.csv line 4: index must be a number, got ''"),
    (ICML, "reviews.csv", "submission_id,score,confidence\na,6,5\na,seven,1\nb,4,5\nb,5,1\n",
     "reviews.csv line 3: score must be a number, got 'seven'"),
    (ICML, "reviews.csv", "submission_id,score,confidence\na,6,5\na,7,1\nb,4,4.5\nb,5,1\n",
     "reviews.csv line 4: confidence must be a number, got '4.5'"),
    (ICML, "authors.csv", "author_id,submission_ids,ranking\nalice,a;b,1; x\n",
     "authors.csv line 2: ranking must be a number, got ' x'"),
    (SYNTHETIC, "pool.csv", "score\n5\nfive\n7\n",
     "pool.csv line 3: score must be a number, got 'five'"),
    (MAJORIZATION, "b.csv", "value\n1\n1e\n",
     "b.csv line 3: value must be a number, got '1e'"),
    # a wrong field count after a blank and a whitespace-only row
    (FIT_RANKING, "scores.csv", "index,score\n1,2\n\n  ,  \n2,3,4\n3,1\n",
     "scores.csv line 5: expected 2 fields, got 3"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n\n   \n2\n3,3\n",
     "ranking.csv line 5: expected 2 fields, got 1"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n\n \n1,1\n2,2,\n2,3\n",
     "blocks.csv line 5: expected 2 fields, got 3"),
    (ICML, "reviews.csv", "submission_id,score,confidence\na,6,5\n\n , , \na,7\n",
     "reviews.csv line 5: expected 3 fields, got 2"),
    (ICML, "authors.csv", "author_id,submission_ids,ranking\n\n\t\nalice,a;b,1;2,x\n",
     "authors.csv line 4: expected 3 fields, got 4"),
    (SYNTHETIC, "pool.csv", "score\n5\n\n   \n6,7\n",
     "pool.csv line 5: expected 1 fields, got 2"),
    (MAJORIZATION, "a.csv", "value\n2\n\n \n0,1\n",
     "a.csv line 5: expected 1 fields, got 2"),
    # duplicates and gaps
    (FIT_RANKING, "scores.csv", "index,score\n1,2\n2,3\n1,1\n",
     "scores.csv line 4: index 1 is not a fresh value in 1..3"),
    (FIT_RANKING, "scores.csv", "index,score\n1,2\n4,3\n3,1\n",
     "scores.csv line 3: index 4 is not a fresh value in 1..3"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n1,2\n3,3\n",
     "ranking.csv line 3: rank 1 invalid or repeated"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n2,3\n3,3\n",
     "ranking.csv line 4: index 3 ranked twice"),
    (FIT_RANKING, "ranking.csv", "rank,index\n1,1\n2,0\n3,3\n",
     "ranking.csv line 3: index 0 does not name a score row in 1..3"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n1,1\n3,2\n3,3\n",
     "blocks.csv: block ids must be 1..p in any row order"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n1,1\n2,2\n2,4\n",
     "blocks.csv line 4: index 4 not in 1..3"),
    # header-only files
    (FIT_RANKING, "scores.csv", "index,score\n", "scores.csv: no score rows"),
    (FIT_RANKING, "ranking.csv", "rank,index\n", "ranking.csv: expected 3 ranking rows, found 0"),
    (FIT_BLOCKS, "blocks.csv", "block,index\n", "blocks.csv: blocks must be nonempty"),
    (SYNTHETIC, "pool.csv", "score\n", "pool.csv: no data rows"),
    (MAJORIZATION, "a.csv", "value\n", "a.csv: no data rows"),
    # one submission listed twice in an author row
    (ICML, "authors.csv", "author_id,submission_ids,ranking\nbob,b,1\nalice,a;a,1;2\n",
     "authors.csv line 3: submission 'a' listed twice"),
    # an author row without submissions, and a confidence beyond int64
    (ICML, "authors.csv", "author_id,submission_ids,ranking\nalice,a,1\nbob,,\n",
     "authors.csv line 3: author bob lists no submissions"),
    (ICML, "reviews.csv", "submission_id,score,confidence\na,6,5\na,7,99999999999999999999\n",
     "reviews.csv line 3: confidence must be a 64-bit integer, got '99999999999999999999'"),
])
def test_malformed_csv_names_file_and_line(workdir, capsys, argv, name, text, message):
    for path, content in {**VALID_INPUTS, name: text}.items():
        write(workdir / path, content)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("argv, name, text, message", [
    (FIT_RANKING, "scores.csv", "index,score\n1,2\n2,nan\n3,1\n",
     "scores.csv line 3: score must be a finite number, got 'nan'"),
    (FIT_BLOCKS, "scores.csv", "index,score\n1,2\n2,3\n3, -Infinity\n",
     "scores.csv line 4: score must be a finite number, got '-Infinity'"),
    (ICML, "reviews.csv", "submission_id,score,confidence\ns1,nan,3\ns1,5,1\ns1,6,2\n",
     "reviews.csv line 2: score must be a finite number, got 'nan'"),
    (SYNTHETIC, "pool.csv", "score\n5\n\ninf\n", "pool.csv line 4: score must be a finite number, got 'inf'"),
    (MAJORIZATION, "a.csv", "value\n2\nNaN\n", "a.csv line 3: value must be a finite number, got 'NaN'"),
])
def test_non_finite_csv_numbers_exit_2(workdir, capsys, argv, name, text, message):
    for path, content in {**VALID_INPUTS, name: text}.items():
        write(workdir / path, content)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out.csv").exists()


def test_icml_log_level_shows_skips_and_leaves_no_handler(workdir, capsys):
    write(workdir / "reviews.csv",
          "submission_id,score,confidence\na,6,5\na,7,1\nb,4,5\nb,5,1\nsolo,9,2\n")
    write(workdir / "authors.csv",
          "author_id,submission_ids,ranking\nalice,a;b,1;2\nbob,a;b,1;1\ncarol,a;solo,1;2\n")
    handlers = list(logging.getLogger("isomech").handlers)
    assert main(ICML) == 0
    assert capsys.readouterr().err == ""
    assert main(ICML + ["--log-level", "info"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "INFO isomech.experiments: dropped 1 submissions with fewer than 2 reviews",
        "INFO isomech.experiments: author bob skipped: ranking is not a permutation",
        "INFO isomech.experiments: author carol skipped: submission without usable reviews",
    ]
    assert logging.getLogger("isomech").handlers == handlers
    # the flag is not a parameter of the run: the sidecar does not record it
    sidecar = json.loads((workdir / "out.csv.meta.json").read_text())
    assert "log_level" not in sidecar["params"]
    assert main(ICML) == 0
    assert capsys.readouterr().err == ""
