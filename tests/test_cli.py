import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import isomech
from isomech import cli
from isomech.cli import _json_text, main


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


# the simulated review study: three Binomial(10) reviews per item, true scores from pool.csv
POOL_ARGS = ["estimation", "--family", "binomial:10", "--pool", "pool.csv"]


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
    args = POOL_ARGS + ["--n-grid", "2,5", "--trials", "100", "--seed", "1",
                        "--out", "table2.csv"]
    assert main(args) == 0
    first = (workdir / "table2.csv").read_bytes()
    rows = read_rows(workdir / "table2.csv")
    assert [row["n"] for row in rows] == ["2", "5"]
    assert main(["estimation", "--config", "table2.csv.meta.json"]) == 0
    assert (workdir / "table2.csv").read_bytes() == first


def test_estimation_improvement_column(workdir, capsys):
    write(workdir / "pool.csv", "score\n" + "".join(f"{3 + 0.0625 * i}\n" for i in range(80)))
    assert main(POOL_ARGS + ["--n-grid", "2,5,17", "--trials", "200", "--seed", "3"]) == 0
    rows = read_rows(workdir / "curve.csv")
    assert [row["n"] for row in rows] == ["2", "5", "17"]
    for row in rows:
        raw, im = float(row["mse_raw"]), float(row["mse_im"])
        # each of the three cells is rounded to 12 significant digits
        assert float(row["improvement"]) == pytest.approx((raw - im) / raw, rel=0, abs=2e-12)
    # a pool at the boundary mean 0 makes every score exact: 0, not a 0/0 warning
    write(workdir / "pool.csv", "score\n0\n0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(POOL_ARGS + ["--n-grid", "2,3", "--trials", "50"]) == 0
    assert capsys.readouterr().err == ""
    rows = read_rows(workdir / "curve.csv")
    assert [(row["mse_raw"], row["improvement"]) for row in rows] == [("0", "0")] * 2


def test_synthetic_rejects_out_of_range_pool(workdir, capsys):
    write(workdir / "pool.csv", "score\n5\n11\n")
    assert main(POOL_ARGS + ["--n-grid", "2", "--trials", "10"]) == 2
    assert capsys.readouterr().err == (
        "error: true score outside the binomial mean hull [0.0, 10.0]\n")


def test_synthetic_rejects_empty_submission_count(workdir, capsys):
    write(workdir / "pool.csv", "score\n5\n6\n")
    assert main(POOL_ARGS + ["--n-grid", "0", "--trials", "10"]) == 2
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
    main(POOL_ARGS + ["--n-grid", "2", "--trials", "50", "--out", "t.csv"])
    sidecar = json.loads((workdir / "t.csv.meta.json").read_text())
    assert sidecar["params"]["seed"] == 123


def test_fit_takes_no_seed_and_ignores_a_malformed_env_seed(workdir, monkeypatch):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    monkeypatch.setenv("ISOMECH_SEED", "abc")
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "a.csv"]) == 0
    assert "seed" not in json.loads((workdir / "a.csv.meta.json").read_text())["params"]


def test_estimation_takes_one_score_source(workdir, capsys):
    write(workdir / "pool.csv", "score\n3\n5\n7\n")
    argv = POOL_ARGS + ["--mu-star", "8,7", "--n-grid", "2", "--trials", "3", "--out", "x.csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: estimation takes at most one of --pool or --mu-star\n"
    assert not (workdir / "x.csv").exists()


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


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nope"], ["-x", "fit"]]
                         + [[name, "--help"] for name in cli._COMMANDS])
def test_parser_output_is_the_fully_built_parsers(capsys, argv):
    # main builds the arguments of the named subcommand only
    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    got = run(main)
    assert got == run(cli._build_parser(cli._COMMANDS).parse_args)
    if argv == ["nope"]:
        assert got[2].endswith("isomech: error: argument command: invalid choice: 'nope' (choose "
                               "from 'fit', 'truthfulness', 'estimation', 'minimax', 'icml', "
                               "'check-majorization')\n")


MINIMAX_ARGS = ["minimax", "--family", "binomial:10", "--v-max", "10", "--n-grid", "8,16"]
TRUTH_ARGS = ["truthfulness", "--family", "binomial:10", "--mu-star", "8,7", "--trials", "10"]
TRUTH_FLAGS = TRUTH_ARGS[:-2]
ESTIMATION_FLAGS = ["estimation", "--family", "binomial:10", "--n-grid", "10"]
MINIMAX_FLAGS = MINIMAX_ARGS + ["--v-min", "0"]


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
    (["truthfulness", "--family", '{"kind": "binomial", "m": 1e999}', "--mu-star", "8,7"],
     "m must be an integer, got inf"),
    # a family parameter is not bent to its type, and one the family lacks is refused
    (["truthfulness", "--family", '{"kind": "binomial", "m": 10.7}', "--mu-star", "8,7"],
     "m must be an integer, got 10.7"),
    (["truthfulness", "--family", '{"kind": "binomial", "m": true}', "--mu-star", "8,7"],
     "m must be an integer, got True"),
    (["truthfulness", "--family", '{"kind": "gaussian", "variance": true}', "--mu-star", "8,7"],
     "variance must be a number, got True"),
    (["truthfulness", "--family", '{"kind": "gamma", "shape": false}', "--mu-star", "8,7"],
     "shape must be a number, got False"),
    (["truthfulness", "--family", "poisson:5", "--mu-star", "8,7"],
     "family 'poisson' takes no parameter"),
    (["truthfulness", "--family", '{"kind": "poisson", "mean": 5}', "--mu-star", "8,7"],
     "family 'poisson' takes no parameter 'mean'"),
    (["truthfulness", "--family", '{"kind": "binomial", "m": 10, "p": 0.5}', "--mu-star", "8,7"],
     "family 'binomial' takes no parameter 'p'"),
    # a bad flag value gets the one-line error a bad config value gets, not argparse usage
    (TRUTH_FLAGS + ["--seed", "x"], "seed: 'x' is not an integer"),
    (ESTIMATION_FLAGS + ["--threads", "x"], "threads: 'x' is not an integer"),
    (TRUTH_FLAGS + ["--trials", "1.5"], "trials: '1.5' is not an integer"),
    (TRUTH_FLAGS + ["--scores-per-item", "x"], "scores_per_item: 'x' is not an integer"),
    (TRUTH_FLAGS + ["--format", "xml"], "format: 'xml' is not one of csv, json"),
    (ESTIMATION_FLAGS + ["--ramp-hi", "x"], "ramp_hi: 'x' is not a number"),
    (ESTIMATION_FLAGS + ["--ramp-lo", "x"], "ramp_lo: 'x' is not a number"),
    (ESTIMATION_FLAGS + ["--mu-star", "1,y"], "mu_star: 'y' is not a number"),
    (MINIMAX_FLAGS + ["--v-min", "x"], "v_min: 'x' is not a number"),
    (MINIMAX_FLAGS + ["--v-max", "x"], "v_max: 'x' is not a number"),
    (MINIMAX_FLAGS + ["--construction-n", "x"], "construction_n: 'x' is not an integer"),
    (MINIMAX_FLAGS + ["--c", "x"], "c: 'x' is not a number"),
    (POOL_ARGS + ["--n-grid", "2,z"], "n_grid: 'z' is not an integer"),
    (["check-majorization", "a.csv", "b.csv", "--mode", "bogus"],
     "mode: 'bogus' is not one of standard, natural, weak"),
])
def test_malformed_flag_values_exit_2(workdir, capsys, argv, token):
    # check-majorization writes no file, so it takes no --out
    out = [] if argv[0] == "check-majorization" else ["--out", "x.csv"]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()




@pytest.mark.parametrize("argv, config, env_seed, token", [
    (TRUTH_ARGS[:-2], {"trials": "abc"}, None, "'abc'"),
    (TRUTH_ARGS, {"seed": "x"}, None, "'x'"),
    (MINIMAX_ARGS, {"v_min": "a"}, None, "'a'"),
    (TRUTH_ARGS, None, "zz", "'zz'"),
    (TRUTH_ARGS, None, "-3", "-3 is negative"),
    # config values skip argparse's types and choices
    (TRUTH_ARGS[:-2], {"trials": 2.7}, None, "trials: 2.7 is not an integer"),
    (TRUTH_ARGS[:-2], {"trials": float("inf")}, None, "trials: inf is not an integer"),
    (TRUTH_ARGS, {"seed": True}, None, "seed: True is not an integer"),
    (MINIMAX_ARGS, {"v_min": 10**400}, None, "is not a number"),
    (TRUTH_ARGS, {"format": "xml"}, None, "format: 'xml'"),
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


FIT_CONFIG = {"scores": "scores.csv", "ranking": "ranking.csv"}


@pytest.mark.parametrize("argv, config, key", [
    # misspelt keys
    (["fit"], {**FIT_CONFIG, "trails": 5}, "trails"),
    (TRUTH_ARGS, {"trails": 5}, "trails"),
    # keys of another command, a record key of icml's sidecar included
    (["fit"], {**FIT_CONFIG, "mode": "weak"}, "mode"),
    (MINIMAX_FLAGS, {"tie_breaks": {"a": 1}}, "tie_breaks"),
    (["check-majorization", "a.csv", "b.csv"], {"seed": 3}, "seed"),
    # flags the command no longer takes, as an old sidecar may hold them
    (TRUTH_ARGS, {"threads": 2}, "threads"),
    (["fit"], {**FIT_CONFIG, "seed": 3}, "seed"),
])
def test_config_keys_the_command_does_not_take_exit_2(workdir, capsys, argv, config, key):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    write(workdir / "cfg.json", json.dumps(config))
    inputs = sorted(p.name for p in workdir.iterdir())
    assert main(argv + ["--config", "cfg.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cfg.json: {argv[0]} takes no parameter {key!r}\n"
    assert captured.out == ""
    assert sorted(p.name for p in workdir.iterdir()) == inputs


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


# 1,100 trials make three 512-trial chunks, enough for two threads to share
THREADED_ESTIMATION = ["estimation", "--family", "binomial:10", "--trials", "1100", "--seed", "5"]


def test_estimation_runs_short_rows_serially_under_threads(workdir, monkeypatch):
    argv = THREADED_ESTIMATION + ["--n-grid", "4,16,47"]
    assert main(argv + ["--out", "serial.csv"]) == 0

    def refused(*args, **kwargs):
        raise AssertionError("rows shorter than the lockstep bound took the thread pool")

    monkeypatch.setattr(isomech.mechanism, "ThreadPoolExecutor", refused)
    assert main(argv + ["--threads", "2", "--out", "threaded.csv"]) == 0
    assert (workdir / "serial.csv").read_bytes() == (workdir / "threaded.csv").read_bytes()


def test_estimation_runs_long_rows_on_the_thread_pool(workdir, monkeypatch):
    assert isomech.isotonic._LOCKSTEP_N == 48
    argv = THREADED_ESTIMATION + ["--n-grid", "48"]
    assert main(argv + ["--out", "serial.csv"]) == 0
    pools = []
    real = isomech.mechanism.ThreadPoolExecutor

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(isomech.mechanism, "ThreadPoolExecutor", counting)
    assert main(argv + ["--threads", "2", "--out", "threaded.csv"]) == 0
    assert pools == [{"max_workers": 2}]
    assert (workdir / "serial.csv").read_bytes() == (workdir / "threaded.csv").read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(workdir, capsys, threads):
    assert main(ESTIMATION_FLAGS + ["--threads", threads, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --threads: {threads} is below 1; use 1 or more threads\n"
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    TRUTH_ARGS + ["--threads", "2"],
    ["fit", "scores.csv", "--ranking", "ranking.csv", "--seed", "3"],
])
def test_flags_a_command_does_not_read_are_unrecognized(workdir, capsys, argv):
    scores_csv(workdir / "scores.csv", [2, 3, 1])
    ranking_csv(workdir / "ranking.csv", [1, 2, 3])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "x.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv", [
    ["estimation", "--family", "binomial:100000000000000000000", "--pool", "pool.csv",
     "--n-grid", "2", "--trials", "3"],
    ["truthfulness", "--family", "binomial:100000000000000000000", "--mu-star", "8,7,6",
     "--trials", "10"],
    ["truthfulness", "--family", "binomial:4000000000000000000", "--scores-per-item", "3",
     "--mu-star", "8,7,6", "--trials", "10"],
])
def test_binomial_draw_count_beyond_int64_exits_2(workdir, capsys, argv):
    write(workdir / "pool.csv", "score\n3\n5\n7\n")
    assert main(argv + ["--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the int64 range" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (workdir / "x.csv").exists()


def pool_run(family, pool):
    return POOL_ARGS[:2] + [family, "--pool", pool, "--n-grid", "2", "--trials", "3"]


OVERFLOW = "true scores or family spread too large for float64: the n = 2 squared errors"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    # means and shapes a family's sampler cannot draw, on both of its paths
    (["truthfulness", "--family", "poisson", "--mu-star", "1e19,1,1", "--trials", "10"],
     "Poisson mean 1e+19 times reps = 3 exceeds"),
    (pool_run("poisson", "huge.csv"), "Poisson mean 1e+19 times reps = 3 exceeds"),
    (["truthfulness", "--family", "gamma:1e-320", "--mu-star", "3,2,1", "--trials", "10"],
     "Gamma shape 9.99989e-321 cannot be sampled: at reps = 3, the scale"),
    (["truthfulness", "--family", "gamma:1e308", "--mu-star", "3,2,1", "--trials", "10"],
     "Gamma shape 1e+308 cannot be sampled: at reps = 3, reps * shape overflows"),
    # squared errors whose standard error overflows, and squares that overflow
    (pool_run("gaussian:1e300", "tiny.csv"), OVERFLOW),
    (pool_run("gamma:8", "vast.csv"), OVERFLOW),
])
def test_undrawable_or_overflowing_runs_exit_2(workdir, capsys, argv, message):
    for name, value in [("huge.csv", "1e19\n2\n3"), ("tiny.csv", "1e-320"), ("vast.csv", "1e300")]:
        write(workdir / name, f"score\n{value}\n")
    assert main(argv + ["--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()


# Family specs, true scores and score pools from extreme and ordinary floats
_FLOATS = (st.sampled_from([1e-320, 1e-300, 1e-10, 0.5, 3.0, 8.0, 1e10, 1e19, 1e300, 1e308])
           | st.floats(1e-320, 1e308))
_FAMILY_SPECS = st.one_of(
    st.just("poisson"),
    _FLOATS.map(lambda v: f"gaussian:{v!r}"),
    _FLOATS.map(lambda v: f"gamma:{v!r}"),
    st.sampled_from([1, 10, 4 * 10**18, 10**20]).map(lambda m: f"binomial:{m}"),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=st.sampled_from(["truthfulness", "estimation", "pool"]), family=_FAMILY_SPECS,
       values=st.lists(_FLOATS, min_size=1, max_size=3))
@example(run="truthfulness", family="poisson", values=[1e19, 1.0, 1.0])
@example(run="pool", family="poisson", values=[1e19, 2.0, 3.0])
@example(run="truthfulness", family="gamma:1e-320", values=[3.0, 2.0, 1.0])
@example(run="truthfulness", family="gamma:1e308", values=[3.0, 2.0, 1.0])
def test_extreme_inputs_exit_cleanly(workdir, run, family, values):
    # a result, or exit 1 or 2 with one error line; an uncaught exception or a
    # numpy warning fails the test
    texts = list(map(repr, values))
    if run == "pool":
        write(workdir / "pool.csv", "score\n" + "".join(t + "\n" for t in texts))
        argv = pool_run(family, "pool.csv")
    else:
        argv = [run, "--family", family, "--mu-star", ",".join(texts), "--trials", "10"]
        argv += ["--n-grid", "2"] if run == "estimation" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", "x.csv"])
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


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


def test_minimax_construction_n_zero_exits_2(workdir, capsys):
    # 0 is a given size, not a missing one: it must not fall back to max(n_grid)
    argv = MINIMAX_ARGS + ["--v-min", "0", "--trials", "4", "--construction-n", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs n >= 8" in err
    assert not (workdir / "construction.json").exists()
    assert not (workdir / "rate.csv").exists() and not (workdir / "rate.csv.meta.json").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("argv", [MINIMAX_ARGS + ["--v-min", "0"],
                                  POOL_ARGS + ["--n-grid", "2"]])
def test_trials_below_one_exit_2(workdir, capsys, argv, trials):
    write(workdir / "pool.csv", "score\n5\n6\n")
    assert main(argv + ["--trials", trials]) == 2
    assert capsys.readouterr().err == f"error: trials must be >= 1, got {trials}\n"
    assert [p.name for p in workdir.iterdir()] == ["pool.csv"]  # no output, no sidecar


def test_minimax_budget_guard_names_c(workdir, capsys):
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "8,16", "--trials", "4", "--construction-n", "512"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "k = 132" in err and "use c >= " in err
    assert not (workdir / "rate.csv").exists() and not (workdir / "rate.csv.meta.json").exists()


def test_minimax_codeword_cap_names_the_kl_pass(workdir, capsys):
    # k = 108 would need 11,586 codewords: the arrays fit in memory, but the
    # 10,624-codeword cap, which bounds the KL pass's time, refuses it
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "8,16", "--trials", "4", "--construction-n", "512", "--c", "0.0637"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: c = 0.0637 gives k = 108 blocks and 2^(108/8) codewords, beyond the cap of "
        "10,624 codewords at n = 512 that bounds the time of the O(codewords * n) KL pass; "
        "use c >= 0.0638 (k <= 107)\n")
    assert list(workdir.iterdir()) == []


def test_minimax_budget_advice_stops_at_the_kl_limit(workdir, capsys):
    # at n = 4096 the smallest c within the budget, 0.181, is past
    # c_var sqrt(log 2 / 32) = 0.11, where verify may refuse the KL budget
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "64,256,1024,4096", "--trials", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: c = 0.04688 gives k = 265 blocks") and err.endswith("lower n\n")
    assert len(err.strip().splitlines()) == 1 and "use c >=" not in err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("extra, code, named", [
    ([], 2, "error: c = 0.04688 gives k = 265 blocks"),
    (["--construction-n", "512"], 2, "error: c = 0.04688 gives k = 132 blocks"),
    (["--construction-n", "64", "--c", "0.3"], 1, "error: KL budget "),
    (["--construction-n", "20000000", "--c", "41.87"], 2, "error: n = 20000000 is too large"),
])
def test_minimax_refuses_its_construction_before_any_draw(workdir, capsys, monkeypatch,
                                                          extra, code, named):
    def drawn(*args, **kwargs):
        raise AssertionError("a Monte-Carlo trial ran before the construction's refusal")

    monkeypatch.setattr("isomech.experiments._mse_samples", drawn)
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "64,256,1024,4096", "--trials", "3000"]
    assert main(argv + extra) == code
    err = capsys.readouterr().err
    assert err.startswith(named) and len(err.strip().splitlines()) == 1
    assert list(workdir.iterdir()) == []


def test_minimax_failed_construction_writes_nothing(workdir, capsys):
    argv = ["minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
            "--n-grid", "8,16", "--trials", "20", "--construction-n", "64", "--c", "0.3",
            "--out", "m.csv"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KL budget ") and "is not below" in err
    assert len(err.strip().splitlines()) == 1
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("family, v_min, v_max", [("binomial:10", "0", "10"), ("poisson", "0", "0")])
def test_minimax_zero_risk_exits_2(workdir, capsys, family, v_min, v_max):
    # at n = 2 the ramp (v_max, v_min) sits on the mean hull's ends, so every draw is exact
    argv = ["minimax", "--family", family, "--v-min", v_min, "--v-max", v_max,
            "--n-grid", "2,4", "--trials", "3", "--construction-n", "8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rate check: the risk at n = 2 is 0")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert list(workdir.iterdir()) == []


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
        "import sys\n"
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
        "import numpy as np\n"
        "from isomech.expfam import (Binomial, Gamma, Gaussian, Poisson, ScoreBounds,"
        " verify_variance_assumption)\n"
        "from isomech.isotonic import CoarseRanking, Ranking\n"
        "from isomech.mechanism import UtilityFn, utility_trials\n"
        "for reps in (1, 3):\n"
        "    list(Binomial(10).row_sampler([0.0, 2.5, 10.0], reps)(np.random.default_rng(reps), 64))\n"
        "utility_trials(Binomial(10), [8.0, 7.0, 6.0], [Ranking([1, 2, 3]),"
        " CoarseRanking([(1, 2), (3,)])], UtilityFn('relu_square'), trials=600)\n"
        "rng = np.random.default_rng(0)\n"
        "for family, theta, bounds in [(Gaussian(1.5), 0.5, ScoreBounds(-2, 2)),"
        " (Binomial(10), 0.5, ScoreBounds(0, 10)), (Poisson(), 0.5, ScoreBounds(1, 8)),"
        " (Gamma(2.0), -0.5, ScoreBounds(1, 8))]:\n"
        "    mu = family.mean(theta)\n"
        "    family.variance(theta)\n"
        "    assert abs(family.natural_param(mu) - theta) <= 1e-12\n"
        "    assert family.kl_divergence(theta, 2 * theta) > 0\n"
        "    family.sample_mean(mu, rng, size=8, reps=3)\n"
        "    list(family.row_sampler([mu, mu], reps=2)(rng, 4))\n"
        "    family.sigma_max(bounds)\n"
        "    verify_variance_assumption(family, bounds)\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    src = str(Path(isomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-2:] == ["[]", "[]"]


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_the_indented_sorted_dump(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_writes_a_sidecar_shape_byte_for_byte():
    payload = {"command": "icml", "outputs": ["t.csv"], "version": "0.1.0",
               "params": {"seed": 5, "skipped": {}, "empty": [], "nan": float("nan"),
                          "tie_breaks": {f"s{k:05d}": k % 5 for k in range(2000)},
                          "rows": [{"x": 1.5, "y": None}, {"n\u00e9": [1, [2, {}]]}]}}
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


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
SYNTHETIC = POOL_ARGS + ["--n-grid", "2", "--trials", "10", "--out", "out.csv"]
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
     "authors.csv line 3: author alice lists submission 'a' twice"),
    # an author row without submissions, and a confidence beyond int64
    (ICML, "authors.csv", "author_id,submission_ids,ranking\nalice,a,1\nbob,,\n",
     "authors.csv line 3: author bob lists no submissions"),
    (ICML, "reviews.csv", "submission_id,score,confidence\na,6,5\na,7,99999999999999999999\n",
     "reviews.csv line 3: confidence must be a 64-bit integer, got '99999999999999999999'"),
    # an author row whose rank count differs from its submission count
    (ICML, "authors.csv", "author_id,submission_ids,ranking\nalice,a;b,1\n",
     "authors.csv line 2: author alice lists 2 submissions but 1 ranks"),
])
def test_malformed_csv_names_file_and_line(workdir, capsys, argv, name, text, message):
    for path, content in {**VALID_INPUTS, name: text}.items():
        write(workdir / path, content)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out.csv").exists()


# Files with no blank row, read as plain, whose lines hold a wrong number
# of fields: one extra mid-file, one missing on the last line (with and
# without its newline), and both, whose totals cancel.
FIELD_COUNT_FILES = {
    "scores.csv": FIT_RANKING, "ranking.csv": FIT_RANKING, "blocks.csv": FIT_BLOCKS,
    "pool.csv": SYNTHETIC, "reviews.csv": ICML, "authors.csv": ICML,
}
LONGER_AUTHORS = "author_id,submission_ids,ranking\nalice,a;b,1;2\nbob,b;a,1;2\ncarol,a,1\n"


def _field_count_cases():
    for name, argv in FIELD_COUNT_FILES.items():
        lines = (LONGER_AUTHORS if name == "authors.csv" else VALID_INPUTS[name]).splitlines()
        width, last = lines[0].count(",") + 1, len(lines)
        extra = lines[:2] + [lines[2] + ",9"] + lines[3:]
        yield argv, name, "\n".join(extra) + "\n", f"line 3: expected {width} fields, got {width + 1}"
        if width == 1:
            continue  # a line without its one field is blank, and skipped
        short = lines[-1].rsplit(",", 1)[0]
        for end in ("\n", ""):
            yield (argv, name, "\n".join(lines[:-1] + [short]) + end,
                   f"line {last}: expected {width} fields, got {width - 1}")
        yield (argv, name, "\n".join(extra[:-1] + [short]) + "\n",
               f"line 3: expected {width} fields, got {width + 1}")


@pytest.mark.parametrize("argv, name, text, message", list(_field_count_cases()))
def test_wrong_field_counts_in_plain_files_are_named(workdir, capsys, argv, name, text, message):
    for path, content in {**VALID_INPUTS, "authors.csv": LONGER_AUTHORS, name: text}.items():
        write(workdir / path, content)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {name} {message}\n"
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("name", ["reviews.csv", "authors.csv"])
def test_icml_takes_a_header_only_file(workdir, capsys, name, newline):
    for path, content in VALID_INPUTS.items():
        write(workdir / path, content)
    write(workdir / name, VALID_INPUTS[name].splitlines()[0] + newline)
    assert main(ICML) == 0
    assert (workdir / "out.csv").read_text() == "n,authors,mse_raw,mse_im,improvement\n"


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


# One run of each file-writing command, by parameter; the CSV inputs are positional.
# The "synthetic" run is the simulated review study, an estimation run on a score pool.
RUNS = {
    "fit": {"scores": "scores.csv", "ranking": "ranking.csv"},
    "truthfulness": {"family": "binomial:10", "mu_star": [8, 7, 6], "trials": 600, "seed": 4},
    "estimation": {"family": "binomial:10", "n_grid": [10, 30], "trials": 120, "seed": 9},
    "minimax": {"family": "gaussian:1.0", "v_min": 0, "v_max": 6, "n_grid": [32, 64],
                "trials": 20, "construction_n": 64, "seed": 2},
    "icml": {"reviews": "reviews.csv", "authors": "authors.csv", "seed": 5},
    "synthetic": {"family": "binomial:10", "pool": "pool.csv", "n_grid": [2, 5], "trials": 100,
                  "seed": 1},
}
RUN_COMMANDS = {"synthetic": "estimation"}
RUN_INPUTS = {
    **VALID_INPUTS,
    "ranking.csv": "rank,index\n1,3\n2,1\n3,2\n",
    "pool.csv": "score\n" + "".join(f"{3 + 0.0625 * i}\n" for i in range(80)),
}


def as_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def run_argv(run, params):
    argv = [RUN_COMMANDS.get(run, run)]
    for key, value in params.items():
        if key in ("scores", "reviews", "authors"):
            argv.append(value)
        else:
            argv += ["--" + key.replace("_", "-"), as_text(value)]
    return argv


def take_outputs(workdir):
    """Bytes of the sidecar at out.csv and of every file it names, then removed."""
    sidecar = workdir / "out.csv.meta.json"
    names = json.loads(sidecar.read_text())["outputs"] + [sidecar.name]
    files = {name: (workdir / name).read_bytes() for name in names}
    for name in names:
        (workdir / name).unlink()
    return files


@pytest.mark.parametrize("run", list(RUNS))
def test_replay_is_byte_identical(workdir, capsys, run):
    for name, text in RUN_INPUTS.items():
        write(workdir / name, text)
    assert main(run_argv(run, RUNS[run]) + ["--out", "out.csv"]) == 0
    stdout = capsys.readouterr().out
    write(workdir / "replay.json", (workdir / "out.csv.meta.json").read_text())
    first = take_outputs(workdir)
    assert main([RUN_COMMANDS.get(run, run), "--config", "replay.json"]) == 0
    assert capsys.readouterr().out == stdout
    assert take_outputs(workdir) == first


class _ReadKeys(dict):
    """A params dict that records the keys looked up in it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("run", [run for run in RUNS if run != "synthetic"]
                         + ["check-majorization"])
def test_every_declared_parameter_is_read(workdir, capsys, monkeypatch, run):
    for name, text in RUN_INPUTS.items():
        write(workdir / name, text)
    seen, effective = [], cli._effective

    def recording(args):
        seen.append(_ReadKeys(effective(args)))
        return seen[-1]

    monkeypatch.setattr(cli, "_effective", recording)
    argv = MAJORIZATION if run == "check-majorization" else run_argv(run, RUNS[run])
    assert main(argv) == 0
    command = cli._COMMANDS[run]
    declared = set(command.inputs + command.flags + (cli._OUTPUT_FLAGS if command.writes else ()))
    assert declared - seen[0].read == set()


@pytest.mark.parametrize("numbers_as_text", [False, True])
@pytest.mark.parametrize("run", list(RUNS))
def test_flags_and_config_give_the_same_run(workdir, capsys, run, numbers_as_text):
    for name, text in RUN_INPUTS.items():
        write(workdir / name, text)
    params = RUNS[run]
    assert main(run_argv(run, params) + ["--out", "out.csv"]) == 0
    stdout = capsys.readouterr().out
    from_flags = take_outputs(workdir)
    if numbers_as_text:
        params = {key: as_text(value) for key, value in params.items()}
    write(workdir / "cfg.json", json.dumps({**params, "out": "out.csv"}))
    assert main([RUN_COMMANDS.get(run, run), "--config", "cfg.json"]) == 0
    assert capsys.readouterr().out == stdout
    assert take_outputs(workdir) == from_flags


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, named", [
    (["minimax", "--family", "gamma:1e308", "--v-min", "3", "--v-max", "8", "--n-grid", "4,8",
      "--trials", "5", "--construction-n", "16"], "gamma shape 1e+308"),
    (["minimax", "--family", "gamma:1e300", "--v-min", "1e300", "--v-max", "1e308",
      "--n-grid", "4,8", "--trials", "5", "--construction-n", "16"], "v_min = 1e+300 and v_max = 1e+308"),
    (["fit", "s.csv", "--ranking", "r.csv", "--family", "gaussian:1e-300"], "gaussian variance 1e-300"),
    (["fit", "t.csv", "--ranking", "r.csv", "--family", "gamma:1e10"], "gamma shape 1e+10"),
])
def test_float64_overflow_of_a_family_parameter_exits_2(workdir, capsys, argv, named):
    scores_csv(workdir / "s.csv", [1e308, 3.0])
    scores_csv(workdir / "t.csv", [3.0, 1e-300])
    ranking_csv(workdir / "r.csv", [1, 2])
    outputs = ["--out", "x.csv"] + (["--construction-out", "c.json"] if argv[0] == "minimax" else [])
    assert main(argv + outputs) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "overflows" in err
    assert len(err.strip().splitlines()) == 1
    assert not (workdir / "x.csv").exists()
