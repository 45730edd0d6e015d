"""Alternating parent/change pairs of the benchmark, written to BENCH_<slug>.json.

    python3 tools/bench_pairs.py --parent REV --workload records \
        --seeds 7 11 3 --pairs 10 --slug icml_columns

The parent revision is exported with ``git archive`` into a temporary
directory (a ``git worktree`` would register itself in the repository and
outlive a killed run).  The change is the working tree: the files git
tracks or would track (``git ls-files --cached --others
--exclude-standard``), copied as they are.  Pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T the ``run_seconds`` of ``BENCHMARK.json``, once in each copy, in the
same environment, with the seed taken from ``--seeds`` in turn; the
parent goes first in even pairs and the change first in odd ones, so a
slow drift of the host weighs on both alike.
Every run starts without bytecode caches, as in a fresh checkout.

The file records, per workload, every pair's metrics with its
``correct``/``attempted``/``failed`` fields, and per end-to-end metric of
``BENCHMARK.json`` the median and quartiles of each side, the number of
pairs the change won (strictly better in the metric's direction), the
median change relative to the parent, and whether that change stays
within the metric's bound.  ``--trace 1`` rounds (per-layer metrics) are
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _copy_worktree(into: Path) -> Path:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source, target = ROOT / name, into / name
        if source.is_file():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return into


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        before, after = _quartiles(parent), _quartiles(change)
        relative = after["median"] / before["median"] - 1
        worse = relative if lower else -relative
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": before, "change": after, "change_wins": wins, "pairs": len(pairs),
            "median_change": relative,
            "within_bound": worse <= metric["bound"],
            # the median gain exceeds the spread between the parent's quartiles
            "gain_beyond_parent_iqr": (before["median"] - after["median"] if lower
                                       else after["median"] - before["median"])
                                      > before["q3"] - before["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        choices=["minimax", "truthfulness", "records"],
                        help="workload to pair; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--slug", required=True, help="the file is BENCH_<slug>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    revs = {"parent": _git("rev-parse", args.parent),
            "change": f"working tree of {_git('rev-parse', 'HEAD')}"}
    report = {
        "parent": revs["parent"], "change": revs["change"], "seconds": seconds,
        "seeds": args.seeds, "command": bench["command"],
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": _export(revs["parent"], Path(tmp) / "parent"),
                     "change": _copy_worktree(Path(tmp) / "change")}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(checkouts[side], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['parent']['metrics'][m['name']]:.4g} -> "
                    f"{pair['change']['metrics'][m['name']]:.4g}" for m in bench["end_to_end"]),
                    file=sys.stderr)
            report["workloads"][workload] = {
                "all_correct": all(p[s]["correct"] for p in pairs for s in revs),
                "summary": _summary(pairs, bench["end_to_end"]),
                "pairs": pairs,
            }
    path = ROOT / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
