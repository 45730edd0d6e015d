"""Whether a parent revision and the working tree write the same outputs.

    python3 tools/same_outputs.py --parent REV

The parent revision and the working tree are copied as ``bench_pairs.py``
copies them.  For each workload of the working tree's
``perfbench/workloads.py`` and each seed from 1 to 10, the workload builds
its inputs in one directory per tree, and every one of its CLI calls runs
there in a fresh interpreter on that tree's ``src``.  The two runs of a
call must exit with the same code and print the same stdout and stderr,
and the two directories must hold the same files with the same bytes;
each directory's path is replaced by ``<workdir>`` before the comparison.
Every difference is printed; the exit code is 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _copy_worktree, _export, _git

SIDES = ("parent", "change")
SEEDS = range(1, 11)


def _run_ops(ops, checkout: Path, workdir: Path) -> list[tuple[str, ...]]:
    """(call, exit code, stdout, stderr) of each of ``ops`` run in ``workdir``
    on the checkout's ``src``, with ``workdir`` spelled ``<workdir>``."""
    env = {key: value for key, value in os.environ.items() if key != "ISOMECH_SEED"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for op in ops:
        proc = subprocess.run([sys.executable, "-m", "isomech.cli", *op.argv], cwd=workdir,
                              env=env, capture_output=True, text=True)
        run = (" ".join(op.argv), str(proc.returncode), proc.stdout, proc.stderr)
        runs.append(tuple(text.replace(str(workdir), "<workdir>") for text in run))
    return runs


def _files(workdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(workdir)): p.read_bytes().replace(bytes(workdir), b"<workdir>")
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def _differences(runs: dict[str, list], files: dict[str, dict[str, bytes]]) -> list[str]:
    found = []
    for parent, change in zip(runs["parent"], runs["change"]):
        for what, a, b in zip(("exit code", "stdout", "stderr"), parent[1:], change[1:]):
            if a != b:
                found.append(f"{change[0]}: {what} {a!r} != {b!r}")
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        a, b = files["parent"].get(name), files["change"].get(name)
        if a != b:
            found.append(f"{name}: " + ("written in one tree only" if None in (a, b)
                                        else "bytes differ"))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    args = parser.parse_args(argv)

    parent = _git("rev-parse", args.parent)
    differences = calls = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        checkouts = {"parent": _export(parent, Path(tmp) / "parent"),
                     "change": _copy_worktree(Path(tmp) / "change")}
        sys.path.insert(0, str(checkouts["change"] / "perfbench"))
        from workloads import WORKLOADS

        for workload, seed in itertools.product(WORKLOADS, SEEDS):
            runs, files = {}, {}
            for side in SIDES:
                workdir = Path(tmp) / f"{side}-{workload}-{seed}"
                workdir.mkdir()
                ops = WORKLOADS[workload](workdir, seed).prepare()
                runs[side] = _run_ops(ops, checkouts[side], workdir)
                files[side] = _files(workdir)
            found = _differences(runs, files)
            calls += len(runs["change"])
            differences += len(found)
            for line in found:
                print(f"{workload} seed {seed}: {line}")
            print(f"{workload} seed {seed}: {len(runs['change'])} calls, "
                  f"{len(files['change'])} files, {len(found)} differences", file=sys.stderr)
    print(f"{calls} calls in each tree against {parent}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
