"""Benchmark of the isomech CLI: three workloads, timed end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload minimax --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Each run builds its workload's inputs from ``--seed``, measures the
fresh-interpreter set-up time, then repeats whole rounds of CLI calls
(``isomech.cli.main``, in-process) for about ``--seconds`` seconds.  The
outputs of the last round are checked against independent oracles and every
round must write the same bytes.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 7


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median scaled wall time of a fresh interpreter that imports the CLI
    and builds its parser (interpreter start-up included)."""
    from refclock import SETUP_PROBE

    cmd = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120, check=True)  # warm caches
    scaled = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
        scaled.append(wall * float(probe.stderr.strip().splitlines()[-1]))
    return statistics.median(scaled)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


class Round:
    """Runs one round of CLI calls and counts the calls that fail."""

    def __init__(self, ops):
        self.ops = ops
        self.errors: set[str] = set()

    def run(self, entry) -> int:
        failed = 0
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = entry(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # the CLI let an error escape
                    code = f"{type(exc).__name__}: {exc}"
            if code != op.expect:
                failed += 1
                self.errors.add(f"{op.argv[0]}: expected exit {op.expect}, got {code!r} "
                                f"{err.getvalue().strip()[-300:]}")
        return failed

    def file_bytes(self) -> tuple[int, int]:
        read = sum(p.stat().st_size for op in self.ops for p in op.reads if p.exists())
        written = sum(p.stat().st_size for op in self.ops for p in op.writes if p.exists())
        return read, written


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from isomech import cli

    from refclock import Speedometer
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = HERE / "out" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        phases = {"start": time.perf_counter()}
        workload = WORKLOADS[name](workdir, seed)
        ops = workload.prepare()
        writes = [p for op in ops for p in op.writes]
        phases["inputs"] = time.perf_counter()
        setup_s = None if trace else measure_setup()
        phases["set-up probes"] = time.perf_counter()

        tracer = Tracer()
        one_round = Round(ops)
        traced_main = tracer.span("cli", cli.main)
        meter = Speedometer(workload.tick)
        rounds = []  # (traced, raw s, scaled s, layer metrics or None)
        digests = set()
        attempted = failed = 0
        with meter:
            start = time.perf_counter()
            while True:
                traced = trace and len(rounds) % 2 == 1
                if traced:
                    tracer.reset()
                    tracer.install()
                mark = meter.mark()
                t0 = time.perf_counter()
                failed += one_round.run(traced_main if traced else cli.main)
                raw = time.perf_counter() - t0
                speed = meter.speed(mark, meter.mark())
                layers = None
                if traced:
                    tracer.uninstall()
                    layers = layer_metrics(tracer, one_round.file_bytes())
                attempted += len(ops)
                rounds.append((traced, raw, raw * speed, layers))
                digests.add(_digest(writes))
                typical = statistics.median(r[1] for r in rounds)
                if time.perf_counter() - start + 0.5 * typical >= seconds and (
                        not trace or len(rounds) >= 2):
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        mean_tick = meter.mean_tick()
        phases[f"{len(rounds)} rounds"] = time.perf_counter()

        for error in sorted(one_round.errors):
            print(f"perfbench: call failed: {error}", file=sys.stderr)
        problems = []
        if len(digests) != 1:
            problems.append(f"rounds wrote {len(digests)} different sets of output bytes")
        try:
            problems += workload.check()
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"outputs could not be read: {type(exc).__name__}: {exc}")
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        phases["checks"] = time.perf_counter()
        stamps = list(phases.items())
        plain = [r for r in rounds if not r[0]]
        print("perfbench: " + ", ".join(f"{label} {t - prev:.1f} s" for (_, prev), (label, t)
                                        in zip(stamps, stamps[1:]))
              + f"; untraced rounds: raw median {statistics.median(r[1] for r in plain):.3f} s,"
              f" mean {workload.tick} tick {mean_tick * 1e6:.1f} us", file=sys.stderr)

        if not trace:
            metrics = {
                "wall_s": (statistics.median(r[2] for r in plain), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            traced_rounds = [r for r in rounds if r[0]]
            layer = {key: statistics.median(r[3][key] for r in traced_rounds)
                     for key in traced_rounds[0][3]}
            metrics = {key: (value, _layer_unit(key)) for key, value in layer.items()}
            metrics["bench.ref_s"] = (mean_tick, "s")
            metrics["bench.raw_wall_s"] = (statistics.median(r[1] for r in plain), "s")
            metrics["bench.trace_overhead_s"] = (
                statistics.median(r[2] for r in traced_rounds)
                - statistics.median(r[2] for r in plain), "s")
            _write_trace(name, seed, tracer, traced_rounds[-1][1], workload.tick)

        # failed calls are counted in `failed`; `correct` judges the outputs
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MiB"
    if key.endswith("ns_per_element"):
        return "ns"
    if key.startswith("cli.bytes"):
        return "B"
    return "count"


def _write_trace(name, seed, tracer, raw, tick) -> None:
    """Spans of the last traced round, with each layer's share of its time."""
    shares = {k: v / raw for k, v in sorted(tracer.self_times().items())}
    path = HERE / "out" / f"trace-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "reference_tick": tick,
                   "round_s": raw, "self_time_share": shares,
                   "spans": tracer.spans}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["minimax", "truthfulness", "records"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="test the benchmark's own oracles and exit")
    args = parser.parse_args(argv)

    if args.self_check:
        import oracles

        failures = oracles.self_check()
        for failure in failures:
            print(f"self-check failed: {failure}", file=sys.stderr)
        print("self-check: ok" if not failures else f"self-check: {len(failures)} failed")
        return 1 if failures else 0
    if args.workload is None:
        return _fail("--workload is required")
    if not (ROOT / "src" / "isomech" / "cli.py").is_file():
        return _fail(f"no isomech sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import isomech.cli  # noqa: F401
    except ImportError as exc:
        return _fail(f"cannot import isomech: {exc}")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
