"""Reference clock: round times converted to a nominal host speed.

The host this benchmark was built on changes speed by up to 2x within
seconds, so a raw round time says as much about the host as about the
program.  While a round runs, an interval timer (SIGALRM) interrupts the
process every few milliseconds and times one small, fixed reference
computation (a "tick").  The mean of nominal_tick / measured_tick over a
round is the host's mean relative speed during that round, and

    scaled time = raw time * mean(nominal_tick / measured_tick)

is the time the round would have taken at the nominal speed.  Sampling
inside the round follows speed changes that a reference timed only before
and after a round of several seconds misses.

Which tick tracks a workload best was measured, not assumed (see
README.md): a tick's slowdown must match the workload's slowdown, or the
scaled time still moves with the host.

* ``scalar``: a Python loop that indexes and compares numpy float64
  scalars, the shape of the projection kernel's PAVA loop and of the
  per-item numpy calls in the CLI.  Used for ``minimax`` and ``records``.
* ``array``: whole-array numpy passes over a 2 MiB vector.  Used for
  ``truthfulness``, whose time goes to whole-array numpy operations.
* ``interp``: a pure-Python loop over a small list, for the
  fresh-interpreter set-up probe, which must not import numpy before the
  code it measures does.

This module imports only the standard library at import time, so the
set-up probe can load it in a fresh interpreter before numpy is imported.
"""

from __future__ import annotations

import signal
import statistics
import time

# Tick durations on the reference host in a fast phase (2 cores, Python
# 3.11, numpy 2.4).  They only fix the unit of scaled time: the same
# constants are used for every commit compared.
NOMINAL_S = {"interp": 6.0e-5, "scalar": 8.0e-5, "array": 1.75e-3}
INTERVAL_S = {"interp": 0.02, "scalar": 0.02, "array": 0.1}


def interp_tick() -> float:
    """Fixed interpreter work: 300 iterations of float math and list push/pop."""
    acc = 0.0
    stack = [0.0]
    for i in range(300):
        v = (i * 0.618) % 1.0
        if v < stack[-1]:
            acc += stack.pop() if len(stack) > 1 else 0.0
        else:
            stack.append(v)
    return acc


class _ScalarTick:
    """Fixed numpy-scalar work: 150 steps of indexing, multiply and compare."""

    def __init__(self):
        import numpy as np

        self._buf = np.random.default_rng(5).random(256)

    def __call__(self) -> float:
        b = self._buf
        acc = 0.0
        top = 0
        for i in range(150):
            s = b[i & 255] * 1.5
            if s < b[top]:
                acc += s
                top = (top + 7) & 255
            else:
                acc -= b[top]
                top = (top + 3) & 255
        return acc


class _ArrayTick:
    """Fixed array work: a multiply and a running maximum over 2 MiB."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._src = np.random.default_rng(6).random(1 << 18)
        self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        np = self._np
        np.multiply(self._src, 1.5, out=self._dst)
        np.maximum.accumulate(self._dst, out=self._dst)
        return float(self._dst[-1])


def make_tick(kind: str):
    if kind == "interp":
        return interp_tick
    if kind == "scalar":
        return _ScalarTick()
    if kind == "array":
        return _ArrayTick()
    raise ValueError(f"unknown reference tick {kind!r}")


class Speedometer:
    """Samples host speed with one reference tick kind while it runs.

    Use ``mark()`` before a timed region and ``speed(mark)`` after it; the
    result is the mean of nominal / measured tick time over the ticks taken
    in between (1.0 at nominal speed, 0.5 on a host running at half speed).
    """

    def __init__(self, kind: str):
        self.nominal = NOMINAL_S[kind]
        self.interval = INTERVAL_S[kind]
        self._tick = make_tick(kind)
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._tick()
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> int:
        return len(self.durations)

    def speed(self, mark: int, end: int | None = None) -> float:
        ticks = self.durations[mark:end]
        if not ticks:
            # region shorter than one interval: time a short burst instead
            for _ in range(8):
                t0 = time.perf_counter()
                self._tick()
                ticks.append(time.perf_counter() - t0)
        return statistics.fmean(self.nominal / d for d in ticks)

    def mean_tick(self) -> float:
        return statistics.fmean(self.durations) if self.durations else 0.0


# Fresh-interpreter set-up probe: starts an interp Speedometer, imports the
# CLI and builds its parser (``--version`` prints and exits), then writes
# the host speed during the import to stderr.  Run with the checkout root as
# working directory.
SETUP_PROBE = """
import sys
sys.path[:0] = ["perfbench", "src"]
import refclock
meter = refclock.Speedometer("interp")
meter.start()
from isomech.cli import main
try:
    main(["--version"])
except SystemExit:
    pass
meter.stop()
sys.stderr.write(repr(meter.speed(0)))
"""
