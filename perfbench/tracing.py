"""Layer tracing for the benchmark's traced runs.

``Tracer.install`` wraps public isomech functions and methods and rebinds
each name in every isomech module that holds it, so calls made through
``from .x import f`` are seen too.  Each call records a span (name, start,
end, parent) in memory; counters read the call's arguments or result.  A
layer's self time is the sum over its spans of span time minus the time of
the span's direct children.  ``uninstall`` puts the originals back, so
untraced passes run the program as shipped.

A function or method the program no longer has is skipped, and the metrics
that read it stay 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _rows(result, args, kwargs):
    shape = getattr(args[0], "shape", None) if args else None
    return {"rows": shape[0], "elements": shape[0] * shape[1]} if shape and len(shape) == 2 else {}


def _mle_elements(result, args, kwargs):
    return {"elements": len(args[1])} if len(args) > 1 else {}


def _draws(result, args, kwargs):
    return {"draws": int(getattr(result, "size", 1))}


def _codewords(result, args, kwargs):
    return {"codewords": int(getattr(result, "size", 0))}


def _matrix_mb(result, args, kwargs):
    return {"matrix_mb": getattr(result, "nbytes", 0) / 2**20}


def _rankings(result, args, kwargs):
    return {"rankings": len(result)}


def _authors(result, args, kwargs):
    return {"authors": sum(row.authors for row in getattr(result, "rows", ()))}


# (span name, module, attribute, counter); "Family.*" wraps the method on
# Family and on every subclass that defines its own.
FUNCTIONS = [
    ("isotonic.batch", "isomech.isotonic", "project_descending_batch", _rows),
    ("isotonic.scalar", "isomech.isotonic", "isotonic_mechanism", None),
    ("isotonic.scalar", "isomech.isotonic", "coarse_isotonic_mechanism", None),
    ("isotonic.scalar", "isomech.isotonic", "project_descending", None),
    ("isotonic.mle", "isomech.isotonic", "ranking_constrained_mle", _mle_elements),
    ("expfam.natural_param", "isomech.expfam", "Family.natural_param", None),
    ("expfam.sample", "isomech.expfam", "Family.sample_mean", _draws),
    ("expfam.certificate", "isomech.expfam", "verify_variance_assumption", None),
    ("experiments.lower_bound", "isomech.experiments", "build_lower_bound", _codewords),
    ("experiments.verify", "isomech.experiments", "LowerBoundConstruction.verify", None),
    ("experiments.mc", "isomech.experiments", "rate_check", None),
    ("mechanism.simulate", "isomech.mechanism", "simulate_scores", None),
    ("mechanism", "isomech.mechanism", "utility_trials", _matrix_mb),
    ("mechanism", "isomech.mechanism", "rank_all_utilities", _rankings),
    ("experiments.surrogate", "isomech.experiments", "surrogate_eval", _authors),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped to record one span per call (and counts, if given)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "isomech" or name.startswith("isomech."))]
        for span_name, module_name, attr, counter in FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                base = getattr(module, cls_name, None)
                if not isinstance(base, type):
                    continue
                for cls in [base, *_subclasses(base)]:
                    if method in vars(cls):
                        self._rebind(cls, method, self.span(span_name, vars(cls)[method], counter))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.span(span_name, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total span time minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_metrics(tracer: Tracer, cli_bytes: tuple[int, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    elements = counts["isotonic.batch.elements"]
    batch_s = self_s["isotonic.batch"]
    return {
        "isotonic.batch_s": batch_s,
        "isotonic.rows": counts["isotonic.batch.rows"],
        "isotonic.elements": elements,
        "isotonic.ns_per_element": batch_s / elements * 1e9 if elements else 0.0,
        "isotonic.scalar_s": self_s["isotonic.scalar"],
        "isotonic.scalar_calls": calls["isotonic.scalar"],
        "isotonic.mle_s": self_s["isotonic.mle"],
        "isotonic.mle_elements": counts["isotonic.mle.elements"],
        "expfam.natural_param_s": self_s["expfam.natural_param"],
        "expfam.natural_param_calls": calls["expfam.natural_param"],
        "expfam.sample_s": self_s["expfam.sample"],
        "expfam.draws": counts["expfam.sample.draws"],
        "expfam.certificate_s": self_s["expfam.certificate"],
        "experiments.lower_bound_self_s": self_s["experiments.lower_bound"],
        "experiments.verify_s": self_s["experiments.verify"],
        "experiments.verify_calls": calls["experiments.verify"],
        "experiments.codewords": counts["experiments.lower_bound.codewords"],
        "experiments.mc_self_s": self_s["experiments.mc"],
        "experiments.surrogate_s": self_s["experiments.surrogate"],
        "experiments.authors": counts["experiments.surrogate.authors"],
        "mechanism.simulate_s": self_s["mechanism.simulate"],
        "mechanism.self_s": self_s["mechanism"],
        "mechanism.rankings": counts["mechanism.rankings"],
        "mechanism.utility_matrix_mb": counts["mechanism.matrix_mb"],
        "cli.self_s": self_s["cli"],
        "cli.calls": calls["cli"],
        "cli.bytes_read": cli_bytes[0],
        "cli.bytes_written": cli_bytes[1],
    }
