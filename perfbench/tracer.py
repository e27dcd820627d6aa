"""Spans around the calls into confmetric's modules, made from outside them.

The program is left untouched. Each public function of a confmetric module
is replaced, in every confmetric module that holds a reference to it, by a
wrapper that records a span: name, start, end and the id of the span that
was open when it started. Patching every import site matters because the
modules look functions up in their own globals at call time, e.g.
``optimize.smooth_gradient``, ``cli.positive_scores`` and
``metric.kernel_matrix``, which ``objective`` imports inside a function.

Spans stay in memory; ``Tracer.dump`` writes them out once the run is over.
Only the functions listed in ``MEMORY_PEAKS`` take a tracemalloc peak:
tracemalloc runs only for the length of their calls, so it slows no other
layer, and none of them runs inside another.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc

PACKAGE = "confmetric"

# private helpers that do a layer's job; traced under the layer they serve
EXTRA_SPANS = {("cli", "_read_feature_rows"): "data_io.read_feature_rows"}

MEMORY_PEAKS = {"objective.smooth_gradient", "experiment.positive_scores"}

# every per-layer metric and its unit; ``layer_metrics`` computes all but the
# last, which compares a traced with an untraced run
UNITS = {
    "metric.kernel_matrix.calls": "count",
    "metric.kernel_matrix.self_s": "s",
    "metric.kernel_matrix.cells": "count",
    "metric.similarity_scores.self_s": "s",
    "optimize.kernels_per_iter": "count",
    "optimize.loss_evals_per_iter": "count",
    "optimize.accept_ratio": "ratio",
    "optimize.iterations": "count",
    "optimize.fit.calls": "count",
    "optimize.fit.p50_s": "s",
    "optimize.fit.p90_s": "s",
    "optimize.init_metric.self_s": "s",
    "objective.smooth_gradient.calls": "count",
    "objective.smooth_gradient.self_s": "s",
    "objective.smooth_gradient.peak_n2": "n2_float64",
    "objective.camel_cl_loss.calls": "count",
    "objective.camel_cl_loss.self_s": "s",
    "objective.ranking_pairs": "count",
    "objective.build_ranking_pairs.self_s": "s",
    "experiment.positive_scores.self_s": "s",
    "experiment.positive_scores.rows": "count",
    "experiment.positive_scores.peak_mib": "MiB",
    "data_io.parse_s": "s",
    "data_io.parse_rows_per_s": "rows/s",
    "model_io.load_model.s": "s",
    "model_io.save_model.s": "s",
    "model_io.model_bytes": "bytes",
    "evaluate.auroc.calls": "count",
    "evaluate.auroc.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _modules():
    return {
        name[len(PACKAGE) + 1:] or PACKAGE: mod
        for name, mod in sys.modules.items()
        if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod is not None
    }


def _public_functions(modules):
    """Map each public function object to its span name ``module.function``."""
    found = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == f"{PACKAGE}.{short}":
                found[obj] = f"{short}.{attr}"
    for (short, attr), span in EXTRA_SPANS.items():
        found[getattr(modules[short], attr)] = span
    return found


def _work(name, args, result):
    """Units of work a call did, read off its arguments and result."""
    if name == "metric.kernel_matrix":
        return int(result.size)
    if name == "objective.build_ranking_pairs":
        return len(result)
    if name == "experiment.positive_scores":
        return int(result.shape[0])
    if name == "data_io.load_csv":
        return int(result[0].n)
    if name == "data_io.read_feature_rows":
        return int(result[0].shape[0])
    if name == "optimize.fit":
        return len(result[1].records) - 1
    if name in ("model_io.save_model", "model_io.load_model"):
        return os.path.getsize(args[0])
    if name == "objective.smooth_gradient":
        return int(args[1].n)
    return None


class Tracer:
    """Records spans for every call into the program while installed."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, work, peak_bytes]
        self.active = True  # False while the benchmark checks outputs
        self._stack = []

    def _wrap(self, fn, name):
        tracer = self
        peak = name in MEMORY_PEAKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    name, 0.0, 0.0, None, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            if peak:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
                if peak:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span[5] = _work(name, args, result)
            return result

        return traced

    def install(self):
        modules = _modules()
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in _public_functions(modules).items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        return self

    def dump(self, path):
        keys = ("id", "parent", "name", "t0", "t1", "work", "peak_bytes")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def _ancestors(spans, i):
    parent = spans[i][1]
    while parent is not None:
        yield spans[parent][2]
        parent = spans[parent][1]


def _percentile(values, p):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(spans):
    """The per-layer metrics, computed from one traced run's spans."""
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[2], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(sum(own[i] for i in by_name.get(name, ())))

    def total_s(name):
        return float(sum(spans[i][4] - spans[i][3] for i in by_name.get(name, ())))

    def work(name):
        return sum(spans[i][5] or 0 for i in by_name.get(name, ()))

    def in_fit(name):
        return sum(1 for i in by_name.get(name, ())
                   if "optimize.fit" in _ancestors(spans, i))

    fits = [spans[i][4] - spans[i][3] for i in by_name.get("optimize.fit", ())]
    iterations = work("optimize.fit")
    n_fits = len(fits)
    loss_evals = in_fit("objective.camel_cl_loss")
    trials = loss_evals - n_fits  # one evaluation per fit is the starting loss

    # peak per n² is read at the largest n, where the n² arrays dominate
    grads = [spans[i] for i in by_name.get("objective.smooth_gradient", ())]
    n_max = max((s[5] for s in grads), default=0)
    grad_peaks = [s[6] / (8.0 * n_max ** 2) for s in grads if s[5] == n_max]
    score_peaks = [spans[i][6] for i in by_name.get("experiment.positive_scores", ())
                   if spans[i][6] is not None]

    parse_s = total_s("data_io.load_csv") + total_s("data_io.read_feature_rows")
    parse_rows = work("data_io.load_csv") + work("data_io.read_feature_rows")
    model_files = [spans[i][5] for name in ("model_io.save_model", "model_io.load_model")
                   for i in by_name.get(name, ())]
    cli_self = float(sum(own[i] for i, s in enumerate(spans) if s[2].startswith("cli.")))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    return {
        "metric.kernel_matrix.calls": calls("metric.kernel_matrix"),
        "metric.kernel_matrix.self_s": self_s("metric.kernel_matrix"),
        "metric.kernel_matrix.cells": work("metric.kernel_matrix"),
        "metric.similarity_scores.self_s": self_s("metric.similarity_scores"),
        "optimize.kernels_per_iter": ratio(in_fit("metric.kernel_matrix"), iterations),
        "optimize.loss_evals_per_iter": ratio(loss_evals, iterations),
        "optimize.accept_ratio": ratio(iterations, trials),
        "optimize.iterations": iterations,
        "optimize.fit.calls": n_fits,
        "optimize.fit.p50_s": _percentile(fits, 50),
        "optimize.fit.p90_s": _percentile(fits, 90),
        "optimize.init_metric.self_s": self_s("optimize.init_metric"),
        "objective.smooth_gradient.calls": calls("objective.smooth_gradient"),
        "objective.smooth_gradient.self_s": self_s("objective.smooth_gradient"),
        "objective.smooth_gradient.peak_n2": max(grad_peaks, default=0.0),
        "objective.camel_cl_loss.calls": calls("objective.camel_cl_loss"),
        "objective.camel_cl_loss.self_s": self_s("objective.camel_cl_loss"),
        "objective.ranking_pairs": work("objective.build_ranking_pairs"),
        "objective.build_ranking_pairs.self_s": self_s("objective.build_ranking_pairs"),
        "experiment.positive_scores.self_s": self_s("experiment.positive_scores"),
        "experiment.positive_scores.rows": work("experiment.positive_scores"),
        "experiment.positive_scores.peak_mib": max(score_peaks, default=0) / 2**20,
        "data_io.parse_s": parse_s,
        "data_io.parse_rows_per_s": ratio(parse_rows, parse_s),
        "model_io.load_model.s": total_s("model_io.load_model"),
        "model_io.save_model.s": total_s("model_io.save_model"),
        "model_io.model_bytes": max(model_files, default=0),
        "evaluate.auroc.calls": calls("evaluate.auroc"),
        "evaluate.auroc.self_s": self_s("evaluate.auroc"),
        "cli.self_s": cli_self,
    }
