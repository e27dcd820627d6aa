"""The three workloads: how each builds its inputs, what it times, what it checks.

Inputs depend only on the seed. The timed phase runs the program through
``confmetric.cli.main(argv)`` and hands it nothing but the files that set-up
wrote. Each workload is a plain dict of sizes (``FULL`` for the benchmark,
``TINY`` for the self-test) plus three functions.

Why these three:

- ``train-rank`` puts nearly all the work in metric/objective/optimize at
  n=2000 with the ranking hinge on (~n²/4.9 pairs). The iteration cap is
  needed: uncapped, the fit runs all 500 iterations without meeting
  ``rel_tol``.
- ``score-batch`` fits nothing while timed: a 20,000-row query CSV is scored
  against a 2,000-row reference model, then evaluated, so CSV parsing, model
  files and batch scoring do the work.
- ``experiment-grid`` runs the same objective/optimize code at tiny n
  (120 fits, n ≤ 160), where per-call Python overhead rather than BLAS sets
  the time; a change that speeds up big kernels but adds per-call cost shows
  here. The hinge is on for ``camel_cl`` and off for ``camel``. The
  iteration cap of 25 stops most fits (over 85%), so the work done varies
  by about 1% between seeds; with a cap of 200 it varied by about 10%.
"""

from __future__ import annotations

import csv
import json
import math
import os

SYNTH = {"m": 20, "m_informative": 2, "separation": 4.0, "noise": 0.05}

FULL = {
    "train-rank": {"n": 2000, "max_iters": 10},
    "score-batch": {"ref_n": 2000, "ref_iters": 1, "query_n": 20000, "auroc_floor": 0.95},
    "experiment-grid": {"n": 1000, "trials": 5, "train_sizes": [20, 40, 80, 160],
                        "max_iters": 25, "auroc_floor": 0.8},
}

TINY = {
    "train-rank": {"n": 120, "max_iters": 3},
    "score-batch": {"ref_n": 100, "ref_iters": 1, "query_n": 400, "auroc_floor": 0.8},
    "experiment-grid": {"n": 120, "trials": 1, "train_sizes": [10, 20],
                        "max_iters": 20, "auroc_floor": 0.5},
}

# query data comes from the same distribution as the reference data but
# from a disjoint seed
QUERY_SEED_OFFSET = 1_000_003


def _synth_argv(n, seed, out):
    return ["synth", "--n", str(n), "--m", str(SYNTH["m"]),
            "--m-informative", str(SYNTH["m_informative"]),
            "--separation", str(SYNTH["separation"]),
            "--noise", str(SYNTH["noise"]), "--seed", str(seed), "--out", out]


def _path(d, name):
    return os.path.join(d, name)


# -- set-up: writes the input files, run in its own process -----------------

def setup(workload, sizes, seed, d, cli_main):
    """Write the workload's input files into directory ``d``."""
    if workload == "train-rank":
        _run_ok(cli_main, _synth_argv(sizes["n"], seed, _path(d, "train.csv")))
    elif workload == "score-batch":
        _run_ok(cli_main, _synth_argv(sizes["ref_n"], seed, _path(d, "ref.csv")))
        _run_ok(cli_main, _synth_argv(sizes["query_n"], seed + QUERY_SEED_OFFSET,
                                      _path(d, "query.csv")))
        _run_ok(cli_main, ["train", "--data", _path(d, "ref.csv"),
                           "--confidence", "confidence", "--lambda1", "4",
                           "--max-iters", str(sizes["ref_iters"]),
                           "--out", _path(d, "model.json"),
                           "--trace", _path(d, "ref_trace.csv")])
    elif workload == "experiment-grid":
        config = {
            "trials": sizes["trials"],
            "train_sizes": sizes["train_sizes"],
            "hyper_grid": {"lambda1": [1.0, 4.0], "lambda2": [0.5, 2.0]},
            "methods": ["camel", "camel_cl"],
            "seed": seed,
            "max_iters": sizes["max_iters"],
            "data": {"synth": {"n": sizes["n"], "m": SYNTH["m"],
                               "m_informative": SYNTH["m_informative"],
                               "cluster_separation": SYNTH["separation"],
                               "confidence_noise": SYNTH["noise"], "seed": seed}},
        }
        with open(_path(d, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    else:
        raise KeyError(workload)


def _run_ok(cli_main, argv):
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited {code}")


# -- the timed calls --------------------------------------------------------

def calls(workload, sizes, d):
    """The CLI argv lists one repetition of the workload runs, in order."""
    if workload == "train-rank":
        return [["train", "--data", _path(d, "train.csv"), "--confidence", "confidence",
                 "--lambda1", "4", "--lambda2", "1",
                 "--max-iters", str(sizes["max_iters"]),
                 "--out", _path(d, "model_out.json"), "--trace", _path(d, "trace.csv")]]
    if workload == "score-batch":
        return [["predict", "--model", _path(d, "model.json"),
                 "--data", _path(d, "query.csv"), "--confidence", "confidence",
                 "--out", _path(d, "pred.csv")],
                ["evaluate", "--pred", _path(d, "pred.csv"),
                 "--data", _path(d, "query.csv"), "--confidence", "confidence"]]
    if workload == "experiment-grid":
        return [["experiment", "--config", _path(d, "config.json"),
                 "--out", _path(d, "results.csv"), "--summary", _path(d, "summary.csv")]]
    raise KeyError(workload)


# -- output checks and the numbers one repetition yields ---------------------

def measure(workload, sizes, d, rep, state):
    """Check one repetition's outputs and derive its end-to-end numbers.

    ``rep`` holds ``codes`` and ``outputs`` (exit code and parsed stdout JSON
    of each call), ``walls`` (seconds per call) and ``fits`` (seconds,
    iterations, final loss and training rows of each ``fit``). ``state``
    carries what one repetition leaves for the next. Returns
    ``(checks, values)``: a list of ``(name, passed)`` and a dict of metric
    values.
    """
    codes, outs, walls, fits = rep["codes"], rep["outputs"], rep["walls"], rep["fits"]
    checks = [(f"call {i} exit 0", c == 0) for i, c in enumerate(codes)]
    if any(c != 0 for c in codes):
        return checks, {}
    fit_s = sum(f[0] for f in fits)
    iters = sum(f[1] for f in fits)
    values = {"wall_s": sum(walls)}

    if workload == "train-rank":
        out = outs[0]
        totals = _column(_path(d, "trace.csv"), "total")
        checks.append(("trace total never increases",
                       all(b <= a for a, b in zip(totals, totals[1:]))))
        checks.append(("iterations equal the cap", out["iterations"] == sizes["max_iters"]))
        checks.append(("final total finite and equal to the trace's last row",
                       math.isfinite(out["total"]) and totals[-1:] == [out["total"]]))
        checks.append(("model file loads back", _model_loads(_path(d, "model_out.json"))))
        values["iter_ms"] = _ratio(1000.0 * fit_s, iters)
        values["rows_per_s"] = _ratio(sizes["n"] * iters, fit_s)
        values["final_loss"] = out["total"]
    elif workload == "score-batch":
        scores = _column(_path(d, "pred.csv"), "confidence")
        checks.append(("one score per query row", len(scores) == sizes["query_n"]))
        checks.append(("every score finite and in [0, 1]",
                       all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores)))
        auc = outs[1]["auroc"]
        checks.append((f"auroc above {sizes['auroc_floor']}", auc > sizes["auroc_floor"]))
        values["rows_per_s"] = sizes["query_n"] / walls[0]
        values["auroc"] = auc
    elif workload == "experiment-grid":
        out = outs[0]
        expected = sizes["trials"] * len(sizes["train_sizes"]) * 2
        checks.append((f"{expected} records", out["records"] == expected))
        checks.append(("no errored cell", out["errors"] == 0))
        aucs = _column(_path(d, "summary.csv"), "mean_test_auroc")
        auc = _ratio(sum(aucs), len(aucs))
        checks.append((f"mean test auroc above {sizes['auroc_floor']}",
                       auc > sizes["auroc_floor"]))
        with open(_path(d, "results.csv"), "rb") as fh:
            results = fh.read()
        if "results" in state:
            checks.append(("results.csv byte-identical across repetitions",
                           results == state["results"]))
        state["results"] = results
        values["iter_ms"] = _ratio(1000.0 * fit_s, iters)
        values["rows_per_s"] = _ratio(sum(f[3] * f[1] for f in fits), fit_s)
        values["auroc"] = auc
        values["final_loss"] = _ratio(sum(f[2] for f in fits), len(fits))
    return checks, values


def _ratio(a, b):
    # 0 where the program did no work, which a failed check then explains
    return a / b if b else 0.0


def _column(path, name):
    """A CSV column as floats; a cell that does not parse reads as NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [_float(row.get(name)) for row in csv.DictReader(fh)]


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _model_loads(path):
    from confmetric.errors import ConfmetricError
    from confmetric.model_io import load_model

    try:
        model = load_model(path)
    except ConfmetricError:
        return False
    return model.matrix.ndim == 2 and model.train_X is not None
