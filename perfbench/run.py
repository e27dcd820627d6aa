"""confmetric benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-rank --seed 1 --seconds 30 --trace 0

Set-up runs in its own process several times (``setup_s`` is the median);
the timed phase then runs in a fresh process that repeats the workload's CLI
calls for ``--seconds`` and reports medians. With ``--trace 1`` an untraced
and a traced process each get half the time, and the per-layer metrics come
from the traced one. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import UNITS as PER_LAYER  # noqa: E402

WORKLOADS = ("train-rank", "score-batch", "experiment-grid")

# the end-to-end metrics in the result line, defined on every workload
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "rows_per_s": "rows/s"}
# reported in the readable lines where the workload defines them
REPORTED = {**END_TO_END, "iter_ms": "ms", "auroc": "1", "final_loss": "1",
            "fail_frac": "1"}
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(phase, args, work, deadline, extra=()):
    argv = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
            "--dir", str(work), *extra]
    if args.tiny:
        argv.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")  # BLAS threads: see worker.py
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} worker did not finish before the deadline") from None
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return seconds


def _timed(args, work, deadline, seconds, trace):
    out = work / ("traced.json" if trace else "untraced.json")
    extra = ["--seconds", repr(seconds), "--out", str(out)] + (["--trace"] if trace else [])
    _worker("timed", args, work, deadline, extra)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run(args):
    if not (ROOT / "src" / "confmetric" / "cli.py").is_file():
        raise BenchError(f"no confmetric sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    repeats = 1 if args.trace else SETUP_REPEATS
    setup = [_worker("setup", args, work, deadline, ["--seed", str(args.seed)])
             for _ in range(repeats)]

    if args.trace:
        untraced = _timed(args, work, deadline, args.seconds / 2, trace=False)
        traced = _timed(args, work, deadline, args.seconds / 2, trace=True)
        runs = [untraced, traced]
    else:
        untraced = _timed(args, work, deadline, args.seconds, trace=False)
        runs = [untraced]

    checks = [c for r in runs for c in r["checks"]]
    failed = [name for name, ok in checks if not ok]
    reps = [r for r in untraced["reps"] if r]  # a failed call leaves no figures
    if not reps:
        raise BenchError("the program failed on every repetition: " + "; ".join(failed))
    values = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mib"] = untraced["peak_rss_mib"]
    values["fail_frac"] = len(failed) / len(checks)

    if args.trace:
        metrics = dict(traced["layers"])
        traced_wall = statistics.median(r["wall_s"] for r in traced["reps"])
        metrics["trace.overhead_frac"] = (traced_wall - values["wall_s"]) / values["wall_s"]
        units = PER_LAYER
    else:
        metrics = {k: values[k] for k in END_TO_END}
        units = END_TO_END

    m = untraced["machine"]
    print(f"machine: nproc={m['nproc']} blas_threads={m['blas_threads']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} timed repetitions, "
          f"{len(setup)} set-ups, {len(checks)} checks, {len(failed)} failed")
    for name in failed:
        print(f"  FAILED check: {name}")
    for name, unit in REPORTED.items():
        shown = f"{values[name]:.6g} {unit}" if name in values else "n/a"
        print(f"  {name:<14} {shown}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g}")

    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="confmetric benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes; not for measurement")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
