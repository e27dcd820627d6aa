"""One benchmark process: ``setup`` writes a workload's inputs, ``timed`` runs it.

``run.py`` starts each in a fresh interpreter, so set-up time, peak RSS and
the tracer never leak from one phase into another. Usage::

    python3 perfbench/worker.py setup --workload W --seed N --dir D [--tiny]
    python3 perfbench/worker.py timed --workload W --dir D --seconds S \
        --out result.json [--trace] [--tiny]
"""

import os

# one BLAS thread, fixed before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


class FitProbe:
    """Times each ``fit`` and keeps what its result reports.

    The only hook in an untraced run: two clock reads per ``fit`` call, so
    that time per iteration can be measured without tracing.
    """

    def __init__(self):
        self.fits = []  # (seconds, iterations, final loss, training rows)

    def install(self, *modules):
        for mod in modules:
            mod.fit = self._probe(mod.fit)

    def _probe(self, fit):
        def probed(data, cfg):
            t0 = time.perf_counter()
            L, trace = fit(data, cfg)
            seconds = time.perf_counter() - t0
            self.fits.append((seconds, len(trace.records) - 1,
                              trace.records[-1].total, data.n))
            return L, trace
        return probed


def run_calls(cli, argvs):
    """Run one repetition's CLI calls in-process; time each and keep its output."""
    rep = {"codes": [], "outputs": [], "walls": []}
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            rep["walls"].append(time.perf_counter() - t0)
        rep["codes"].append(code)
        lines = out.getvalue().strip().splitlines()
        rep["outputs"].append(json.loads(lines[-1]) if code == 0 and lines else None)
        if code != 0:
            print(f"{argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return rep


def machine():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def cmd_setup(args, sizes):
    from confmetric import cli

    with contextlib.redirect_stdout(io.StringIO()):
        workloads.setup(args.workload, sizes, args.seed, args.dir, cli.main)
    return 0


def cmd_timed(args, sizes):
    from confmetric import cli, experiment

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer().install()
    probe = FitProbe()
    probe.install(cli, experiment)

    argvs = workloads.calls(args.workload, sizes, args.dir)
    reps, checks, layers, state = [], [], [], {}
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        probe.fits.clear()
        rep = run_calls(cli, argvs)
        rep["fits"] = list(probe.fits)
        if tracer is not None:
            tracer.active = False
            layers.append(layer_metrics(tracer.spans))
            tracer.dump(os.path.join(args.dir, f"spans-{len(layers)}.jsonl"))
            tracer.spans.clear()
        rep_checks, values = workloads.measure(args.workload, sizes, args.dir, rep, state)
        checks += rep_checks
        reps.append(values)
        if tracer is not None:
            tracer.active = True
        if not all(ok for _, ok in rep_checks):
            break

    result = {
        "reps": reps,
        "checks": checks,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if layers:
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=["setup", "timed"])
    p.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    return (cmd_setup if args.phase == "setup" else cmd_timed)(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
