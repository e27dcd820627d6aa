"""Self-test of the benchmark: every workload once at tiny sizes.

Checks that each workload runs, passes its output checks and emits every
metric that BENCHMARK.json names, with the same units, untraced and traced;
that the readable report names all eight end-to-end figures; and that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and perfbench/. Takes about a minute::

    python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REPORT_NAMES = ("setup_s", "wall_s", "peak_rss_mib", "iter_ms", "rows_per_s",
                "auroc", "final_loss", "fail_frac")


def bench(cwd, workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


def check_result(proc, expected, positive):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert value > 0 or not positive, (name, value)
    return lines[:-1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END, "BENCHMARK.json and run.END_TO_END disagree"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    for workload in run.WORKLOADS:
        report = check_result(bench(ROOT, workload, 0), end_to_end, positive=True)
        for name in REPORT_NAMES:
            assert any(line.split()[:1] == [name] for line in report), (workload, name)
        check_result(bench(ROOT, workload, 1), per_layer, positive=False)
        print(f"ok  {workload}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, run.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
