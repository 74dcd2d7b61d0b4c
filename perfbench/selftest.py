#!/usr/bin/env python3
"""Self-test of the benchmark at the tiny size.

Checks that every workload, traced and untraced, emits exactly the metrics
BENCHMARK.json names with their units, that the result line has the agreed
keys, and that a wrong expected case count and a wrong pinned CLI output
are each counted as a failed operation.  Takes about 20 seconds.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(manifest):
    for workload in wl.WORKLOADS:
        for trace, listed in ((0, manifest["end_to_end"]), (1, manifest["per_layer"])):
            res = run_bench(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload:8s} trace={trace} {len(got)} metrics")


def check_wrong_count_fails():
    from orderlab import checks, cli
    _, ops = wl.build("sweep", "tiny", 7, os.path.join(worker.OUT_DIR, "selftest"))
    ops[0].cases += 1
    runner = worker.Runner(checks, cli)
    worker.timed_loop(runner, ops, 0)
    assert runner.attempted == len(ops) and runner.failed == 1, runner.failures
    assert "expected" in runner.failures[0]
    print(f"ok  wrong expected count: failed_frac = {runner.failed}/{runner.attempted}")


def check_wrong_output_fails():
    from orderlab import checks, cli
    workdir = os.path.join(worker.OUT_DIR, f"selftest-{os.getpid()}")
    _, ops = wl.build("cli", "tiny", 7, workdir)
    ops[0].digest = "0" * 16
    runner = worker.Runner(checks, cli)
    os.chdir(workdir)
    try:
        worker.timed_loop(runner, ops, 0)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    assert runner.attempted == len(ops) and runner.failed == 1, runner.failures
    assert "pinned output" in runner.failures[0]
    print(f"ok  wrong pinned CLI output: failed_frac = {runner.failed}/{runner.attempted}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    check_wrong_count_fails()
    check_wrong_output_fails()
    check_emitted(manifest)
    print("selftest passed")


if __name__ == "__main__":
    main()
