#!/usr/bin/env python3
"""The orderlab benchmark.

    python3 perfbench/run.py --workload {sweep,calculus,random,cli} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout of the repository.  The workload runs in a
fresh Python process (worker.py) that imports orderlab from src/, builds its
inputs from the seed, warms up, and then repeats timed passes for S seconds
as a closed loop with one caller.  Every operation's result is checked.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported; the
set-up time is the median of SETUP_RUNS fresh processes, each scaled by the
reference probe timed right after its set-up.  With --trace 1 the
worker runs untraced passes for S/2 seconds and traced passes for S/2, and
the per-layer metrics of BENCHMARK.json are reported, with the tracing
overhead.  Each metric is printed on its own line; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.  The
exit code is non-zero when any operation failed or the run could not be
made.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9
# setup_s is scaled to the speed at which the reference probe takes this
# long (about its time on the 2-vCPU machine the bounds were set on), so
# that the machine's drift between runs cancels as in the *_ref metrics
REF_NOMINAL_MS = 10.0
DEADLINE_S = 170  # every run must end within 180 s
# one caller, no helper threads in numeric libraries; hash order fixed
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def spawn(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def show(name, value, unit, how=""):
    print(f"{name:40s} {value:14.6g} {unit:10s} {how}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=wl.SIZES, default="full",
                    help="tiny runs every suite at a toy size (self-test)")
    args = ap.parse_args(argv)

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "orderlab", "cli.py")) \
            or not os.path.isfile(manifest_path):
        print("perfbench: run from a checkout of orderlab: src/orderlab and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    runs = []
    try:
        if not args.trace:
            runs = [spawn(args, ["--setup-only"], deadline)
                    for _ in range(SETUP_RUNS - 1)]
        main_run = spawn(args, ["--trace", str(args.trace)], deadline)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    runs.append(main_run)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={main_run['numpy']} "
          f"numba_importable={importlib.util.find_spec('numba') is not None}")
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={main_run['passes']} "
          f"operations_per_pass={main_run['operations'] // main_run['passes']}")
    passes = f"median of {main_run['passes']} passes"
    requests = f"nearest rank of {main_run['requests']} requests"
    refs = f"mean of {main_run['ref_samples']} probes"
    values = {
        "setup_s": ("s", statistics.median(r["setup_s"] * REF_NOMINAL_MS / r["setup_ref_ms"]
                                           for r in runs),
                    f"median of {len(runs)} set-ups (import + warm-up), at "
                    f"{REF_NOMINAL_MS:g} ms per reference probe"),
        "setup_raw_s": ("s", statistics.median(r["setup_s"] for r in runs),
                        f"median of {len(runs)} set-ups, as measured"),
        "wall_s": ("s", main_run["wall_s"], passes),
        "request_ms.p50": ("ms", main_run["request_ms.p50"], requests),
        "request_ms.p99": ("ms", main_run["request_ms.p99"], requests),
        "ref_ms": ("ms", main_run["ref_ms"], refs + " of the reference loop"),
        "wall_ref": ("ref", main_run["wall_ref"], f"{passes}, each / its probes"),
        "request_ref.p50": ("ref", main_run["request_ref.p50"], f"{requests}, each / its pass's probes"),
        "request_ref.p99": ("ref", main_run["request_ref.p99"], f"{requests}, each / its pass's probes"),
        "peak_rss_mb": ("MB", main_run["peak_rss_mb"], "ru_maxrss of the worker"),
    }
    metrics = {}
    if not args.trace:
        for name, (unit, value, how) in values.items():
            show(name, value, unit, how)
        if args.workload == "cli":
            for label, (ms, n) in main_run["command_ms.p50"].items():
                show(f"command_ms.p50.{label}", ms, "ms", f"median of {n} requests")
    else:
        layers = main_run["layers"]
        for name, value in sorted(layers.items()):
            if value:
                show(name, value, "", "per traced pass")
        for note in main_run["notes"]:
            print(f"note: {note}")
        print(f"tracing overhead {layers['trace.overhead_s']:.4f} s per pass: traced "
              f"{layers['trace.wall_s']:.4f} s, untraced {main_run['wall_s']:.4f} s; "
              f"self times sum to {layers['trace.self_sum_s']:.4f} s")
        print(f"trace written to {main_run['trace_file']}")
    listed = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    source = main_run["layers"] if args.trace else {k: v[1] for k, v in values.items()}
    for m in listed:
        if m["name"] not in source:
            print(f"note: {m['name']} not measured on this commit", file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    show("failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted} operations failed")
    for why in (f for r in runs for f in r["failures"]):
        print(f"FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
