#!/usr/bin/env python3
"""Run one benchmark workload in this (fresh) process and print one JSON
line with its measurements.  run.py starts it; see README.md.

The loop is closed with a single caller: each operation starts when the
previous one has returned.  Every timing is taken here with
time.perf_counter around the call; the suites' own elapsed_s is never read.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7  # reference probes timed right after each set-up

import workloads as wl  # noqa: E402
import tracing  # noqa: E402


class Runner:
    """Executes operations and checks each result; counts failures."""

    def __init__(self, checks, cli):
        self.checks = checks
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stdout_bytes = 0

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.label}: {why}")

    def run(self, op):
        """Run one operation and check its result; returns the duration of
        the call in seconds (the check is not timed)."""
        self.attempted += 1
        if op.argv is not None:
            return self._run_cli(op)
        return self._run_check(op)

    def _run_check(self, op):
        t0 = time.perf_counter()
        try:
            res = getattr(self.checks, op.fn)(**op.kwargs)
        except Exception as e:  # a crashing suite is a failed operation
            dt = time.perf_counter() - t0
            self._fail(op, f"raised {type(e).__name__}: {e}")
            return dt
        dt = time.perf_counter() - t0
        if res.get("ok") is not True:
            self._fail(op, f"ok={res.get('ok')!r}")
        elif res.get("cases") != op.cases:
            self._fail(op, f"cases={res.get('cases')} expected {op.cases}")
        return dt

    def _run_cli(self, op):
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(op.argv))
        except SystemExit as e:  # argparse rejects the request
            code = e.code
        except Exception as e:  # a traceback is a failed request
            code = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        data = out.getvalue().encode()
        self.stdout_bytes += len(data)
        if code != 0:
            self._fail(op, f"exit {code!r}")
        elif stdout_digest(data) != op.digest:
            self._fail(op, f"stdout differs from the pinned output of {' '.join(op.argv)}")
        return dt


def stdout_digest(data):
    """The pinned form of a CLI request's stdout: a sha256 prefix."""
    return hashlib.sha256(data).hexdigest()[:16]


def _reference_work():
    acc = 0
    table = {}
    for i in range(60_000):
        table[i & 1023] = i
        acc += i * i % 7
    return acc + len(sorted(table.values()))


def timed_reference():
    """Seconds that one run of the reference loop takes, with the garbage
    collector off so that the program's heap does not enter it."""
    start = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
    finally:
        if enabled:
            gc.enable()
    return time.perf_counter() - start


class Reference:
    """A machine-speed probe: every INTERVAL_S of the timed loop a timer
    signal runs a fixed pure-Python loop (about 10 ms) in the main thread,
    with the garbage collector off so that the program's heap does not
    enter the probe.  The probe's own time is subtracted from every
    measured duration.

    On shared hardware the speed of the whole machine drifts by up to 20%
    within a minute, and every time metric of a run drifts with it;
    dividing by the probe times of the same pass cancels most of that
    drift.  Python runs signal handlers between bytecodes, so no thread is
    started and the probe interleaves evenly with the work."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _probe(self, signum, frame):
        dt = timed_reference()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._probe(None, None)  # at least one sample, however short the run
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_loop(runner, ops, seconds, reference=None):
    """Repeat whole passes over ops until `seconds` have elapsed (at least
    one pass).  Returns the durations of the passes and of the operations,
    without the time the reference probe took, and for each pass the probe
    times taken during it."""
    passes, latencies, probes = [], [], []
    samples = reference.samples if reference is not None else []

    def spent():
        return reference.spent if reference is not None else 0.0

    start = time.perf_counter()
    while True:
        t0, s0, i0 = time.perf_counter(), spent(), len(samples)
        for op in ops:
            s1 = spent()
            dt = runner.run(op)
            latencies.append(dt - (spent() - s1))
        passes.append(time.perf_counter() - t0 - (spent() - s0))
        probes.append(samples[i0:])
        if time.perf_counter() - start >= seconds:
            return passes, latencies, probes


def nearest_rank(values, q):
    """The q-quantile by nearest rank: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def command_medians(ops, latencies):
    """Median latency in ms and sample count of each kind of operation;
    latencies are in the order timed_loop ran ops, pass after pass."""
    by_label = {}
    for i, dt in enumerate(latencies):
        by_label.setdefault(ops[i % len(ops)].label, []).append(dt)
    return {label: (1000 * statistics.median(v), len(v)) for label, v in by_label.items()}


def layer_metrics(tracer, passes):
    """Per-pass counters of the traced passes: calls, self time, extras and
    the derived ratios."""
    out = {}
    n = len(passes)
    for name, (calls, total, self_s, extra) in tracer.stats.items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
        if name.startswith("checks."):
            out[f"{name}.s"] = total / n
        extra_name = tracer.extra_names.get(name)
        if extra_name == "items":
            out[f"{name}.items"] = extra / n
        elif extra_name is not None:
            out[f"{name}.{extra_name}_frac"] = extra / calls if calls else 0.0
    lt, leq = out.get("posets.Poset.lt.calls"), out.get("posets.Poset.leq.calls")
    made = out.get("posets.Poset.__init__.calls")
    if None not in (lt, leq, made):
        out["posets.leq_per_poset"] = (lt + leq) / made if made else 0.0
    out["trace.self_sum_s"] = sum(stat[2] for stat in tracer.stats.values()) / n
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=wl.SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # the inputs are the benchmark's own work, made before set-up starts;
        # CLI requests name their files relative to workdir
        warmup, ops = wl.build(args.workload, args.size, args.seed, workdir)
        if os.path.isdir(workdir):
            os.chdir(workdir)
        t_setup = time.perf_counter()
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from orderlab import checks, cli
        runner = Runner(checks, cli)
        for op in warmup:
            runner.run(op)
        result = {"setup_s": time.perf_counter() - t_setup}
        result["setup_ref_ms"] = 1000 * statistics.fmean(
            timed_reference() for _ in range(SETUP_PROBES))
        if not args.setup_only:
            result.update(measure(args, runner, ops))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures,
                  numpy=getattr(sys.modules.get("numpy"), "__version__", None))
    print(json.dumps(result))


def measure(args, runner, ops):
    """The timed passes; with tracing, untraced passes for half the time and
    traced passes for the other half."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    with Reference() as reference:
        passes, latencies, probes = timed_loop(runner, ops, seconds, reference)
    # A pass, and each operation in it, is divided by the mean probe time
    # during that pass.  The mean, not the median: a pass's duration is a sum
    # over its time, so a burst of contention slows it as much as it slows
    # the probes it hits.
    ref_s = statistics.fmean(reference.samples)
    scale = [statistics.fmean(p) if p else ref_s for p in probes]
    passes_ref = [t / r for t, r in zip(passes, scale)]
    latencies_ref = [t / scale[i // len(ops)] for i, t in enumerate(latencies)]
    # A CLI request is one cli.main call; on the suite workloads a request
    # is one pass over the workload's suites, which is what a caller of those
    # suites waits for (single suites differ too much for a percentile).
    if args.workload == "cli":
        requests, requests_ref = latencies, latencies_ref
    else:
        requests, requests_ref = passes, passes_ref
    out = {"wall_s": statistics.median(passes),
           "request_ms.p50": 1000 * nearest_rank(requests, 0.50),
           "request_ms.p99": 1000 * nearest_rank(requests, 0.99),
           "command_ms.p50": command_medians(ops, latencies),
           "ref_ms": 1000 * ref_s, "ref_samples": len(reference.samples),
           "wall_ref": statistics.median(passes_ref),
           "request_ref.p50": nearest_rank(requests_ref, 0.50),
           "request_ref.p99": nearest_rank(requests_ref, 0.99),
           "passes": len(passes), "requests": len(requests), "operations": len(latencies),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if not args.trace:
        return out
    tracer = tracing.Tracer()
    tracing.install(tracer)
    runner.stdout_bytes = 0
    traced, _, _ = timed_loop(runner, ops, seconds)
    layers = layer_metrics(tracer, traced)
    layers["cli.stdout_bytes"] = runner.stdout_bytes / len(traced)
    layers["trace.wall_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - out["wall_s"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "size": args.size, "traced_passes": len(traced),
                       "metrics": layers})
    out.update(layers=layers, notes=tracer.notes, trace_file=os.path.relpath(path, ROOT))
    return out


if __name__ == "__main__":
    main()
