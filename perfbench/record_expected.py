#!/usr/bin/env python3
"""Regenerate expected_cases.json: the case counts of the randomized suites
whose count depends on the seed, and the stdout digest of every CLI request
of the cli workload, for every seed the workloads use.

These values pin the generators' behaviour and the CLI's answers, so
regenerate only when a generator or an answer changes on purpose, after
checking that the new answers are right.

Run from the repository root:  python3 perfbench/record_expected.py
"""

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from orderlab import checks, cli  # noqa: E402

import workloads as wl  # noqa: E402
import worker  # noqa: E402


def cli_digests(size, s):
    """The pinned stdout digest of each request of one pass, in order."""
    workdir = os.path.join(worker.OUT_DIR, f"record-{os.getpid()}")
    requests = wl.cli_requests(size, s, workdir)
    os.chdir(workdir)
    try:
        digests = []
        for _, argv in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"seed {s}: {' '.join(argv)} exited {code}")
            digests.append(worker.stdout_digest(out.getvalue().encode()))
        return digests
    finally:
        os.chdir(worker.ROOT)
        shutil.rmtree(workdir)


def _dump(values):
    """One line per list, or per inner list of a list of lists."""
    if values and isinstance(values[0], list):
        return "[\n   " + ",\n   ".join(json.dumps(v) for v in values) + "\n  ]"
    return json.dumps(values)


def main():
    out = {}
    for size in wl.SIZES:
        table = {}
        for suite in wl.SEED_DEPENDENT:
            trials, offset = wl.RANDOM_SUITES[suite]
            fn = getattr(checks, "check_" + suite)
            table[suite] = [
                fn(trials=wl.random_trials(size, trials), seed=s + offset)["cases"]
                for s in range(wl.SEED_PERIOD)]
        # the random tail of the dense-entry suite, without its grid
        trials = wl.CALCULUS[size][3]
        table["dense_entries_trials"] = [
            checks.check_dense_entries(exhaustive_n=0, trials=trials, seed=s + 4)["cases"]
            for s in range(wl.SEED_PERIOD)]
        out[size] = table
    out["cli_stdout_sha256"] = {
        size: [cli_digests(size, s) for s in range(wl.SEED_PERIOD)] for size in wl.SIZES}
    with open(os.path.join(HERE, "expected_cases.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(
            f' "{key}": {{\n' + ",\n".join(
                f'  "{name}": {_dump(values)}'
                for name, values in sorted(table.items())) + "\n }"
            for key, table in out.items()) + "\n}\n")


if __name__ == "__main__":
    main()
