"""Run each catalogued mutant against the one suite expected to see it.

    python3 tools/suite_matrix.py

For each entry of tools/mutants.py that names a suite, the script copies
src/ of the checkout into a fresh temporary directory, applies the mutant
there, and runs that suite alone at its defaults (its `small` arguments),
two mutants at a time, each with a 60 s timeout.  The suite kills the
mutant when it reports `ok: false`, reports cases off its pin in
`checks.SUITES`, or raises: each of these makes `check-all --budget small`
exit 1.  The script prints killed, survived or timed out per mutant (broken
when the copy cannot even import the suites) and a count of each; it
reports only, and always exits 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import MUTANTS  # noqa: E402

TIMEOUT_S = 60

# exit 0: the suite passed at its pin; 3: it raised; 4: it failed or missed
# its pin; any other status (an import that fails) is a broken run
RUN_SUITE = """
import sys
from orderlab import checks
suite, cases = next(row for row in checks.SUITES if row[0].__name__ == sys.argv[1])
try:
    result = suite()
except Exception as e:
    print(f"{type(e).__name__}: {e}"[:120])
    sys.exit(3)
print(f"ok={result['ok']} cases={result['cases']} pin={cases}")
sys.exit(0 if result["ok"] and result["cases"] == cases else 4)
"""


def run_suite(m):
    """(status, seconds, last output line) for one mutant and its suite."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="orderlab-matrix-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / m.file
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
        try:
            done = subprocess.run([sys.executable, "-c", RUN_SUITE, m.suite], cwd=tmp,
                                  env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - t0, ""
    status = {0: "survived", 3: "killed", 4: "killed"}.get(done.returncode, "broken")
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return status, time.perf_counter() - t0, " ".join(tail)


def main():
    named = [m for m in MUTANTS if m.suite]
    t0 = time.perf_counter()
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run_suite, named))
    for m, (status, secs, tail) in zip(named, results):
        print(f"{status:9s} {secs:5.1f}s {m.suite}: {m.reason} [{tail}]")
    counts = Counter(status for status, _, _ in results)
    print(", ".join(f"{n} {s}" for s, n in sorted(counts.items())),
          f"of {len(named)} in {time.perf_counter() - t0:.1f}s;",
          f"{len(MUTANTS) - len(named)} mutants name no suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
