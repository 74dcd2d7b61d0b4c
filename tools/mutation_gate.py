"""Run every catalogued mutant against its tests and its suite.

    python3 tools/mutation_gate.py

For each entry of tools/mutants.py the gate copies src/, tests/ and
pyproject.toml of the checkout into a fresh temporary directory, applies the
mutant there once, and runs ``python -m pytest -x -q <selector>`` in the
copy.  When the entry names a suite, the gate then runs that one row of
`checks.SUITES` through `checks.run_all` in the same copy, so the suite
verdict is the one `check-all --budget small` prints for that suite.  Mutants
run two at a time, and each of the two runs gets TIMEOUT_S seconds.

The tests kill a mutant when a selected test fails; a run that cannot
collect or start the tests is BROKEN, and one that outlives the timeout is
TIMED OUT, neither of them killed.  The suite kills it when `run_all`
reports the row not ok: a failed verdict, a raise, or cases off the pin.
The gate prints both verdicts per mutant and a summary line.  An entry
whose snippet does not occur exactly once in its file is refused before
any copy is made: the gate reports it and exits 2.  Otherwise the exit
status is 0 when the tests kill every mutant and 1 when some survive; the
suite column only reports.
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

# exit 0: the row passed; 3: run_all reported it not ok; any other status
# (an import that fails, a row name that is not in SUITES) is a broken run
RUN_SUITE = """
import sys
from orderlab import checks
checks.SUITES = tuple(row for row in checks.SUITES if row[1].__name__ == sys.argv[1])
[(result, _)] = checks.run_all()
print(result.get("error") or f"ok={result['ok']} cases={result['cases']}")
sys.exit(0 if result["ok"] else 3)
"""


def occurrences(m, src=ROOT / "src"):
    return (src / m.file).read_text().count(m.old)


def run(argv, cwd):
    """(exit status, or None past the timeout; last output line) of argv
    run in the copy at cwd."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(cwd / "src"))
    try:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result in {TIMEOUT_S}s"
    return done.returncode, " ".join((done.stdout + done.stderr).strip().splitlines()[-1:])


def run_mutant(m):
    """(tests verdict, suite verdict or None, seconds, output tails) for one
    mutant."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="orderlab-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / "src" / m.file
        target.write_text(target.read_text().replace(m.old, m.new))
        code, tail = run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *m.selector.split()], tmp)
        # exit 1: a test failed; any other non-zero status is a broken run
        tests = {None: "TIMED OUT", 0: "SURVIVED", 1: "killed"}.get(code, "BROKEN")
        tails, suite = [tail], None
        if m.suite:
            code, tail = run([sys.executable, "-c", RUN_SUITE, m.suite], tmp)
            suite = {None: "timed out", 0: "survived", 3: "killed"}.get(code, "broken")
            tails.append(tail)
    return tests, suite, time.perf_counter() - t0, tails


def main():
    stale = [m for m in MUTANTS if occurrences(m) != 1]
    for m in stale:
        print(f"stale: {m.file}: snippet occurs {occurrences(m)} times: {m.reason}")
    if stale:
        return 2
    t0 = time.perf_counter()
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    for m, (tests, suite, secs, tails) in zip(MUTANTS, results):
        print(f"{tests:9s} {suite or '-':9s} {secs:5.1f}s {m.file}: {m.reason} "
              f"[{' | '.join(tails)}]")
    killed = sum(tests == "killed" for tests, _, _, _ in results)
    suites = Counter(suite for _, suite, _, _ in results if suite)
    print(f"tests: {killed}/{len(MUTANTS)} killed; suites:",
          ", ".join(f"{n} {s}" for s, n in sorted(suites.items())),
          f"of {sum(suites.values())} ({len(MUTANTS) - sum(suites.values())} name no suite);",
          f"in {time.perf_counter() - t0:.1f}s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
