"""Run every catalogued mutant against its tests and report killed/total.

    python3 tools/mutation_gate.py

For each entry of tools/mutants.py the gate copies src/, tests/ and
pyproject.toml of the checkout into a fresh temporary directory, applies the
mutant there, and runs ``python -m pytest -x -q <selector>`` in the copy,
two mutants at a time.
A mutant is killed when a selected test fails; a run that cannot collect or
start the tests counts as BROKEN, not as killed.  An entry whose snippet does not occur
exactly once in its file is refused: the gate reports it and exits 2.  The
exit status is 0 when every mutant is killed, 1 when some survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import MUTANTS  # noqa: E402


def occurrences(m, src=ROOT / "src"):
    return (src / m.file).read_text().count(m.old)


def run_mutant(m):
    """(killed, seconds, pytest output tail) for one mutant."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="orderlab-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / "src" / m.file
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *m.selector.split()],
            cwd=tmp, env=env, capture_output=True, text=True)
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    # exit 1: a test failed; any other non-zero status is a broken run
    status = {0: "SURVIVED", 1: "killed"}.get(done.returncode, "BROKEN")
    return status, time.perf_counter() - t0, tail


def main():
    stale = [m for m in MUTANTS if occurrences(m) != 1]
    for m in stale:
        print(f"stale: {m.file}: snippet occurs {occurrences(m)} times: {m.reason}")
    if stale:
        return 2
    t0 = time.perf_counter()
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    killed = 0
    for m, (status, secs, tail) in zip(MUTANTS, results):
        killed += status == "killed"
        print(f"{status:8s} {secs:6.1f}s {m.file}: {m.reason} [{' '.join(tail)}]")
    print(f"{killed}/{len(MUTANTS)} killed in {time.perf_counter() - t0:.1f}s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
