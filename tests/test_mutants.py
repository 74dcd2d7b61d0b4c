import importlib.util
from pathlib import Path

import pytest

from orderlab import checks

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once_in_src():
    mutants = load_tool("mutants").MUTANTS
    assert mutants
    for m in mutants:
        text = (ROOT / "src" / m.file).read_text()
        assert text.count(m.old) == 1, (m.file, m.reason)
        assert m.new != m.old and m.selector.split(), m.reason


def test_every_mutant_names_a_suite_row_or_why_none():
    catalogue = load_tool("mutants")
    rows = {suite.__name__ for _, suite, _ in checks.SUITES}
    for m in catalogue.MUTANTS:
        if m.suite is None:
            assert m.reason.split(":")[0] in catalogue.UNSEEN, m.reason
        else:
            assert m.suite in rows, (m.suite, m.reason)


def test_a_mutant_that_outlives_the_timeout_is_timed_out_not_killed(monkeypatch):
    gate = load_tool("mutation_gate")
    monkeypatch.setattr(gate, "TIMEOUT_S", 1)
    # every import of the package sleeps, so neither run can finish
    hang = load_tool("mutants").Mutant(
        "orderlab/errors.py", "class OrderlabError(Exception):\n",
        "import time\ntime.sleep(60)\n\n\nclass OrderlabError(Exception):\n",
        "tests/test_posets.py", "a mutant that hangs", suite="check_tie_points")
    assert gate.occurrences(hang) == 1
    tests, suite, seconds, tails = gate.run_mutant(hang)
    assert (tests, suite) == ("TIMED OUT", "timed out")
    assert tails == ["no result in 1s"] * 2 and seconds < 30


def test_a_stale_entry_is_refused_before_any_copy(monkeypatch, capsys):
    gate = load_tool("mutation_gate")
    stale = gate.MUTANTS[0]._replace(old="a snippet that occurs nowhere")
    monkeypatch.setattr(gate, "MUTANTS", [stale, *gate.MUTANTS[1:]])
    monkeypatch.setattr(gate, "run_mutant", lambda m: pytest.fail("a mutant ran"))
    monkeypatch.setattr(gate.shutil, "copytree", lambda *a, **k: pytest.fail("a copy was made"))
    assert gate.main() == 2
    assert capsys.readouterr().out.startswith(f"stale: {stale.file}: snippet occurs 0 times")
