import importlib.util
from pathlib import Path

from orderlab import checks

ROOT = Path(__file__).resolve().parents[1]


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once_in_src():
    mutants = load_catalogue().MUTANTS
    assert mutants
    for m in mutants:
        text = (ROOT / "src" / m.file).read_text()
        assert text.count(m.old) == 1, (m.file, m.reason)
        assert m.new != m.old and m.selector.split(), m.reason


def test_every_mutant_names_a_suite_row_or_why_none():
    catalogue = load_catalogue()
    rows = {suite.__name__ for suite, _ in checks.SUITES}
    for m in catalogue.MUTANTS:
        if m.suite is None:
            assert m.reason.split(":")[0] in catalogue.UNSEEN, m.reason
        else:
            assert m.suite in rows, (m.suite, m.reason)
