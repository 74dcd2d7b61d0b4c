import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_snippet_occurs_once_in_src():
    mutants = load_catalogue()
    assert mutants
    for m in mutants:
        text = (ROOT / "src" / m.file).read_text()
        assert text.count(m.old) == 1, (m.file, m.reason)
        assert m.new != m.old and m.selector.split(), m.reason
