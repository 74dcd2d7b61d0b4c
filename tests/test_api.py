"""The public API is written down once, in the README, and `orderlab`
exports exactly that list."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orderlab
from orderlab import _kernels, errors, fol, forcing, schema

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_api():
    """(module, name) pairs of the README's Public API list, in order."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [(item[1], name)
            for item in re.finditer(r"^- `orderlab\.(\w+)`:(.*(?:\n  .*)*)", section, re.M)
            for name in re.findall(r"`(\w+)`", item[2])]


def test_all_equals_the_readme_list():
    api = readme_api()
    assert orderlab.__all__ == [name for _, name in api]
    for module, name in api:
        assert getattr(orderlab, name) is getattr(
            importlib.import_module(f"orderlab.{module}"), name), name


# names that left src/ (moved into the tests or deleted), by the module
# they left
GONE = {
    "posets": ["OrderMap", "converse", "is_order_embedding"],
    "seqspace": ["salient_check"],
    "depletion": ["verify_walk"],
    "fol": ["format_formula", "linear_order_structure"],
    "redprod": ["threshold_rel_product"],
    "forcing": ["is_condition"],
}


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in GONE.items() for n in names])
def test_retired_names_are_gone(module, name):
    assert not hasattr(orderlab, name)
    assert not hasattr(importlib.import_module(f"orderlab.{module}"), name)


def readme_kinds():
    """The kinds of the README's Input schemas list, in order."""
    section = README.read_text().split("\n### Input schemas\n", 1)[1]
    listing = next(p for p in section.split("\n\n") if p.startswith("- "))
    return re.findall(r"^- ([a-z ]+): ", listing, re.M)


def test_readme_lists_the_schema_kinds():
    assert readme_kinds() == list(schema.KINDS)


@pytest.mark.parametrize("cls", ["Poset", "RelStructure", "DepletionInstance",
                                 "FiniteStructure", "FilterFamily", "SeqFun"])
def test_documents_are_decoded_by_the_schema_only(cls):
    assert not hasattr(getattr(orderlab, cls), "from_json_dict")
    assert hasattr(getattr(orderlab, cls), "to_json_dict")


def test_retired_methods_are_gone():
    assert not hasattr(errors, "ChainSpecError")
    assert not hasattr(orderlab.DepletionInstance, "domain")
    assert not hasattr(orderlab.Condition, "from_json_dict")
    assert not hasattr(orderlab.Clopen, "to_json_dict")
    assert not hasattr(orderlab.Clopen, "from_json_dict")


def test_benchmark_wrapped_oracles_stay_unexported():
    # perfbench/tracing.py wraps these by name, so they stay in src/
    for module, name in ((fol, "eval_qf"), (fol, "eval_pair"),
                         (_kernels, "salient_violations_bigint"),
                         (forcing, "extend_into_D"), (forcing, "extend_into_E")):
        assert callable(getattr(module, name))
        assert not hasattr(orderlab, name)


TRACE_METRICS = """
import json, sys
sys.path[:0] = sys.argv[1:]
from orderlab import checks, cli
import tracing, worker
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps({"notes": tracer.notes,
                  "metrics": sorted(worker.layer_metrics(tracer, [1.0]))}))
"""


def test_every_listed_benchmark_metric_is_traced():
    # the tracer skips a name that left src/ with a note and the run still
    # exits 0, so a listed per-layer metric would go missing unseen; read
    # the benchmark's files in a fresh interpreter, as its worker does
    done = subprocess.run(
        [sys.executable, "-c", TRACE_METRICS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True)
    traced = json.loads(done.stdout)
    assert traced["notes"] == []
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(traced["metrics"]) | {"cli.stdout_bytes", "trace.overhead_s"}
    assert sorted(listed - produced) == []
