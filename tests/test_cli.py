import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import checks, cli, errors, posets, schema
from orderlab.cli import main
from orderlab.fol import FiniteStructure
from orderlab.redprod import FilterFamily
from orderlab.tiepoint import Clopen, parse_point

from oracles import linear_order_structure


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phi_command_and_round_trip(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"bounds": [1, 1, 2, 3], "vals": [0, 0, 1, 2]})
    code, out, err = run_cli(capsys, ["phi", "--in", f])
    assert code == 0
    rep = json.loads(out)
    assert rep["phi"]["vals"] == [0, 0, 0, 2, 14]
    assert rep["ok"] and "pass" in err
    # parse -> serialize -> parse is the identity on the input payload
    assert json.loads(json.dumps(rep)) == rep


def test_phi_strict_certificate(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"bounds": [1, 1, 2, 3], "vals": [0, 0, 0, 0]})
    g = write(tmp_path, "g.json", {"bounds": [1, 1, 2, 3], "vals": [0, 0, 1, 2]})
    code, out, _ = run_cli(capsys, ["phi", "--in", f, "--g", g, "--m", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"]["first_strict"] == 2
    assert rep["certificate"]["strict_from"] == 3


def test_phi_non_integer_bound_or_value_exits_two(tmp_path, capsys):
    for payload, named in (({"bounds": ["a", 1], "vals": [0, 0]}, "'a' at coordinate 0"),
                           ({"bounds": [1, 1], "vals": [0, "x"]}, "'x' at coordinate 1")):
        f = write(tmp_path, "f.json", payload)
        for argv in (["phi", "--in", f], ["phi", "--in", f, "--g", f]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2 and out == ""
            assert "ProfileError" in err and named in err
            assert "Traceback" not in err


def test_determinism_byte_identical(tmp_path, capsys):
    e = write(tmp_path, "E.json", {"elements": [0, 1, 2], "edges": [[0, 1]]})
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["forcing", "generic", "--poset", e,
                                        "--depth", "4"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out_seeded, _ = run_cli(capsys, ["forcing", "generic", "--poset", e,
                                           "--depth", "4", "--seed", "7"])
    assert code == 0
    code, out_seeded2, _ = run_cli(capsys, ["forcing", "generic", "--poset", e,
                                            "--depth", "4", "--seed", "7"])
    assert out_seeded == out_seeded2


def test_forcing_subcommands_reach_their_builds(tmp_path, capsys):
    e = write(tmp_path, "E.json", {"elements": [0, 1, 2], "edges": [[0, 1]]})
    for name, field in (("generic", "Y"), ("pipeline", "positions")):
        code, out, _ = run_cli(capsys, ["forcing", name, "--poset", e,
                                        "--depth", "3"])
        rep = json.loads(out)
        assert code == 0 and rep["command"] == ["forcing", name]
        assert field in rep and rep["checks"][0]["ok"]


def run_pipeline(tmp_path, capsys, chains=None):
    """forcing pipeline on the 2-element chain at depth 1 (width 6)."""
    e = write(tmp_path, "E.json", {"elements": [0, 1], "edges": [[0, 1]]})
    argv = ["forcing", "pipeline", "--poset", e, "--depth", "1"]
    if chains is not None:
        argv += ["--chains", write(tmp_path, "chains.json", chains)]
    return run_cli(capsys, argv)


def linear_chain_factors(lengths):
    return {"kind": "explicit", "factors": [
        {"structure": linear_order_structure(n).to_json_dict(),
         "formula": "(R x0 y0)", "chain": [[i] for i in range(n)]}
        for n in lengths]}


def test_forcing_pipeline_eta_chains_match_the_default(tmp_path, capsys):
    code, out, _ = run_pipeline(tmp_path, capsys)
    assert code == 0
    implicit = json.loads(out)
    code, out, _ = run_pipeline(tmp_path, capsys, {"kind": "eta"})
    assert code == 0
    eta_chains = json.loads(out)
    assert len(eta_chains.pop("inputs")) == 2 and len(implicit.pop("inputs")) == 1
    assert eta_chains == implicit


def test_forcing_pipeline_explicit_chains_match_the_default(tmp_path, capsys):
    code, out, _ = run_pipeline(tmp_path, capsys)
    assert code == 0
    implicit = json.loads(out)
    assert implicit["width"] == 6
    # linear orders of exactly the lengths eta(j) = j!
    code, out, _ = run_pipeline(tmp_path, capsys,
                                linear_chain_factors([1, 1, 2, 6, 24, 120]))
    assert code == 0
    rep = json.loads(out)
    for key in ("ok", "width", "positions", "pairs"):
        assert rep[key] == implicit[key]


def test_forcing_pipeline_short_chain_factor_exits_two(tmp_path, capsys):
    code, out, err = run_pipeline(tmp_path, capsys,
                                  linear_chain_factors([1, 1, 2, 6, 24, 119]))
    assert code == 2 and out == ""
    assert "ChainTooShortError" in err and "Traceback" not in err


def test_forcing_pipeline_bad_formula_on_one_element_chain_exits_two(tmp_path, capsys):
    chains = linear_chain_factors([1, 1, 2, 6, 24, 120])
    chains["factors"][0]["formula"] = "(Q x0 y0)"
    code, out, err = run_pipeline(tmp_path, capsys, chains)
    assert code == 2 and out == ""
    assert "FormulaError" in err and "Traceback" not in err


def test_forcing_pipeline_malformed_chain_factors_exit_two(tmp_path, capsys):
    bad_chain = linear_chain_factors([1, 1, 2, 6, 24, 120])
    bad_chain["factors"][2]["chain"] = [0]
    for chains, named in (
            (bad_chain, "chain factors: $.factors[2].chain[0]: not a JSON array (got int)"),
            ({"kind": "eat"}, "chain factors: $: kind 'eat' is neither"),
            ({"kind": "explicit"}, "chain factors: $: kind 'explicit' is neither")):
        code, out, err = run_pipeline(tmp_path, capsys, chains)
        assert code == 2 and out == ""
        assert f"InputError: {named}" in err
        assert "Traceback" not in err


def test_depletion_non_integer_labels_exit_two(tmp_path, capsys):
    for label in (1.5, True):
        inst = write(tmp_path, "inst.json",
                     {"I": [0, label], "A": [], "F": {"0": [0], "1": [1]},
                      "edges": []})
        code, out, err = run_cli(capsys, ["depletion", "--in", inst, "--s", "0,1"])
        assert code == 2 and out == ""
        assert "DomainError" in err and repr(label) in err
        assert "Traceback" not in err


def test_product_non_integer_filter_ground_exits_two(tmp_path, capsys):
    factors = [{"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": []}}}] * 2
    for filt in ({"ground": 2.7, "core": [0]},
                 {"ground": 2.5, "members": [[0, 1], [0]]}):
        task = write(tmp_path, "task.json", {"factors": factors, "filter": filt})
        code, out, err = run_cli(capsys, ["product", "--in", task])
        assert code == 2 and out == ""
        assert "FilterError" in err and repr(filt["ground"]) in err
        assert "Traceback" not in err


def not_a_tuple_request(tmp_path, command):
    """A chains, product or forcing pipeline request whose one structure
    has the relation item 0 where a tuple belongs."""
    structure = {"universe": [0, 1], "relations": {"R": {"arity": 1, "tuples": [0]}}}
    if command == "chains":
        return ["chains", "--in", write(tmp_path, "c.json", {
            "structure": structure, "formula": "(R x0)"})]
    if command == "product":
        return ["product", "--in", write(tmp_path, "p.json", {
            "factors": [structure] * 2, "filter": {"ground": 2, "core": [0]}})]
    chains = linear_chain_factors([1, 1, 2, 6, 24, 120])
    chains["factors"][1]["structure"] = structure
    e = write(tmp_path, "E.json", {"elements": [0, 1], "edges": [[0, 1]]})
    return ["forcing", "pipeline", "--poset", e, "--depth", "1",
            "--chains", write(tmp_path, "chains.json", chains)]


NOT_A_TUPLE_PATHS = {
    "chains": "chains request: $.structure.relations.R.tuples[0]",
    "product": "product request: $.factors[0].relations.R.tuples[0]",
    "pipeline": "chain factors: $.factors[1].structure.relations.R.tuples[0]",
}


@pytest.mark.parametrize("command", ["chains", "product", "pipeline"])
def test_relation_item_that_is_not_a_tuple_exits_two(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, not_a_tuple_request(tmp_path, command))
    assert code == 2 and out == ""
    named = NOT_A_TUPLE_PATHS[command]
    assert f"InputError: {named}: not a JSON array (got int)" in err
    assert "Traceback" not in err


def malformed_request(tmp_path, case):
    """A request whose document breaks its schema in one named way."""
    array = write(tmp_path, "array.json", [1, 2])
    structure = {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": [[0, 1]]}}}
    return {
        "phi-array": ["phi", "--in", array],
        "generic-array": ["forcing", "generic", "--poset", array, "--depth", "1"],
        "depletion-array": ["depletion", "--in", array, "--s", "0,1"],
        "depletion-core": ["depletion", "--in", write(tmp_path, "d.json", {
            "I": [0, 1], "A": 5, "F": {"0": [0], "1": [1]}, "edges": []}),
            "--s", "0,1"],
        "chains-formula": ["chains", "--in", write(tmp_path, "c.json", {
            "structure": structure, "formula": 5})],
        "product-vector": ["product", "--in", write(tmp_path, "p.json", {
            "factors": [structure] * 2, "filter": {"ground": 2, "core": [0]},
            "literals": [{"formula": "(R x y)", "vectors": [0]}]})],
        "product-outside": ["product", "--in", write(tmp_path, "o.json", {
            "factors": [structure], "filter": {"ground": 1, "core": [0]},
            "literals": [{"formula": "(R x y)", "vectors": [[0], [7]]}]})],
        "product-label": ["product", "--in", write(tmp_path, "l.json", {
            "factors": [structure], "filter": {"ground": 1, "core": [0]},
            "literals": [{"formula": "(R x y)", "vectors": [[0], ["a"]]}]})],
    }[case]


@pytest.mark.parametrize("case, error, named", [
    ("phi-array", "InputError", "not a JSON object"),
    ("generic-array", "InputError", "not a JSON object"),
    ("depletion-array", "InputError", "not a JSON object"),
    ("depletion-core", "InputError", "depletion instance: $.A: not a JSON array (got int)"),
    ("chains-formula", "InputError", "chains request: $.formula: not a JSON string (got int)"),
    ("product-vector", "InputError",
     "product request: $.literals[0].vectors[0]: not a JSON array (got int)"),
    ("product-outside", "DomainError", "vector [7] is not in the product"),
    ("product-label", "DomainError", "vector ['a'] is not in the product"),
])
def test_malformed_documents_exit_two(tmp_path, capsys, case, error, named):
    code, out, err = run_cli(capsys, malformed_request(tmp_path, case))
    assert code == 2 and out == ""
    assert f"{error}: " in err and named in err
    assert "Traceback" not in err


# valid documents of every kind a subcommand reads; each case of the fault
# table below breaks one of them in one place
STRUCTURE = {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": [[0, 1]]}}}
VALID = {
    "sequence": {"bounds": [1, 1, 2], "vals": [0, 0, 1]},
    "poset": {"elements": [0, 1], "edges": [[0, 1]]},
    "depletion instance": {"I": [0, 1], "A": [], "F": {"0": [0], "1": [1]},
                           "edges": [[0, 1]]},
    "relation structure": {"universe": [0, 1, 2], "pairs": [[0, 1], [2, 1]]},
    "product request": {"factors": [STRUCTURE] * 2,
                        "filter": {"ground": 2, "core": [0]},
                        "literals": [{"formula": "(R x y)", "vectors": [[0, 0], [1, 1]]}]},
    "chains request": {"structure": STRUCTURE, "formula": "(R x0 y0)"},
    "chain factors": {"kind": "explicit", "factors": [
        {"structure": STRUCTURE, "formula": "(R x0 y0)", "chain": [[0]]}]},
}


def request(tmp_path, kind, doc):
    """argv of the first subcommand that reads a document of the kind."""
    path = write(tmp_path, "doc.json", doc)
    poset = write(tmp_path, "E.json", {"elements": [0], "edges": []})
    return {
        "sequence": ["phi", "--in", path],
        "poset": ["forcing", "generic", "--poset", path, "--depth", "1"],
        "depletion instance": ["depletion", "--in", path, "--s", "0,1"],
        "relation structure": ["universal-embed", "--in", path],
        "product request": ["product", "--in", path],
        "chains request": ["chains", "--in", path],
        "chain factors": ["forcing", "pipeline", "--poset", poset, "--depth", "0",
                          "--chains", path],
    }[kind]


DELETE = object()


def broken(kind, path, value):
    """The valid document of the kind with the node at path set to value,
    or its key deleted for DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(VALID[kind]))
    node = doc
    for step in path[:-1]:
        node = node[step]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def fault(kind, *path, value=5):
    """The request reading the valid document of the kind with the node at
    path set to value."""
    return lambda tmp_path: request(tmp_path, kind, broken(kind, path, value))


def labels(command):
    """The command on a valid instance with --s a,b."""
    extra = ["--x", "0", "--y", "1"] if command == "walk" else []
    return lambda tmp_path: [command, "--in", write(tmp_path, "i.json", VALID[
        "depletion instance"]), "--s", "a,b"] + extra


def raw(kind, data):
    """The request reading the bytes data as its document of the kind."""
    def argv(tmp_path):
        args = request(tmp_path, kind, None)
        (tmp_path / "doc.json").write_bytes(data)
        return args
    return argv


# inputs that printed a traceback (the 16 shape faults), or exited 2 only as
# a bare KeyError or ValueError, before the schema layer
BAD_INPUTS = {
    "phi-bounds": (fault("sequence", "bounds"),
                   "InputError: sequence: $.bounds: not a JSON array (got int)"),
    "phi-vals": (fault("sequence", "vals"),
                 "InputError: sequence: $.vals: not a JSON array (got int)"),
    "generic-edges": (fault("poset", "edges"),
                      "InputError: poset: $.edges: not a JSON array (got int)"),
    "product-vectors": (fault("product request", "literals", 0, "vectors"),
                        "InputError: product request: $.literals[0].vectors: "
                        "not a JSON array (got int)"),
    "product-literal": (fault("product request", "literals", 0),
                        "InputError: product request: $.literals[0]: not a JSON object (got int)"),
    "product-factors": (fault("product request", "factors"),
                        "InputError: product request: $.factors: not a JSON array (got int)"),
    "product-filter": (fault("product request", "filter"),
                       "InputError: product request: $.filter: not a JSON object (got int)"),
    "product-members": (fault("product request", "filter", "members"),
                        "InputError: product request: $.filter.members: "
                        "not a JSON array (got int)"),
    "product-core": (fault("product request", "filter", "core"),
                     "InputError: product request: $.filter.core: not a JSON array (got int)"),
    "chains-structure": (fault("chains request", "structure"),
                         "InputError: chains request: $.structure: not a JSON object (got int)"),
    "chains-relations": (fault("chains request", "structure", "relations"),
                         "InputError: chains request: $.structure.relations: "
                         "not a JSON object (got int)"),
    "chains-R": (fault("chains request", "structure", "relations", "R"),
                 "InputError: chains request: $.structure.relations.R: "
                 "not a JSON object (got int)"),
    "chains-tuples": (fault("chains request", "structure", "relations", "R", "tuples"),
                      "InputError: chains request: $.structure.relations.R.tuples: "
                      "not a JSON array (got int)"),
    "embed-pairs": (fault("relation structure", "pairs"),
                    "InputError: relation structure: $.pairs: not a JSON array (got int)"),
    "depletion-F": (fault("depletion instance", "F"),
                    "InputError: depletion instance: $.F: not a JSON object (got int)"),
    "pipeline-structure": (fault("chain factors", "factors", 0, "structure"),
                           "InputError: chain factors: $.factors[0].structure: "
                           "not a JSON object (got int)"),
    "phi-no-bounds": (fault("sequence", "bounds", value=DELETE),
                      "InputError: sequence: $: missing key 'bounds'"),
    "depletion-fiber-key": (fault("depletion instance", "F", value={"x": [0], "1": [1]}),
                            "InputError: depletion instance: $.F: key 'x' is not an integer"),
    "depletion-labels": (labels("depletion"), "InputError: --s 'a,b'"),
    "walk-labels": (labels("walk"), "InputError: --s 'a,b'"),
    "not-utf-8": (raw("sequence", b'{"bounds": [1], "vals": [0], "note": "\xe9"}'),
                  "InputError: "),
    # JSON nested past the decoder's recursion limit
    "json-too-deep": (raw("poset", b'{"elements": [0, 1], "edges": ' + b"[" * 3000
                          + b"]" * 3000 + b"}"), "InputError: "),
    # float and boolean ids, which exited 0 as the ints they equal
    "product-float-ids": (fault("product request", "literals", 0, "vectors",
                                value=[[0.0, False], [True, 1]]),
                          "DomainError: vector [0.0, False] is not in the product"),
    "filter-float-ids": (fault("product request", "filter",
                               value={"ground": 2, "members": [[0, True], [0.0]]}),
                         "FilterError: filter id True is not an integer"),
    "poset-bool-edge": (fault("poset", "edges", value=[[True, 1]]),
                        "DomainError: pair [True, 1] has an id that is not an integer"),
    "structure-float-pair": (fault("relation structure", "pairs", value=[[0, 1.0]]),
                             "DomainError: pair [0, 1.0] has an id that is not an integer"),
    "depletion-bool-edge": (fault("depletion instance", "edges", value=[[False, 1]]),
                            "DomainError: pair [False, 1] has an id that is not an integer"),
    # formulas that read past their last token, or nest past the parser's bound
    **{f"formula-open-{i}": (fault("chains request", "formula", value=text),
                             "FormulaError: unexpected end of formula")
       for i, text in enumerate(["(", "(R x0 (", "(and (R x0 y0) ("])},
    "formula-too-deep": (fault("chains request", "formula",
                               value="(not " * 1199 + "(R x0 y0)" + ")" * 1199),
                         "FormulaError: formula nested deeper than 200"),
    # keys that contradict each other, where one of them was silently ignored
    "filter-members-and-core": (fault("product request", "filter", value={
        "ground": 2, "members": [[0, 1]], "core": [0]}),
        'InputError: product request: $.filter: a filter takes "members" or "core", not both'),
    "eta-with-factors": (fault("chain factors", "kind", value="eta"),
                         'InputError: chain factors: $: kind "eta" takes no "factors"'),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_two_with_a_named_error(tmp_path, capsys, case):
    argv, named = BAD_INPUTS[case]
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert code == 2 and out == ""
    assert f"error: {named}" in err and "Traceback" not in err
    # the decode faults name the document's path before the fault
    assert {"not-utf-8": "not UTF-8",
            "json-too-deep": "not a JSON document (maximum recursion"}.get(case, "") in err


@pytest.mark.parametrize("argv, reason", [
    (fault("poset", "edges", value=[list(range(5000))]), "is not a pair of elements"),
    (fault("product request", "literals", 0, "vectors", value=[list(range(4000)), [0, 0]]),
     "is not in the product"),
], ids=["generic-edge", "product-vector"])
def test_an_error_line_quotes_a_long_item_briefly(tmp_path, capsys, argv, reason):
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert code == 2 and out == "" and "Traceback" not in err
    [line] = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(line.encode()) <= 300 and line.endswith(reason), line[:400]


LONG = list(range(5000))


@pytest.mark.parametrize("call, reason", [
    (lambda: posets.int_ids([LONG]), "is not an integer"),
    (lambda: posets.load_pairs([0, 1], [[0, 1], LONG]), "is not a pair of elements"),
    (lambda: posets.load_pairs([0, 1], [[0, 2 + 10 ** 4000]]), "mentions unknown elements"),
    (lambda: FiniteStructure([0, 1], {"R": (2, [LONG])}), "has wrong arity for 'R'"),
    (lambda: FiniteStructure([0, 1], {"R" * 5000: (2, [[0]])}), "has wrong arity for 'RRRRR"),
    (lambda: FilterFamily.principal(2, 10 ** 4000), "is not a set of ids"),
    (lambda: FilterFamily("g" * 5000, []), "is not an integer"),
    (lambda: Clopen.from_strings(["0" * 5000 + "2"]), "not a binary word: " + "'0" + "0" * 16),
    (lambda: parse_point("0" * 5000 + "2^omega"), "not a binary word"),
    (lambda: schema.load("depletion instance", dict(
        VALID["depletion instance"], F={"x" * 5000: [0]})), "is not an integer"),
    (lambda: schema.load("poset", dict(VALID["poset"], **{"y" * 5000: 0})), "'"),
    (lambda: schema.load("chain factors", {"kind": "z" * 5000}),
     'is neither "eta" nor "explicit" with factors'),
], ids=["int-ids", "pair", "pair-ids", "tuple", "relation-name", "id-set", "ground",
        "word", "point", "key", "unknown-key", "kind"])
def test_an_error_message_quotes_a_long_item_briefly(call, reason):
    with pytest.raises(errors.OrderlabError) as e:
        call()
    message = str(e.value)
    assert len(message) <= errors.BRIEF_LEN + 80 and reason in message, message[:400]


def test_brief_is_repr_for_a_short_item_and_bounded_for_any():
    for item in ([True, 1], (0, 1.0), "a,b", "", 5, None, {"a": [0]}, [[0, 1], [2]]):
        assert errors.brief(item) == repr(item)
    deep = []
    for _ in range(900):
        deep = [deep]
    for item in (deep, "x" * 5000, [[list(range(9))] * 9] * 9, 10 ** 4000, [0, 10 ** 5000],
                 {i: i for i in LONG}):
        assert len(errors.brief(item)) <= errors.BRIEF_LEN


def test_a_misspelt_key_is_refused_not_skipped(tmp_path, capsys):
    # with "literal" skipped, the failing literal below would never be
    # checked and product would exit 0
    factors = [STRUCTURE, {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": []}}}]
    literal = [{"formula": "(not (R x y))", "vectors": [[0, 0], [1, 1]]}]
    product = {"factors": factors, "filter": {"ground": 2, "core": [0, 1]}}
    code, _, _ = run_cli(capsys, request(tmp_path, "product request",
                                         dict(product, literals=literal)))
    assert code == 1
    for kind, doc, named in (
            ("product request", dict(product, literal=literal), "$: unknown key 'literal'"),
            ("chains request", broken("chains request", ("structure", "relation"), {}),
             "$.structure: unknown key 'relation'")):
        code, out, err = run_cli(capsys, request(tmp_path, kind, doc))
        assert code == 2 and out == ""
        assert f"error: InputError: {kind}: {named}" in err and "Traceback" not in err


def test_star_needs_both_labels_or_neither(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", VALID["depletion instance"])
    for flags in (["--xi", "0"], ["--eta", "1"]):
        code, out, err = run_cli(capsys, ["star", "--in", inst] + flags)
        assert code == 2 and out == ""
        assert "error: InputError: --xi and --eta" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, ["star", "--in", inst, "--xi", "0", "--eta", "1"])
    assert code == 0 and len(json.loads(out)["pairs"]) == 1


def test_a_library_bug_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    def bug(*args, **kwargs):
        raise KeyError("bounds")

    monkeypatch.setattr(cli, "phi", bug)
    f = write(tmp_path, "f.json", VALID["sequence"])
    with pytest.raises(KeyError):
        main(["phi", "--in", f])


ERROR_NAMES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.OrderlabError)}
# one value of each JSON type; a replacement takes one of another type
JSON_VALUES = [0, 7, -1, 1.5, "a", "", True, None, [], [0], [[0]], {}, {"a": 0}]


def nodes(doc, path=()):
    """The path of every node of the document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for step, value in items:
        yield from nodes(value, path + (step,))


def fuzz_argvs(tmp_path, kind, doc):
    """argv of every subcommand that reads a document of the kind, reading
    doc for it and the valid documents for the others."""
    put = {k: write(tmp_path, k.replace(" ", "-") + ".json", doc if k == kind else v)
           for k, v in VALID.items()}
    inst, seq, poset = put["depletion instance"], put["sequence"], put["poset"]
    good_seq = write(tmp_path, "good.json", VALID["sequence"])
    argvs = [["depletion", "--in", inst, "--s", "0,1"],
             ["walk", "--in", inst, "--s", "0,1", "--x", "0", "--y", "1"],
             ["star", "--in", inst],
             ["phi", "--in", seq, "--g", good_seq],
             ["phi", "--in", good_seq, "--g", seq],
             ["universal-embed", "--in", put["relation structure"]],
             ["product", "--in", put["product request"]],
             ["chains", "--in", put["chains request"]],
             ["forcing", "generic", "--poset", poset, "--depth", "1"],
             ["forcing", "pipeline", "--poset", poset, "--depth", "0",
              "--chains", put["chain factors"]]]
    return [argv for argv in argvs if put[kind] in argv]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_fuzzed_documents_never_escape_main(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(VALID)))
    path = data.draw(st.sampled_from(list(nodes(VALID[kind]))))
    old = VALID[kind]
    for step in path:
        old = old[step]
    choices = [v for v in JSON_VALUES if type(v) is not type(old)]
    if path and isinstance(path[-1], str):
        choices.append(DELETE)
    doc = broken(kind, path, data.draw(st.sampled_from(choices)))
    for argv in fuzz_argvs(tmp_path_factory.mktemp("fuzz"), kind, doc):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            name = err.getvalue().split("error: ", 1)[1].split(":", 1)[0]
            assert name in ERROR_NAMES, (argv, err.getvalue())


def test_negative_build_depth_exits_two(tmp_path, capsys):
    e = write(tmp_path, "E.json", {"elements": [0, 1], "edges": [[0, 1]]})
    for name in ("generic", "pipeline"):
        code, out, err = run_cli(capsys, ["forcing", name, "--poset", e,
                                          "--depth", "-1"])
        assert code == 2 and out == ""
        assert "DepthError" in err and "depth -1" in err
        assert "Traceback" not in err


def test_generic_build_depth_past_the_cell_limit_exits_two(tmp_path, capsys, monkeypatch):
    # a 2-element chain counts 4 per level: 2 domain requests, 1 witness
    # request and the position profile's coordinate; the empty order counts
    # the profile's coordinate alone
    chain = write(tmp_path, "E.json", {"elements": [0, 1], "edges": [[0, 1]]})
    empty = write(tmp_path, "O.json", {"elements": [], "edges": []})
    for poset in (chain, empty):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["forcing", "generic", "--poset", poset,
                                          "--depth", "1000000000"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert "DepthError: depth 1000000000" in err and "Traceback" not in err
    monkeypatch.setattr(cli, "_MAX_GENERIC_CELLS", 40)
    for seed in ([], ["--seed", "3"]):
        code, out, _ = run_cli(capsys, ["forcing", "generic", "--poset", chain,
                                        "--depth", "9", *seed])
        assert code == 0 and json.loads(out)["depth"] >= 9
        code, out, err = run_cli(capsys, ["forcing", "generic", "--poset", chain,
                                          "--depth", "10", *seed])
        assert code == 2 and out == "" and "DepthError" in err


def test_an_integer_past_the_digit_limit_in_a_document_exits_two(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer literal of more than sys.get_int_max_str_digits() digits
    f = tmp_path / "f.json"
    f.write_text('{"bounds": [' + "9" * 5000 + '], "vals": [0]}')
    code, out, err = run_cli(capsys, ["phi", "--in", str(f)])
    assert code == 2 and out == ""
    assert f"error: InputError: {f}: not a JSON document" in err
    assert "Traceback" not in err


def test_walk_and_depletion_commands(tmp_path, capsys):
    inst = write(tmp_path, "inst.json",
                 {"I": [0, 1, 2], "A": [], "F": {"0": [0], "1": [1], "2": [2]},
                  "edges": [[0, 2]]})
    code, out, _ = run_cli(capsys, ["walk", "--in", inst, "--s", "0,2",
                                    "--x", "0", "--y", "2"])
    assert code == 0
    assert json.loads(out)["walk"]["steps"] == {"0": 0, "2": 2}
    code, out, _ = run_cli(capsys, ["walk", "--in", inst, "--s", "0,1,2",
                                    "--x", "0", "--y", "2"])
    assert code == 0  # "no walk" is an answer, not a failure
    rep = json.loads(out)
    assert rep["walk"] is None and rep["frontier"][0] == [0]
    code, out, _ = run_cli(capsys, ["depletion", "--in", inst, "--s", "0,2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["matrix"][0][1] is True
    code, out, _ = run_cli(capsys, ["star", "--in", inst])
    assert code == 0
    assert json.loads(out)["maximal_star_set"] == [0, 1, 2]


def test_universal_embed_command(tmp_path, capsys):
    s = write(tmp_path, "s.json", {"universe": [0, 1, 2],
                                   "pairs": [[0, 1], [2, 1]]})
    code, out, _ = run_cli(capsys, ["universal-embed", "--in", s])
    assert code == 0
    assert json.loads(out)["images"] == [0, 4, 405]


def test_malformed_pairs_exit_two_with_a_named_error(tmp_path, capsys):
    for bad in ([0], [0, 1, 2]):
        s = write(tmp_path, "s.json", {"universe": [0, 1, 2], "pairs": [bad]})
        e = write(tmp_path, "E.json", {"elements": [0, 1, 2], "edges": [bad]})
        for argv in (["universal-embed", "--in", s],
                     ["forcing", "generic", "--poset", e, "--depth", "2"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2 and out == ""
            assert "DomainError" in err and repr(bad) in err


def test_non_integer_ids_exit_two_with_a_named_error(tmp_path, capsys):
    for ids in ([0, "a"], [0, True, 2.5]):
        s = write(tmp_path, "s.json", {"universe": ids, "pairs": []})
        c = write(tmp_path, "c.json", {
            "structure": {"universe": ids,
                          "relations": {"R": {"arity": 2, "tuples": []}}},
            "formula": "(R x0 y0)"})
        e = write(tmp_path, "E.json", {"elements": ids, "edges": []})
        inst = write(tmp_path, "inst.json",
                     {"I": [0, 1], "A": [], "F": {"0": ids[:1], "1": ids[1:]},
                      "edges": []})
        for argv in (["universal-embed", "--in", s], ["chains", "--in", c],
                     ["forcing", "generic", "--poset", e, "--depth", "2"],
                     ["depletion", "--in", inst, "--s", "0,1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2 and out == ""
            assert "DomainError" in err and "Traceback" not in err


def test_product_command_pass_and_fail(tmp_path, capsys):
    factors = [
        {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": [[0, 1]]}}},
        {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": []}}},
        {"universe": [0, 1], "relations": {"R": {"arity": 2, "tuples": []}}},
    ]
    good = write(tmp_path, "good.json", {
        "factors": factors, "filter": {"ground": 3, "core": [0, 1]},
        "literals": [{"formula": "(R x y)", "vectors": [[0, 0, 0], [1, 1, 1]]}]})
    code, out, _ = run_cli(capsys, ["product", "--in", good])
    assert code == 0
    bad = write(tmp_path, "bad.json", {
        "factors": factors, "filter": {"ground": 3, "core": [0, 1]},
        "literals": [{"formula": "(not (R x y))",
                      "vectors": [[0, 0, 0], [1, 1, 1]]}]})
    code, out, _ = run_cli(capsys, ["product", "--in", bad])
    assert code == 1  # a failed double-check is a failed verdict


def test_tiepoint_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["tiepoint", "--point", "01^omega",
                                    "--depth", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["probe_violations"] == 0
    assert rep["below"][1] == ["00"]


def test_chains_command(tmp_path, capsys):
    task = write(tmp_path, "chains.json", {
        "structure": {"universe": [0, 1, 2],
                      "relations": {"R": {"arity": 2,
                                          "tuples": [[0, 1], [1, 2], [0, 2]]}}},
        "formula": "(R x0 y0)"})
    code, out, _ = run_cli(capsys, ["chains", "--in", task])
    assert code == 0
    assert json.loads(out)["length"] == 3



def test_product_counts_come_from_the_factor_sizes(tmp_path, capsys):
    def factor(m):
        return {"universe": list(range(m)),
                "relations": {"R": {"arity": 2, "tuples": [[0, m - 1]] if m else []}}}
    for sizes, core, classes, vectors in (((2, 3, 1), [1], 3, 6),
                                          ((2, 3, 4), [0, 2], 8, 24),
                                          ((3, 0, 2), [0], 0, 0),
                                          ((3, 0, 2), [1], 0, 0),
                                          ((1, 1), [0, 1], 1, 1)):
        task = write(tmp_path, "p.json", {
            "factors": [factor(m) for m in sizes],
            "filter": {"ground": len(sizes), "core": core}})
        code, out, _ = run_cli(capsys, ["product", "--in", task])
        body = json.loads(out)
        assert code == 0 and (body["classes"], body["vectors"]) == (classes, vectors)


def test_chains_command_on_a_relation_that_is_not_transitive(tmp_path, capsys):
    # the exhaustive branch: a 3-cycle among 0, 1, 2 under a chain 3 < 4 < 5
    # that sits above all three, and 6 unrelated
    r = [[0, 1], [1, 2], [2, 0]] + [[a, b] for a in range(6) for b in range(3, 6)
                                    if a < b]
    task = write(tmp_path, "chains.json", {
        "structure": {"universe": list(range(7)),
                      "relations": {"R": {"arity": 2, "tuples": r}}},
        "formula": "(R x0 y0)"})
    code, out, _ = run_cli(capsys, ["chains", "--in", task])
    rel = {tuple(t) for t in r}
    brute = max(len(seq) for k in range(1, 8) for seq in itertools.permutations(range(7), k)
                if all((a, b) in rel and (b, a) not in rel
                       for i, a in enumerate(seq) for b in seq[i + 1:]))
    body = json.loads(out)
    assert code == 0 and body["length"] == brute == 5
    assert [tuple(t) for t in body["chain"]] == [(0,), (1,), (3,), (4,), (5,)]


@pytest.mark.parametrize("formula,error", [("(S x0 y0)", "FormulaError"),
                                           ("(R x0)", "ArityError")])
def test_chains_bad_formula_on_one_element_exits_two(tmp_path, capsys,
                                                      formula, error):
    task = write(tmp_path, "chains.json", {
        "structure": {"universe": [0],
                      "relations": {"R": {"arity": 2, "tuples": []}}},
        "formula": formula})
    code, out, err = run_cli(capsys, ["chains", "--in", task])
    assert code == 2 and out == ""
    assert error in err and "Traceback" not in err


CHAIN_FORMULAS = {
    1: ["(R x0 y0)", "(R y0 x0)", "(not (R y0 x0))",
        "(and (R x0 y0) (not (P y0)))",
        "(or (R x0 y0) (and (P x0) (not (P y0))))",
        "(and (or (R x0 y0) (T x0 y0 y0)) (not (R y0 x0)))",
        "(or (T x0 x0 y0) (and (P y0) (not (P x0))))"],
    2: ["(and (R x0 y0) (R x1 y1))", "(and (R x0 y1) (not (R y0 x1)))",
        "(or (and (R x0 y0) (P x1)) (and (R x1 y1) (not (P y0))))",
        "(and (T x0 y0 y1) (not (T y0 x0 x1)))",
        "(or (R x0 y0) (and (R x1 y1) (P x1) (not (P y0))))"],
}
# bad formulas on universes of two or more elements, where every version
# of the search reaches the bad atom
CHAIN_BAD_FORMULAS = ["(S x0 y0)", "(R x0)", "(and (R x0 y0) (P x0 y0))",
                      "(R x0 y0"]


def chain_structure(rng, n, transitive):
    """R is a random strict order (transitive, swept) or a random digraph
    (exhaustive search); P and T are random unary and ternary relations."""
    if transitive:
        order = list(range(n))
        rng.shuffle(order)
        pairs = {(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4}
        changed = True
        while changed:
            extra = {(a, d) for a, b in pairs for c, d in pairs if b == c}
            changed = not extra <= pairs
            pairs |= extra
        r = sorted(pairs)
    else:
        r = [t for t in itertools.product(range(n), repeat=2) if rng.random() < 0.35]
    return {"universe": list(range(n)), "relations": {
        "R": {"arity": 2, "tuples": [list(t) for t in r]},
        "P": {"arity": 1, "tuples": [[a] for a in range(n) if rng.random() < 0.5]},
        "T": {"arity": 3, "tuples": [
            list(t) for t in itertools.product(range(n), repeat=3)
            if rng.random() < 0.2]}}}


def chains_transcript_digest(tmp_path, monkeypatch, capsys):
    """sha256 over exit codes and stdout of 104 seeded chains requests:
    formulas over one and two coordinates, strict orders and random
    digraphs, and bad formulas that exit 2."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(606)
    digest = hashlib.sha256()
    for k in range(104):
        if k % 13 == 12:
            n, formula = rng.randint(2, 5), rng.choice(CHAIN_BAD_FORMULAS)
        else:
            sort = 1 if k % 3 else 2
            n = rng.randint(0, 8) if sort == 1 else rng.randint(0, 3)
            formula = rng.choice(CHAIN_FORMULAS[sort])
        name = f"chains{k}.json"
        (tmp_path / name).write_text(json.dumps({
            "structure": chain_structure(rng, n, k % 2 == 0),
            "formula": formula}))
        code = main(["chains", "--in", name])
        digest.update(f"{name} {formula} -> {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_chains_golden(tmp_path, monkeypatch, capsys):
    assert chains_transcript_digest(tmp_path, monkeypatch, capsys) == \
        "72e263a94f2cfb744d2e0c3cb1baf42810ad4423c717eb04b237d237a6e46e43"


def test_tiepoint_depth_beyond_kernel_exits_two(capsys):
    # the probe counts are closed forms, so depth 6 (2^6 cells) answers
    code, out, _ = run_cli(capsys, ["tiepoint", "--point", "01^omega", "--depth", "6"])
    rep = json.loads(out)
    assert code == 0 and rep["probes_checked"] == 2 ** 63
    assert rep["probe_violations"] == 0
    # probes_checked = 2^(2^d - 1) has 4,932 digits at depth 14, past the
    # interpreter's default limit of 4,300: a named error, exit 2, at once
    # however deep the request
    for depth in (14, 40, 2000, 10 ** 9):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["tiepoint", "--point", "1(10)^omega",
                                          "--depth", str(depth)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert "DepthError" in err and "Traceback" not in err


def test_values_past_the_digit_limit_are_refused_up_front(tmp_path, capsys):
    assert sys.get_int_max_str_digits() == 4300

    def seq(n):
        return write(tmp_path, f"s{n}.json",
                     {"bounds": [max(k, 1) for k in range(n)], "vals": [0] * n})

    # phi: the lift of n coordinates carries eta(n) = n!, which has 4,300
    # digits at n = 1,558 and 4,303 at n = 1,559
    short, long, too_long = seq(1), seq(1558), seq(1559)
    for argv in (["--in", long], ["--in", long, "--g", long]):
        code, out, _ = run_cli(capsys, ["phi", *argv])
        assert code == 0 and json.loads(out)["phi"]["bounds"][-1] == math.factorial(1558)
    for argv in (["--in", too_long], ["--in", short, "--g", too_long]):
        code, out, err = run_cli(capsys, ["phi", *argv])
        assert code == 2 and out == ""
        assert "DepthError" in err and "eta(1559)" in err
    # pipeline on 4 elements with 11 witness pairs: the build's depth is at
    # most depth + 11 and every position lies below its factorial, so depth
    # 1,547 (bound 1,558!) runs and 1,548 (bound 1,559!) is refused
    one_edge = write(tmp_path, "P.json", {"elements": [0, 1, 2, 3], "edges": [[0, 1]]})
    code, out, _ = run_cli(capsys, ["forcing", "pipeline", "--poset", one_edge,
                                    "--depth", "1547"])
    assert code == 0 and json.loads(out)["ok"]
    for depth in (1548, 10 ** 9):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["forcing", "pipeline", "--poset", one_edge,
                                          "--depth", str(depth)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert "DepthError" in err and "Traceback" not in err
    # tiepoint: probes_checked = 2^(2^d - 1) has 2,466 digits at depth 13
    code, out, _ = run_cli(capsys, ["tiepoint", "--point", "1(10)^omega", "--depth", "13"])
    assert code == 0 and json.loads(out)["probes_checked"] == 2 ** (2 ** 13 - 1)


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["walk", "--in", "missing.json"])  # missing required flags
    assert e.value.code == 2
    f = write(tmp_path, "f.json", {"bounds": [1], "vals": [0]})
    with pytest.raises(SystemExit) as e:
        main(["--json", "phi", "--in", f])  # no such flag
    assert e.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["phi", "--in", str(bad)]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "nonexistent.json")
    assert main(["phi", "--in", missing]) == 2
    capsys.readouterr()


TIEPOINT_01_DEPTH_2_SHA256 = \
    "64f17ec6055914201e2f29b6c3bd1b6cb4b036394f9795e0f2cce36b19b7963f"


def test_parser_is_built_once_and_survives_usage_errors(capsys, monkeypatch):
    argv = ["tiepoint", "--point", "01^omega", "--depth", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as e:
        main(["tiepoint", "--point", "01^omega"])  # --depth is required
    assert e.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TIEPOINT_01_DEPTH_2_SHA256
    assert built == []


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    env = src_env()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "orderlab", *args],
                              capture_output=True, text=True, env=env, timeout=60)

    done = run("tiepoint", "--point", "01^omega", "--depth", "2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["point"] == "01^omega"
    assert run().returncode == 2  # a subcommand is required


def run_python(code, *args):
    """Run code in a fresh interpreter; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_start_up_loads_only_what_the_request_runs(tmp_path):
    f = write(tmp_path, "f.json", {"bounds": [1, 1, 2, 3], "vals": [0, 0, 1, 2]})
    single = run_python(
        "import contextlib, io, sys\n"
        "from orderlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['tiepoint', '--point', '01^omega', '--depth', '4']) == 0\n"
        "    assert cli.main(['phi', '--in', sys.argv[1]]) == 0\n"
        "print(sorted({'numpy', 'orderlab.checks'} & set(sys.modules)))\n", f)
    assert single.split() == ["[]"]
    suites = run_python(
        "import sys\n"
        "from orderlab import checks\n"
        "print('numpy' in sys.modules)\n"
        "assert checks.check_salient(n_max=2)['ok']\n"
        "print('numpy' in sys.modules)\n")
    assert suites.split() == ["False", "True"]  # numpy loads on the first kernel call


def test_budget_choices_are_the_suite_budgets():
    check_all = next(a for a in cli._parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices["check-all"]
    budget = next(a for a in check_all._actions if a.dest == "budget")
    assert tuple(budget.choices) == tuple(sorted(checks.BUDGETS))


def test_pretty_flag(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"bounds": [1], "vals": [0]})
    code, out, _ = run_cli(capsys, ["--pretty", "phi", "--in", f])
    assert code == 0 and out.startswith("{\n")


def test_suite_results_deterministic_modulo_wall_time():
    runs = []
    for _ in range(2):
        out = [checks.check_depletion_poset(trials=60, seed=5),
               checks.check_amalgamation(trials=40, seed=6),
               checks.check_pipeline(trials=5, seed=7)]
        runs.append(json.dumps(out, sort_keys=True))
    assert runs[0] == runs[1]


def tiepoint_transcript_digest(capsys, requests):
    """sha256 over exit codes and stdout of the given tiepoint requests."""
    digest = hashlib.sha256()
    for x, d in requests:
        code = main(["tiepoint", "--point", x, "--depth", str(d)])
        digest.update(f"{x} {d} -> {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_tiepoint_golden(capsys):
    # every prefix of length <= 3 with periods 0, 1, 01 and 110 at depths
    # 1-4: 240 requests, pinned when the probe counts came from the literal
    # sweep
    prefixes = [format(i, f"0{n}b") if n else ""
                for n in range(4) for i in range(1 << n)]
    shallow = [(f"{p}({q})^omega" if p else f"{q}^omega", d)
               for p in prefixes for q in ("0", "1", "01", "110")
               for d in range(1, 5)]
    assert tiepoint_transcript_digest(capsys, shallow) == \
        "00e4868be025175f1a9a3ff28ddde85899534a6317964e62b32feb416db242ed"
    # depths 6 and 12, past the 32-bit probe kernel
    deep = [(x, d) for x in ("01^omega", "1(10)^omega") for d in (6, 12)]
    assert tiepoint_transcript_digest(capsys, deep) == \
        "64385120a67abbee7bef3e9aff15ad73d071e7109fe1847704b74500c16ae6d3"


# run_all's calls in report order: (report name, suite, base trial count,
# seed offset), None where the suite takes no such argument
RUN_ALL_CALLS = [
    ("phi-strict-increase", "check_phi_strict_increase", None, None),
    ("salient-inequality", "check_salient", None, None),
    ("universal-witness", "check_universal_witness", None, None),
    ("depletion-partial-order", "check_depletion_poset", 10000, 0),
    ("depletion-monotone-and-convex", "check_depletion_monotone", 4000, 1),
    ("shrink-strictness-fixture", "check_strictness_fixture", None, None),
    ("star-criterion-equivalence", "check_star_equivalence", 500, 2),
    ("amalgamation", "check_amalgamation", 1000, 3),
    ("dense-set-entry", "check_dense_entries", 1000, 4),
    ("projection-reduction", "check_reduction", 1000, 5),
    ("generic-embedding", "check_generic_embedding", None, None),
    ("pipeline-embedding", "check_pipeline", 50, 6),
    ("atomic-los", "check_atomic_los", 1000, 7),
    ("true-tie-points", "check_tie_points", None, 8),
    ("split-projection-density", "check_split_density", 40, 9),
    ("split-density-exhaustive", "check_split_density_exhaustive", None, None),
    ("poset-invariants", "check_poset_invariants", 400, 10),
    ("universal-embedding-roundtrip", "check_embed_roundtrip", 1000, 11),
    ("clopen-operations", "check_clopen_ops", 600, 12),
    ("product-congruence-and-collapse", "check_product_congruence", 200, 13),
]


def stub_suite(calls, suite, cases):
    """A stand-in for suite with its signature: it records its call and
    reports the given cases."""
    @functools.wraps(suite)
    def run(*args, **kwargs):
        calls.append((suite.__name__, args, kwargs))
        return {"ok": True, "cases": cases}
    return run


@pytest.fixture
def suite_stubs(monkeypatch):
    calls = []
    monkeypatch.setattr(checks, "SUITES", tuple(
        (name, stub_suite(calls, suite, cases), cases)
        for name, suite, cases in checks.SUITES))
    return calls


def test_run_all_calls_every_suite_once_in_report_order(suite_stubs):
    for budget, seed in (("medium", 5), ("small", 0)):
        suite_stubs.clear()
        results = checks.run_all(budget, seed=seed)
        scale = checks.BUDGETS[budget]
        want = []
        for _, suite, trials, offset in RUN_ALL_CALLS:
            kwargs = {}
            if trials is not None:
                kwargs["trials"] = int(trials * scale)
            if offset is not None:
                kwargs["seed"] = seed + offset
            want.append((suite, (), kwargs))
        assert suite_stubs == want
        assert [entry for entry, _ in results] == [
            {"name": name, "ok": True, "cases": cases} for name, _, cases in checks.SUITES]
        assert all(0 <= seconds < 1 for _, seconds in results)
    assert [name for name, _, _, _ in RUN_ALL_CALLS] == [name for name, _, _ in checks.SUITES]
    # at small and seed 0 every suite runs at exactly its own defaults
    for name, _, kwargs in suite_stubs:
        params = inspect.signature(getattr(checks, name)).parameters
        assert kwargs == {k: params[k].default for k in ("trials", "seed") if k in params}


def test_check_all_reports_a_suite_that_raises(suite_stubs, monkeypatch, capsys):
    def check_salient(*args, **kwargs):
        suite_stubs.append(("check_salient", args, kwargs))
        raise IndexError("list index out of range")

    rows = list(checks.SUITES)
    name, _, cases = rows[1]
    rows[1] = (name, check_salient, cases)
    monkeypatch.setattr(checks, "SUITES", tuple(rows))
    code, out, err = run_cli(capsys, ["check-all"])
    assert code == 1 and "Traceback" not in err
    rep = json.loads(out)
    assert [suite for suite, _, _ in suite_stubs] == [suite for _, suite, _, _ in RUN_ALL_CALLS]
    # the entry carries the row's report name, as it would had the suite returned
    assert rep["checks"][1] == {"name": "salient-inequality", "ok": False,
                                "error": "IndexError: list index out of range"}
    assert "  salient-inequality: " in err and "[FAIL] salient-inequality" in err
    assert not rep["ok"] and all(c["ok"] for i, c in enumerate(rep["checks"]) if i != 1)


def test_check_all_fails_a_suite_off_its_pinned_cases_at_the_defaults(
        suite_stubs, monkeypatch, capsys):
    rows = list(checks.SUITES)
    name, suite, cases = rows[8]  # the dense grid
    rows[8] = (name, stub_suite(suite_stubs, suite, cases + 1), cases)
    monkeypatch.setattr(checks, "SUITES", tuple(rows))
    code, out, _ = run_cli(capsys, ["check-all"])
    assert code == 1
    rep = json.loads(out)
    assert [i for i, c in enumerate(rep["checks"]) if not c["ok"]] == [8]
    assert rep["checks"][8]["cases"] == cases + 1
    assert rep["checks"][8]["failures"] == [{"kind": "cases", "expected": cases}]
    # the pin holds only at the defaults
    for argv in (["check-all", "--seed", "1"], ["check-all", "--budget", "medium"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and json.loads(out)["ok"], argv


def test_check_all_command_drops_wall_times(suite_stubs, capsys):
    code, out, err = run_cli(capsys, ["check-all"])
    assert code == 0
    rep = json.loads(out)
    assert rep["budget"] == "small" and len(rep["checks"]) == len(RUN_ALL_CALLS)
    # one time line per suite on stderr, from run_all's clock
    times = [line for line in err.splitlines() if line.startswith("  ")]
    assert [line.split(":")[0].strip() for line in times] == [
        name for name, _, _, _ in RUN_ALL_CALLS]
    assert all(line.endswith("s") and float(line.split(": ")[1][:-1]) >= 0
               for line in times)


def test_no_entry_carries_a_wall_time(monkeypatch, capsys):
    direct = [checks.check_strictness_fixture(), checks.check_pipeline(trials=2),
              checks.check_tie_points(depth=2)]
    assert [sorted(r) for r in direct] == [["cases", "ok"], ["cases", "ok"],
                                           ["cases", "depth", "ok"]]
    rows = [row for row in checks.SUITES if row[0] in (
        "shrink-strictness-fixture", "true-tie-points")]
    monkeypatch.setattr(checks, "SUITES", tuple(rows))
    code, out, _ = run_cli(capsys, ["check-all"])
    assert code == 0
    assert [sorted(c) for c in json.loads(out)["checks"]] == [
        ["cases", "name", "ok"], ["cases", "depth", "name", "ok"]]


