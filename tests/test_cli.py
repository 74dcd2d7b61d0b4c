import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orderlab.cli import main


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
    # 2^6 cells do not fit the 32-bit probe masks: a named error, exit 2
    code, out, err = run_cli(capsys, ["tiepoint", "--point", "01^omega",
                                      "--depth", "6"])
    assert code == 2 and out == ""
    assert "DepthError" in err and "Traceback" not in err


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


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "orderlab", *args],
                              capture_output=True, text=True, env=env, timeout=60)

    done = run("tiepoint", "--point", "01^omega", "--depth", "2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["point"] == "01^omega"
    assert run().returncode == 2  # a subcommand is required


def test_pretty_flag(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"bounds": [1], "vals": [0]})
    code, out, _ = run_cli(capsys, ["--pretty", "phi", "--in", f])
    assert code == 0 and out.startswith("{\n")


def test_suite_results_deterministic_modulo_wall_time():
    from orderlab import checks
    runs = []
    for _ in range(2):
        out = [checks.check_depletion_poset(trials=60, seed=5),
               checks.check_amalgamation(trials=40, seed=6),
               checks.check_pipeline(trials=5, seed=7)]
        runs.append(json.dumps(
            [{k: v for k, v in c.items() if k != "elapsed_s"} for c in out],
            sort_keys=True))
    assert runs[0] == runs[1]
