"""Command-line driver: one subcommand per construction plus a batch
verification mode.

Reports are JSON on stdout (sorted keys, no volatile fields, so identical
inputs and seeds give byte-identical output) with a human summary on
stderr.  Exit status: 0 when every verdict passes, 1 on a failed check,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import schema
from .depletion import (depletion_order, find_walk, frontier_sweep,
                        maximal_star_set, star_condition)
from .errors import DepthError, InputError, OrderlabError, brief
from .fol import parse_formula
from .forcing import (generic_build, pipeline_embed, shuffled_schedule,
                      verify_generic_embedding)
from .posets import elements_of
from .redprod import atomic_los_check, longest_op_chain, reduced_product
from .seqspace import leq_from, lt_from, phi
from .tiepoint import (bulk_probe_check, decomposition_invariant_failures,
                       expansion_axiom_check, parse_point, tie_decompose)
from .universal import SparseNat, embed_structure, verify_embedding


def _load(kind, path, digests):
    """The document at path, read as the given schema kind."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digests[path] = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, too many digits, too deep
        raise InputError(f"{path}: not a JSON document ({e})") from None
    return schema.load(kind, doc)


def _emit(report, ok, pretty):
    if pretty:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    for check in report.get("checks", []):
        mark = "pass" if check.get("ok") else "FAIL"
        print(f"[{mark}] {check.get('name')}", file=sys.stderr)
    print(f"overall: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def _refuse_long_ints(what, ln_size):
    """A DepthError, raised before the value is built, for a report integer
    of about e**ln_size with more digits than str() converts
    (sys.get_int_max_str_digits(); 0: no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and ln_size >= limit * math.log(10):
        raise DepthError(f"{what} has over {limit} digits")


# forcing generic refuses a depth d once (d + 1) * (n * n - s + 1) passes
# this, for n elements and s strict pairs.  Per level, the default schedule
# has n * n - s requests, which --seed keeps whole; that is at least the n
# coordinates the build holds, and the 1 is the position profile's
_MAX_GENERIC_CELLS = 10 ** 6


def _parse_labels(text):
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise InputError(f"--s {brief(text)}: labels must be comma-separated integers") from None


def _cmd_depletion(args, digests):
    inst = _load("depletion instance", args.infile, digests)
    s = _parse_labels(args.s)
    dep = depletion_order(inst, s)
    body = {"elements": list(dep.elements), "matrix": dep.matrix(),
            "s": list(s)}
    return body, [{"name": "depletion-order", "ok": True}]


def _cmd_walk(args, digests):
    inst = _load("depletion instance", args.infile, digests)
    s = _parse_labels(args.s)
    walk = find_walk(inst, s, args.x, args.y)
    if walk is None:
        lx = inst.level(args.x)
        ascending = lx == min(s)
        start = args.x if ascending else args.y
        reach = frontier_sweep(inst, sorted(set(s)),
                               1 << inst.order.index_of(start), ascending)
        body = {"walk": None,
                "frontier": [elements_of(inst.order.elements, m) for m in reach]}
        return body, [{"name": "walk-search", "ok": True, "found": False}]
    body = {"walk": {"s": list(walk.s), "direction": walk.direction,
                     "steps": {str(k): v for k, v in walk.steps.items()}}}
    return body, [{"name": "walk-search", "ok": True, "found": True}]


def _cmd_star(args, digests):
    if (args.xi is None) != (args.eta is None):
        raise InputError("--xi and --eta name one label pair: give both or neither")
    inst = _load("depletion instance", args.infile, digests)
    results = []
    if args.xi is not None:
        pairs = [(args.xi, args.eta)]
    else:
        pairs = [(a, b) for i, a in enumerate(inst.labels)
                 for b in inst.labels[i + 1:]]
    for a, b in pairs:
        verdict, wit = star_condition(inst, a, b, exhaustive=args.exhaustive)
        results.append({"pair": [a, b], "holds": verdict,
                        "witness": list(wit) if wit else None})
    body = {"pairs": results,
            "maximal_star_set": list(maximal_star_set(inst))}
    return body, [{"name": "star-condition", "ok": True}]


def _cmd_phi(args, digests):
    f = _load("sequence", args.infile, digests)
    g = _load("sequence", args.g, digests) if args.g else None
    # the lift of n coordinates carries the bound eta(n) = n!
    n = max(len(f), len(g) if args.g else 0)
    _refuse_long_ints(f"the lift's bound eta({n})", math.lgamma(n + 1))
    out = phi(f)
    body = {"phi": out.to_json_dict()}
    checks = [{"name": "phi", "ok": True}]
    if args.g:
        m = args.m
        pg = phi(g)
        dominated = leq_from(f, g, m)
        strict_at = next((n for n in range(max(m, 1), len(f))
                          if f[n] < g[n]), None)
        ok = True
        certificate = {"m": m, "dominated_from_m": dominated,
                       "first_strict": strict_at}
        if dominated and strict_at is not None:
            ok = lt_from(out, pg, strict_at + 1)
            certificate["strict_from"] = strict_at + 1
        body["phi_g"] = pg.to_json_dict()
        body["certificate"] = certificate
        checks.append({"name": "strict-increase", "ok": ok})
    return body, checks


def _cmd_universal_embed(args, digests):
    s = _load("relation structure", args.infile, digests)
    images = embed_structure(s)
    ok = verify_embedding(s, images)
    out = []
    for a in s.universe:
        img = images[a]
        out.append(img.describe() if isinstance(img, SparseNat) else img)
    return {"images": out}, [{"name": "embedding-roundtrip", "ok": ok}]


def _cmd_product(args, digests):
    data = _load("product request", args.infile, digests)
    filt = data["filter"]
    rp = reduced_product(data["factors"], filt)
    classes, vectors = rp.counts()
    body = {"classes": classes, "vectors": vectors, "filter_core": sorted(filt.core)}
    results = []
    ok = True
    for lit in data.get("literals", []):
        phi_lit = parse_formula(lit["formula"])
        vectors = [tuple(v) for v in lit["vectors"]]
        holds, wit = atomic_los_check(rp, phi_lit, vectors)
        results.append({"formula": lit["formula"], "equivalence": holds,
                        "witness_set": sorted(wit)})
        ok = ok and holds
    body["literals"] = results
    return body, [{"name": "atomic-los", "ok": ok}]


def _cmd_chains(args, digests):
    data = _load("chains request", args.infile, digests)
    chain = longest_op_chain(data["structure"], parse_formula(data["formula"]))
    return ({"length": len(chain), "chain": [list(t) for t in chain]},
            [{"name": "chain-search", "ok": True}])


def _cmd_forcing_generic(args, digests):
    ground = _load("poset", args.poset, digests)
    n = len(ground)
    cells = (args.depth + 1) * (n * n - len(ground.strict_pairs()) + 1)
    if cells > _MAX_GENERIC_CELLS:
        raise DepthError(f"depth {args.depth} on {n} elements: {cells} schedule "
                         f"requests and coordinates, over {_MAX_GENERIC_CELLS}")
    schedule = None
    if args.seed is not None:
        schedule = shuffled_schedule(ground, args.depth, args.seed)
    ge = generic_build(ground, args.depth, schedule)
    rep = verify_generic_embedding(ge)
    body = {
        "Y": {str(a): list(ge.values[a].vals) for a in ground.elements},
        "thresholds": {f"{min(p)},{max(p)}": m
                       for p, m in sorted((tuple(sorted(k)), v)
                                          for k, v in ge.thresholds.items())},
        "witnesses": {f"{a},{b}": list(w)
                      for (a, b), w in sorted(ge.strict_witnesses.items())},
        "depth": rep["depth"],
    }
    return body, [{"name": "generic-embedding", "ok": rep["ok"],
                   "failures": rep["failures"]}]


def _cmd_forcing_pipeline(args, digests):
    ground = _load("poset", args.poset, digests)
    factors = _load("chain factors", args.chains, digests) if args.chains else None
    # the build's depth w is at most max(depth, n + 2) plus one coordinate
    # per witness pair, and every lifted position lies below eta(w) = w!
    n = len(ground)
    w = max(args.depth, n + 2) + n * (n - 1) - len(ground.strict_pairs())
    _refuse_long_ints(f"depth {args.depth}: the bound {w}!", math.lgamma(w + 1))
    rep = pipeline_embed(ground, args.depth, factors)
    return rep, [{"name": "pipeline-embedding", "ok": rep["ok"]}]


def _cmd_tiepoint(args, digests):
    x = parse_point(args.point)
    # probes_checked is 2^(2^d - 1); at depth 64 it passes every limit
    _refuse_long_ints(f"depth {args.depth}: probes_checked",
                      (2.0 ** min(args.depth, 64) - 1) * math.log(2))
    td = tie_decompose(x, args.depth)
    inv = decomposition_invariant_failures(td)
    checked, bad = bulk_probe_check(td)
    expansion = expansion_axiom_check(td, args.depth)
    body = {
        "point": str(x),
        "below": [sorted(c.antichain) for c in td.below_chain],
        "above": [sorted(c.antichain) for c in td.above_chain],
        "probes_checked": checked,
        "probe_violations": bad,
    }
    return body, [
        {"name": "decomposition-invariants", "ok": not inv, "failures": inv},
        {"name": "probe-sweep", "ok": bad == 0},
        {"name": "expansion-axioms", "ok": expansion},
    ]


def _cmd_check_all(args, digests):
    from . import checks  # loaded only by the request that runs the suites

    # wall times are volatile: stderr shows them, the report carries verdicts only
    results = checks.run_all(budget=args.budget, seed=args.seed)
    for entry, seconds in results:
        print(f"  {entry['name']}: {seconds:.3f}s", file=sys.stderr)
    return {"budget": args.budget}, [entry for entry, _ in results]


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="finite order-combinatorics laboratory: depletions, "
                    "sequence-space embeddings, reduced products, condition "
                    "calculus, tie points")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depletion", help="depleted order matrix over an index subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", required=True, help="comma-separated index labels")
    p.set_defaults(handler=_cmd_depletion)

    p = sub.add_parser("walk", help="find a walk between two fiber elements")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("star", help="no-walk condition per label pair")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--xi", type=int)
    p.add_argument("--eta", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("phi", help="weighted-digit lift of a bounded sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--g", help="second sequence for the strict-increase certificate")
    p.add_argument("--m", type=int, default=0, help="domination threshold")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("universal-embed",
                       help="embed an asymmetric structure into the digit relation")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_universal_embed)

    p = sub.add_parser("product", help="reduced product and literal double-checks")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("chains", help="longest strict-comparison chain in a structure")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_chains)

    pf = sub.add_parser("forcing", help="condition-calculus builds")
    fsub = pf.add_subparsers(dest="forcing_command", required=True)
    p = fsub.add_parser("generic", help="build and certify a generic embedding")
    p.add_argument("--poset", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, help="shuffle the request schedule")
    p.set_defaults(handler=_cmd_forcing_generic)
    p = fsub.add_parser("pipeline", help="compose through chain factors")
    p.add_argument("--poset", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--chains", help="chain factor description (default: exact lengths)")
    p.set_defaults(handler=_cmd_forcing_pipeline)

    p = sub.add_parser("tiepoint", help="decompose around a point of Cantor space")
    p.add_argument("--point", required=True, help='e.g. "01^omega" or "1(10)^omega"')
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(handler=_cmd_tiepoint)

    p = sub.add_parser("check-all", help="run every verification suite")
    # sorted(checks.BUDGETS), spelled out so that building the parser does
    # not load the suites; tests/test_cli.py holds the two equal
    p.add_argument("--budget", choices=("large", "medium", "small"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check_all)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    digests = {}
    t0 = time.perf_counter()
    try:
        body, results = args.handler(args, digests)
    except (OrderlabError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    ok = all(c.get("ok") for c in results)
    report = {"command": [args.command] + (
        [args.forcing_command] if args.command == "forcing" else []),
        "inputs": digests, "checks": results, "ok": ok}
    report.update(body)
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return _emit(report, ok, args.pretty)


if __name__ == "__main__":
    sys.exit(main())
