"""The four benchmark workloads: which suites or CLI requests run, at which
sizes, and how many cases each must report.

Every operation is a ``check_*`` call or one CLI request.  A check passes
when it returns ``ok`` and exactly the expected ``cases``; a CLI request
passes when it exits 0 and prints the same bytes as its warm-up call.

Expected case counts come from closed forms where the suite's size fixes
them, and otherwise from ``expected_cases.json``: the randomized suites
whose count depends on the seed (``star_equivalence``, ``atomic_los``,
``split_density`` and the random tail of ``dense_entries``) take their seed
from ``--seed`` modulo ``SEED_PERIOD`` and are pinned per seed there.
Regenerate that file with ``record_expected.py`` only when a suite's
generator changes on purpose.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_PERIOD = 32
WORKLOADS = ("sweep", "calculus", "random", "cli")
SIZES = ("full", "tiny")


@dataclass
class Op:
    """One operation: a check_* call (fn, kwargs) or a CLI request (argv)."""
    label: str
    fn: str | None = None
    kwargs: dict = field(default_factory=dict)
    cases: int | None = None
    argv: list | None = None
    digest: str | None = None  # pinned sha256 prefix of a CLI request's stdout


def eta(n):
    """eta(0) = 1, eta(n+1) = sum_{j<=n} j*eta(j) + 1, computed here
    independently of the package."""
    vals = [1]
    for _ in range(n):
        vals.append(sum(j * v for j, v in enumerate(vals)) + 1)
    return vals[n]


def salient_cases(n_max):
    return sum(eta(n) + 1 for n in range(1, n_max + 1))


def witness_cases(universe, max_size):
    return sum(comb(universe, k) * 2 ** k for k in range(1, max_size + 1))


# Contract values the sizes must reproduce (criteria 2, 3, 10 and 13).
assert salient_cases(12) == 522_956_325
assert witness_cases(13, 5) == 55_250

# Exhaustive grids whose counts no closed form gives; fixed by the grid.
PHI_CASES = {6: 35_970, 4: 57}
DENSE_GRID_CASES = {(3, 4): 75_420, (2, 2): 270}
REDUCTION_GRID_CASES = {(3, 3): 12_077, (2, 2): 330}
ISOTYPES_UP_TO = {6: 406, 3: 9}  # isotypes of sizes 0..n: 1, 1, 2, 5, 16, 63, 318


def load_expected():
    with open(os.path.join(HERE, "expected_cases.json")) as fh:
        return json.load(fh)


def check(suite, cases, **kwargs):
    return Op(label=suite, fn="check_" + suite, kwargs=kwargs, cases=cases)


# --- sweep: exhaustive arithmetic sweeps at contract sizes ---------------------

def sweep(size, s, expected):
    phi_n, sal_n, (uni, msz), tie_d = {
        "full": (6, 12, (13, 5), 4), "tiny": (4, 8, (8, 3), 3)}[size]
    return [
        check("salient", salient_cases(sal_n), n_max=sal_n),
        check("universal_witness", witness_cases(uni, msz), universe=uni, max_size=msz),
        check("phi_strict_increase", PHI_CASES[phi_n], n_coords=phi_n),
        check("tie_points", 2 ** tie_d, depth=tie_d, seed=s),
    ]


# --- calculus: whole exhaustive condition grids ----------------------------------

# (dense grid (n, depth), reduction grid (n, depth), generic (max_n, budget),
#  random trials after each grid)
CALCULUS = {"full": ((3, 4), (3, 3), (6, 16), 200),
            "tiny": ((2, 2), (2, 2), (3, 4), 20)}


def calculus(size, s, expected):
    dense_grid, red_grid, (gen_n, gen_budget), trials = CALCULUS[size]
    dense_tail = expected[size]["dense_entries_trials"][s]
    return [
        check("dense_entries", DENSE_GRID_CASES[dense_grid] + dense_tail,
              exhaustive_n=dense_grid[0], max_depth=dense_grid[1],
              trials=trials, seed=s + 4),
        check("reduction", REDUCTION_GRID_CASES[red_grid] + trials,
              exhaustive_n=red_grid[0], max_depth=red_grid[1],
              trials=trials, seed=s + 5),
        check("generic_embedding", ISOTYPES_UP_TO[gen_n], max_n=gen_n, budget=gen_budget),
    ]


# --- random: the seeded randomized suites at budget=small trial counts ----------

# suite -> (trials at budget=small, seed offset as in checks.run_all)
RANDOM_SUITES = {
    "depletion_poset": (10000, 0),
    "depletion_monotone": (4000, 1),
    "star_equivalence": (500, 2),
    "amalgamation": (1000, 3),
    "pipeline": (50, 6),
    "atomic_los": (1000, 7),
    "split_density": (40, 9),
    "poset_invariants": (400, 10),
    "embed_roundtrip": (1000, 11),
    "clopen_ops": (600, 12),
    "product_congruence": (200, 13),
}
SEED_DEPENDENT = ("star_equivalence", "atomic_los", "split_density")
TINY_TRIALS_DIVISOR = 100


def random_trials(size, trials):
    return trials if size == "full" else max(1, trials // TINY_TRIALS_DIVISOR)


def random_suites(size, s, expected):
    ops = []
    for suite, (trials, offset) in RANDOM_SUITES.items():
        n = random_trials(size, trials)
        cases = expected[size][suite][s] if suite in SEED_DEPENDENT else n
        ops.append(check(suite, cases, trials=n, seed=s + offset))
    return ops


# --- cli: a seeded stream of single-construction requests ------------------------

# command -> (requests per pass, instance size).  Assumption: the mix gives
# every command the same share, 10 of 100 requests, because no traffic mix
# of the CLI is known.  Two of the ten chains requests ask for one structure
# of 150 elements, the latency tail of single requests, so that the p99 of a
# run falls inside it.  The other sizes keep each command's median within
# the 2-15 ms measured for single requests, with structures of tens of
# elements where that allows: 40 elements, 30 for chains (its cost grows with the square), 6 for universal-embed
# (its witnesses are tower-sized; 8 elements take 10 ms, 10 take 40 ms),
# three 8-element factors for product and 4-element posets for the forcing
# builds.  run.py prints the median of every command on each run.
CLI_MIX = {"full": {"depletion": (10, 40), "walk": (10, 40), "star": (10, 40),
                    "phi": (10, 40), "universal-embed": (10, 6),
                    "product": (10, 8), "chains": (8, 30), "chains-tail": (2, 150),
                    "forcing-generic": (10, 4), "forcing-pipeline": (10, 4),
                    "tiepoint": (10, 4)},
           "tiny": {"depletion": (1, 12), "walk": (1, 12), "star": (1, 12),
                    "phi": (1, 8), "universal-embed": (1, 4), "product": (1, 3),
                    "chains": (1, 12), "chains-tail": (0, 150),
                    "forcing-generic": (1, 3), "forcing-pipeline": (1, 3),
                    "tiepoint": (1, 3)}}


def _dag_edges(rng, ids, density):
    order = list(ids)
    rng.shuffle(order)
    return [[order[i], order[j]] for i in range(len(order))
            for j in range(i + 1, len(order)) if rng.random() < density]


def _closure(n, edges):
    """All pairs of the transitive closure of a DAG on 0..n-1."""
    succ = [0] * n
    for a, b in edges:
        succ[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            r = succ[a]
            acc = r
            while r:
                b = (r & -r).bit_length() - 1
                acc |= succ[b]
                r &= r - 1
            if acc != succ[a]:
                succ[a] = acc
                changed = True
    return [[a, b] for a in range(n) for b in range(n) if succ[a] >> b & 1]


def _depletion_instance(rng, n_labels, n_elems):
    labels = sorted(rng.sample(range(3 * n_labels), n_labels))
    ids = list(range(n_elems))
    rng.shuffle(ids)
    core = ids[:n_elems // 10]
    rest = ids[len(core):]
    fibers = {lab: [x] for lab, x in zip(labels, rest)}  # no fiber is empty
    for x in rest[n_labels:]:
        fibers[rng.choice(labels)].append(x)
    return {"I": labels, "A": sorted(core),
            "F": {str(lab): sorted(v) for lab, v in fibers.items()},
            "edges": _dag_edges(rng, range(n_elems), 0.15)}


def _labels_subset(rng, labels):
    return sorted(rng.sample(labels, 3))


def _poset(rng, n):
    return {"elements": list(range(n)), "edges": _dag_edges(rng, range(n), 0.35)}


def _position_seq(rng, length):
    bounds = [max(k, 1) for k in range(length)]
    return {"bounds": bounds, "vals": [rng.randrange(b) for b in bounds]}


def _relation_structure(rng, n):
    pairs = [[a, b] for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.3]
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
    return {"universe": list(range(n)), "pairs": pairs}


def _strict_order_structure(rng, n):
    edges = _dag_edges(rng, range(n), 3.0 / n)
    return {"universe": list(range(n)),
            "relations": {"R": {"arity": 2, "tuples": _closure(n, edges)}}}


def _product(rng, m):
    k = 3
    factors = [{"universe": list(range(m)),
                "relations": {"R": {"arity": 2, "tuples": [
                    [a, b] for a in range(m) for b in range(m)
                    if rng.random() < 0.4]}}} for _ in range(k)]
    core = sorted(rng.sample(range(k), rng.randint(1, k)))
    # negated atoms satisfy the double evaluation only over ultrafilters
    forms = ["(R x y)", "(R y x)"] + (["(not (R x y))"] if len(core) == 1 else [])
    literals = [{"formula": rng.choice(forms),
                 "vectors": [[rng.randrange(m) for _ in range(k)] for _ in range(2)]}
                for _ in range(2)]
    return {"factors": factors, "filter": {"ground": k, "core": core},
            "literals": literals}


def _point(rng):
    prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    return f"{prefix}({period})^omega" if prefix else f"{period}^omega"


def cli_requests(size, s, workdir):
    """Write the instance files of one pass into workdir and return the
    pass's requests as (command, argv) in seeded order.  The argv name the
    files relative to workdir, so a request's output does not depend on
    where workdir is; the requests run with workdir as the current
    directory."""
    rng = random.Random(s)
    os.makedirs(workdir, exist_ok=True)
    counter = itertools.count()

    def put(payload):
        name = f"in{next(counter)}.json"
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(payload, fh)
        return name

    def make(kind, n):
        if kind in ("depletion", "walk", "star"):
            inst = _depletion_instance(rng, max(3, n // 5), n)
            if kind == "star":
                return ["star", "--in", put(inst)]
            s = _labels_subset(rng, inst["I"])
            argv = [kind, "--in", put(inst), "--s", ",".join(map(str, s))]
            if kind == "depletion":
                return argv
            x = rng.choice(inst["F"][str(s[0])])
            y = rng.choice(inst["F"][str(s[-1])])
            if rng.random() < 0.5:
                x, y = y, x
            return argv + ["--x", str(x), "--y", str(y)]
        if kind == "phi":
            return ["phi", "--in", put(_position_seq(rng, n)),
                    "--g", put(_position_seq(rng, n)), "--m", str(rng.randrange(n))]
        if kind == "universal-embed":
            return ["universal-embed", "--in", put(_relation_structure(rng, n))]
        if kind == "product":
            return ["product", "--in", put(_product(rng, n))]
        if kind == "chains":
            task = {"structure": _strict_order_structure(rng, n),
                    "formula": "(R x0 y0)"}
            return ["chains", "--in", put(task)]
        if kind == "chains-tail":
            # one order for every seed, relabelled by the seed: the cost of
            # random 150-element orders differs by up to 40%, which would
            # make the tail differ from seed to seed
            structure = _strict_order_structure(random.Random(0), n)
            label = list(range(n))
            rng.shuffle(label)
            pairs = [[label[a], label[b]] for a, b in structure["relations"]["R"]["tuples"]]
            rng.shuffle(pairs)
            structure["relations"]["R"]["tuples"] = pairs
            return ["chains", "--in", put({"structure": structure, "formula": "(R x0 y0)"})]
        if kind == "forcing-generic":
            argv = ["forcing", "generic", "--poset", put(_poset(rng, n)),
                    "--depth", "10"]
            return argv + (["--seed", str(rng.randrange(100))] if rng.random() < 0.5 else [])
        if kind == "forcing-pipeline":
            return ["forcing", "pipeline", "--poset", put(_poset(rng, n)),
                    "--depth", "3"]
        if kind == "tiepoint":
            return ["tiepoint", "--point", _point(rng), "--depth", str(n)]
        raise ValueError(kind)

    requests = []
    for kind, (count, n) in CLI_MIX[size].items():
        if kind == "chains-tail":
            # one structure asked for `count` times: the p99 of a run is then
            # the median of its latencies, not the edge between two structures
            requests += [(kind, make(kind, n))] * count
        else:
            requests += [(kind, make(kind, n)) for _ in range(count)]
    rng.shuffle(requests)
    return requests


def build(name, size, seed, workdir):
    """(warm-up ops, timed ops) of one run.  The warm-up of a suite workload
    is the same workload at the tiny size and seed 0, the same for every
    seed so that set-up time does not vary with it; the warm-up of the cli
    workload is the first request of each command."""
    expected = load_expected()
    s = seed % SEED_PERIOD
    if name == "cli":
        digests = expected["cli_stdout_sha256"][size][s]
        ops = [Op(label=kind, argv=argv, digest=digest) for (kind, argv), digest
               in zip(cli_requests(size, s, workdir), digests, strict=True)]
        first = {}
        for op in ops:
            first.setdefault(op.label, op)
        return list(first.values()), ops
    make = {"sweep": sweep, "calculus": calculus, "random": random_suites}[name]
    return make("tiny", 0, expected), make(size, s, expected)
