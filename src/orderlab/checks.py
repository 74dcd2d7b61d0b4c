"""Batch verification suites: exhaustive small-instance sweeps and seeded
randomized trials for every construction in the package.

Each check returns a dict with "ok", its "cases", and on failure a minimal
reproducing input under "failures".  A suite's keyword defaults are its
`small` contract arguments; `SUITES` names each suite and pins the cases it
reports at them.  `check-all` runs the table through `run_all`, which names
and times each entry; the acceptance tests run the same suites.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time
from operator import lt

from . import _kernels, schema
from .depletion import (DepletionInstance, depletion_order, depletion_rel,
                        star_condition)
from .errors import BudgetError, OrderlabError
from .fol import Atom, FiniteStructure, Not
from .forcing import (Condition, amalgamate, default_schedule, entry_op, extends,
                      generic_build, pipeline_embed, projection, quotient_member,
                      split_project, SplitInstance, verify_generic_embedding)
from .posets import (Poset, RelStructure, _isotype_levels, gather, list_pairs,
                     longest_chain, make_poset, reach)
from .redprod import FilterFamily, atomic_los_check, reduced_product
from .seqspace import eta, phi, position_profile, position_seq
from .tiepoint import (Clopen, Point, bulk_probe_check, clopen_to_mask,
                       complement, decomposition_invariant_failures,
                       expansion_axiom_check, join, leq, mask_to_clopen, meet,
                       tie_decompose, true_tie_check)
from .universal import Rel, embed_structure, rel, verify_embedding, witness


def _result(failures, cases, **extra):
    out = {"ok": not failures, "cases": cases}
    if failures:
        out["failures"] = failures[:5]
    out.update(extra)
    return out


# --- random generators ---------------------------------------------------------

def random_poset(rng, n, density=0.4):
    """Edges a -> b, each with probability density, for a before b in a
    shuffled order of range(n): a linear extension, so rows close in one pass back."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < density:
                rows[a] |= 1 << b
    for a in reversed(order):
        rows[a] |= reach(rows, rows[a])
    return Poset(range(n), rows, _validated=True)


def random_depletion_instance(rng, max_elems=10, max_labels=5):
    m = rng.randint(2, max_labels)
    labels = sorted(rng.sample(range(3 * max_labels), m))
    total = rng.randint(m, max_elems)
    core_size = rng.randint(0, max(0, total - m) // 2)
    ids = list(range(total))
    rng.shuffle(ids)
    core = ids[:core_size]
    rest = ids[core_size:]
    fibers = {lab: [] for lab in labels}
    for x in rest:
        fibers[rng.choice(labels)].append(x)
    order = random_poset(rng, total, density=rng.uniform(0.1, 0.5))
    return DepletionInstance(labels, core, fibers, order)


def _draw(rng, domain, depth, base=None, fixed=None):
    """A random condition at the given depth on domain, by the rule of
    ``_conditions``: element a takes fixed[a][:depth] when fixed names it;
    an element of base keeps base's values and draws the coordinates past
    base.depth; every other element draws every coordinate.  Coordinate k
    is uniform under its position bound, and the draws follow the iteration
    order of domain.  The result need not extend base."""
    fixed = fixed or {}
    bounds = position_profile(depth)
    f = {}
    for a in domain:
        if a in fixed:
            f[a] = fixed[a][:depth]
        elif base is not None and a in base.domain:
            f[a] = base.seq(a) + tuple(rng.randrange(b) for b in bounds[base.depth:])
        else:
            f[a] = tuple(rng.randrange(b) for b in bounds)
    return Condition(domain, depth, f)


def random_condition(rng, ground: Poset, max_depth=5):
    domain = rng.sample(list(ground.elements), rng.randint(0, len(ground)))
    return _draw(rng, domain, rng.randint(0, max_depth))


def random_extension(rng, ground: Poset, p: Condition, extra_elems=(),
                     new_depth=None):
    """A uniform-ish valid extension: fresh elements get free values, fresh
    coordinates are made monotone on p's domain by propagating maxima."""
    if new_depth is None:
        new_depth = p.depth + rng.randint(0, 3)
    domain = set(p.domain) | set(extra_elems)
    fresh = _draw(rng, domain - p.domain, p.depth)
    f = {a: list(c.seq(a)) for c in (p, fresh) for a in c.domain}
    bounds = position_profile(new_depth)
    for j in range(p.depth, new_depth):
        vals = {a: rng.randrange(bounds[j]) for a in domain}
        for a in sorted(domain):
            for b in p.domain:
                if b != a and a in p.domain and ground.leq(b, a):
                    vals[a] = max(vals[a], vals[b])
        for a in domain:
            f[a].append(vals[a])
    q = Condition(domain, new_depth, {a: tuple(v) for a, v in f.items()})
    assert extends(ground, q, p)
    return q


def random_root_family(rng):
    """Parts sharing a root template, as every amalgamation use requires:
    pairwise intersections equal the root, values on the root drawn from one
    deep template (so the deep side is monotone on related root pairs)."""
    ground = random_poset(rng, rng.randint(1, 6))
    elems = list(ground.elements)
    rng.shuffle(elems)
    root_size = rng.randint(0, max(0, len(elems) - 2))
    root = elems[:root_size]
    free = elems[root_size:]
    n0 = rng.randint(0, 3)
    r0 = _draw(rng, root, n0)
    n_max = n0 + rng.randint(0, 3)
    template = random_extension(rng, ground, r0, (), n_max)
    m = rng.randint(2, min(4, max(2, len(free) + 2)))
    buckets = [[] for _ in range(m)]
    for x in free:
        b = rng.randrange(m + 1)
        if b < m:
            buckets[b].append(x)
    on_root = {a: template.seq(a) for a in root}
    parts = [_draw(rng, root + bucket, rng.randint(n0, n_max), fixed=on_root)
             for bucket in buckets]
    return ground, parts, frozenset(root)


def random_tuples(rng, n, arity):
    """Each arity-tuple over range(n), in product order, kept with
    probability 0.4."""
    return [t for t in itertools.product(range(n), repeat=arity)
            if rng.random() < 0.4]


def random_structure(rng):
    n = rng.randint(1, 3)
    rels = {}
    for r in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        rels[f"R{r}"] = (arity, random_tuples(rng, n, arity))
    return FiniteStructure(range(n), rels)


# --- acceptance checks -----------------------------------------------------------

def check_phi_strict_increase(n_coords=6):
    """Exhaustive over all pairs in the position space with n_coords
    coordinates: domination from m plus one strict coordinate past max(m, 1)
    forces strict domination of the lifted sequences past it; and every
    single strict coordinate n >= 1 lifts to a strict step at n+1."""
    space = list(itertools.product(*map(range, position_profile(n_coords))))
    lifted = {v: phi(position_seq(v)).vals for v in space}
    failures = []
    cases = 0
    for f in space:
        pf = lifted[f]
        for g in space:
            pg = lifted[g]
            for n in range(1, n_coords):
                if f[n] < g[n] and not pf[n + 1] < pg[n + 1]:
                    failures.append({"f": f, "g": g, "n": n, "kind": "step"})
            # f <= g from m on exactly when m passes the last j with
            # f[j] > g[j]; strict[n]: every lifted coordinate past n is strict
            low = max([j + 1 for j in range(n_coords) if f[j] > g[j]], default=0)
            strict = [True] * (n_coords + 1)
            for n in range(n_coords - 1, 0, -1):
                strict[n] = strict[n + 1] and pf[n + 1] < pg[n + 1]
            for m in range(low, n_coords + 1):
                for n in range(max(m, 1), n_coords):
                    if f[n] < g[n]:
                        cases += 1
                        if not strict[n]:
                            failures.append({"f": f, "g": g, "m": m, "n": n})
    return _result(failures, cases)


def check_salient(n_max=12):
    """The recursion inequality at every coefficient m up to the bound
    itself, for each 1 <= n <= n_max.  A sweep whose terms would leave int64
    (n >= 13, about 6.2e9 coefficients) is refused before any sweep runs."""
    failures = []
    cases = 0
    terms = [(n, eta(n), sum(j * eta(j) for j in range(n)))
             for n in range(1, n_max + 1)]
    for n, e, s in terms:
        if not ((e + 1) * e < 1 << 62 and s + e * e < 1 << 62):
            raise BudgetError(f"the n = {n} coefficient sweep leaves int64")
    for n, e, s in terms:
        bad = _kernels.salient_violations(e, s, e)
        cases += e + 1
        if bad:
            failures.append({"n": n, "violations": bad})
    return _result(failures, cases)


def check_universal_witness(universe=13, max_size=5):
    """Exhaustive witness verification for all disjoint prescribed sets
    inside the universe with at most max_size members in total."""
    failures = []
    cases = 0
    base = list(range(universe))
    bound = 3 ** universe
    forward, backward, unrelated = Rel.FORWARD, Rel.BACKWARD, Rel.UNRELATED
    for k in range(1, max_size + 1):
        # the member indices on the F and on the G side, per pick
        splits = [([i for i in range(k) if pick >> i & 1],
                   [i for i in range(k) if not pick >> i & 1])
                  for pick in range(1 << k)]
        for members in itertools.combinations(base, k):
            for f_idx, g_idx in splits:
                f_set = [members[i] for i in f_idx]
                g_set = [members[i] for i in g_idx]
                n = witness(f_set, g_set)
                cases += 1
                # digits above the universe vanish since n < 3**universe, so
                # unrelatedness to m in [universe, n) is structural; the
                # positions below n and the prescribed ones are checked one
                # by one against the expected directions, plus samples
                want = [unrelated] * universe
                for m in f_set:
                    want[m] = forward
                for m in g_set:
                    want[m] = backward
                if n >= universe:  # every position of the universe lies below n
                    positions, expected = base, want
                else:
                    positions, expected = base[:n], want[:n]
                    if members[-1] >= n:  # a wrong witness: check the members above it too
                        extra = [m for m in members if m >= n]
                        positions += extra
                        expected += [want[m] for m in extra]
                got = list(map(rel, positions, itertools.repeat(n)))
                ok = n < bound and got == expected
                for m in (universe, universe + 5, n - 1):
                    if universe <= m < n and rel(m, n) is not unrelated:
                        ok = False
                if not ok:
                    failures.append({"F": f_set, "G": g_set, "n": n})
    return _result(failures, cases)


def check_depletion_poset(trials=10000, seed=0):
    """The depleted relation is a strict order contained in the ambient one."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_depletion_instance(rng)
        k = rng.randint(2, len(inst.labels))
        s = tuple(sorted(rng.sample(inst.labels, k)))
        try:
            dep = depletion_order(inst, s)
        except OrderlabError as e:
            failures.append({"instance": inst.to_json_dict(), "s": s, "error": str(e)})
            continue
        ambient = gather(inst.order._rows, [inst.order._index[e] for e in dep.elements])
        extra = [a & ~b for a, b in zip(dep._rows, ambient)]
        if any(extra):  # the first pair of dep outside the ambient order
            failures.append({"instance": inst.to_json_dict(), "s": s,
                             "pair": list(list_pairs(dep.elements, extra)[0])})
    return _result(failures, trials)


def check_depletion_monotone(trials=4000, seed=1):
    """Shrinking the index set only adds comparabilities; convex subsets
    agree with the restriction."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_depletion_instance(rng)
        kt = rng.randint(2, len(inst.labels))
        tset = tuple(sorted(rng.sample(inst.labels, kt)))
        ks = rng.randint(2, len(tset))
        sset = tuple(sorted(rng.sample(tset, ks)))
        lo = rng.randrange(len(tset))
        hi = rng.randrange(lo, len(tset))
        conv = tset[lo:hi + 1]
        try:
            dep_t = depletion_order(inst, tset)
            # a subset drawn equal to t has t's depletion
            dep_s = dep_t if sset == tset else depletion_order(inst, sset)
            dep_c = dep_t if conv == tset else (
                depletion_order(inst, conv) if len(conv) >= 2 else None)
        except OrderlabError as e:
            failures.append({"instance": inst.to_json_dict(), "t": tset,
                             "s": sset, "convex": conv, "error": str(e)})
            continue
        # a pair of the t-depletion missing over s, then any pair on which
        # the convex subset and t disagree
        found = []
        rows_t = gather(dep_t._rows, [dep_t._index[e] for e in dep_s.elements])
        extra = [a & ~b for a, b in zip(rows_t, dep_s._rows)]
        if any(extra):
            found += [(sset, p, "shrink-monotonicity")
                      for p in list_pairs(dep_s.elements, extra)]
        if dep_c is not None:
            rows_t = gather(dep_t._rows, [dep_t._index[e] for e in dep_c.elements])
            differ = [a ^ b for a, b in zip(rows_t, dep_c._rows)]
            if any(differ):
                found += [(conv, p, "convex-agreement")
                          for p in list_pairs(dep_c.elements, differ)]
        for sub, (x, y), kind in found:
            failures.append({"instance": inst.to_json_dict(), "t": tset,
                             "s": sub, "pair": [x, y], "kind": kind})
    return _result(failures, trials)


# The smallest instance exhibiting extra comparabilities after shrinking the
# index set: the middle fiber is unrelated to both endpoints, so the full
# interval admits no walk while the two-label subset does.  Found by the
# exhaustive search in tests/test_depletion.py and frozen here.
REM0_FIXTURE = {
    "I": [0, 1, 2],
    "A": [],
    "F": {"0": [0], "1": [1], "2": [2]},
    "edges": [[0, 2]],
}


def check_strictness_fixture():
    """The frozen instance shows a pair related over the two extreme labels
    but not over the full label set."""
    inst = schema.load("depletion instance", REM0_FIXTURE)
    failures = []
    if not depletion_rel(inst, (0, 2), 0, 2):
        failures.append({"kind": "sub-relation-missing"})
    if depletion_rel(inst, (0, 1, 2), 0, 2):
        failures.append({"kind": "full-relation-unexpected"})
    return _result(failures, 2)


def check_star_equivalence(trials=500, seed=2):
    """The full-interval criterion agrees with the exhaustive subset search."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for t in range(trials):
        inst = random_depletion_instance(rng, 10, 6)
        for i, xi in enumerate(inst.labels):
            for eta_lab in inst.labels[i + 1:]:
                cases += 1
                fast, _ = star_condition(inst, xi, eta_lab)
                slow, _ = star_condition(inst, xi, eta_lab, exhaustive=True)
                if fast != slow:
                    failures.append({"instance": inst.to_json_dict(),
                                     "pair": [xi, eta_lab],
                                     "fast": fast, "slow": slow})
    return _result(failures, cases)


def check_amalgamation(trials=1000, seed=3):
    """The constructed amalgam extends every part, over valid families."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        ground, parts, root = random_root_family(rng)
        try:
            q = amalgamate(ground, parts, root)
        except OrderlabError as e:
            failures.append({"poset": ground.to_json_dict(),
                             "parts": [p.to_json_dict() for p in parts],
                             "error": str(e)})
            continue
        for p in parts:
            if not extends(ground, q, p):
                failures.append({"poset": ground.to_json_dict(),
                                 "part": p.to_json_dict(), "q": q.to_json_dict()})
    return _result(failures, trials)


def _conditions(ground: Poset, carrier, depth, base=None, fixed=None):
    """Every condition at the given depth whose domain lies in carrier, by
    domain size, then domain, then assignment in product order.

    Element a takes fixed[a][:depth] when fixed names it.  With a base, the
    domain contains base's domain, base's elements keep their values below
    base.depth, and only the extensions of base are yielded.
    """
    fixed = fixed or {}
    known = base.domain if base is not None else frozenset()
    bounds = position_profile(depth)
    free = list(itertools.product(*map(range, bounds)))
    tails = list(itertools.product(
        *map(range, bounds[base.depth if base is not None else depth:])))
    must = sorted(known)
    rest = [a for a in sorted(carrier) if a not in known]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            dom = must + list(extra)
            domain = frozenset(dom)
            pools = []
            for a in dom:
                if a in fixed:
                    pools.append([tuple(fixed[a][:depth])])
                elif a in known:
                    pools.append([base.seq(a) + t for t in tails])
                else:
                    pools.append(free)
            for combo in itertools.product(*pools):
                q = Condition._trusted(domain, depth, dict(zip(dom, combo)))
                if base is None or extends(ground, q, base):
                    yield q


def _judge_entries(ground, p, ops, failures):
    """Apply each compiled (req, op) to p and record each result that does
    not extend p or misses req's set; returns the cases, one per op."""
    for req, op in ops:
        q = op(p)
        if req[0] == "D":
            _, n, a = req
            landed = q.depth >= n and a in q.domain
        else:
            _, n, a, b = req
            landed = any(map(lt, q.seq(a)[n:], q.seq(b)[n:]))
        if not (extends(ground, q, p) and landed):
            failures.append({"poset": ground.to_json_dict(),
                             "p": p.to_json_dict(), "req": list(req)})
    return len(ops)


def check_dense_entries(exhaustive_n=4, max_depth=4, trials=1000, seed=4):
    """Entry operations land in their target sets and extend their input:
    exhaustively on small posets and shallow conditions, randomized beyond."""
    failures = []
    cases = 0
    for level in itertools.islice(_isotype_levels(exhaustive_n), 1, None):
        for ground in level:
            # the isotype's requests, each compiled once
            ops = [(req, entry_op(ground, req))
                   for req in default_schedule(ground, max_depth)]
            for d in range(max_depth + 1):
                for p in _conditions(ground, ground.elements, d):
                    cases += _judge_entries(ground, p, ops, failures)
    rng = random.Random(seed)
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, 6))
        p = random_condition(rng, ground, max_depth=6)
        n = rng.randint(0, 8)
        a = rng.choice(ground.elements)
        reqs = [("D", n, a)]
        b = rng.choice(ground.elements)
        if a != b and not ground.leq(b, a):
            reqs.append(("E", n, a, b))
        ops = [(req, entry_op(ground, req)) for req in reqs]
        cases += _judge_entries(ground, p, ops, failures)
    return _result(failures, cases)


def _judge_pairs(ground, sub, p, qs, failures):
    """Amalgamate p with each q over p's part of sub and record each amalgam
    that raises or does not extend both; returns the cases, one per q."""
    root = p.domain & sub
    for q in qs:
        try:
            w = amalgamate(ground, [p, q], root)
        except OrderlabError as e:
            failures.append({"poset": ground.to_json_dict(), "sub": sorted(sub),
                             "p": p.to_json_dict(), "q": q.to_json_dict(),
                             "error": str(e)})
            continue
        if not (extends(ground, w, p) and extends(ground, w, q)):
            failures.append({"poset": ground.to_json_dict(), "sub": sorted(sub),
                             "p": p.to_json_dict(), "q": q.to_json_dict()})
    return len(qs)


def _reduction_grid(ground, max_depth, failures):
    """check_reduction's grid on one isotype; returns its cases."""
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground.elements, r)]
    below = {}  # each projection's extensions into its sub, enumerated once
    cases = 0
    for d in range(max_depth + 1):
        for p in _conditions(ground, ground.elements, d):
            for sub in subsets:
                pi = projection(sub, p)
                if not extends(ground, p, pi):
                    failures.append({"kind": "projection-not-weaker",
                                     "poset": ground.to_json_dict(),
                                     "p": p.to_json_dict(), "sub": sorted(sub)})
                qs = below.get((sub, pi.key()))
                if qs is None:
                    qs = below[sub, pi.key()] = [
                        q for dq in range(pi.depth, max_depth + 1)
                        for q in _conditions(ground, sub, dq, base=pi)]
                cases += _judge_pairs(ground, sub, p, qs, failures)
    return cases


def check_reduction(exhaustive_n=4, max_depth=3, trials=1000, seed=5):
    """Projection is a reduction: anything below the projection amalgamates
    with the original condition."""
    failures = []
    cases = 0
    for level in itertools.islice(_isotype_levels(exhaustive_n), 1, None):
        for ground in level:
            cases += _reduction_grid(ground, max_depth, failures)
    rng = random.Random(seed)
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, 6))
        sub = frozenset(rng.sample(list(ground.elements),
                                   rng.randint(0, len(ground))))
        p = random_condition(rng, ground, max_depth=5)
        pi = projection(sub, p)
        extra = [e for e in sub - pi.domain if rng.random() < 0.5]
        q = random_extension(rng, ground, pi, extra)
        cases += _judge_pairs(ground, sub, p, [q], failures)
    return _result(failures, cases)


def check_generic_embedding(max_n=6, budget=16):
    """Every poset isomorphism type up to max_n embeds with certificates."""
    failures = []
    cases = 0
    for level in _isotype_levels(max_n):
        for ground in level:
            cases += 1
            ge = generic_build(ground, budget)
            rep = verify_generic_embedding(ge)
            if not rep["ok"]:
                failures.append({"poset": ground.to_json_dict(),
                                 "failures": rep["failures"]})
    return _result(failures, cases, budget=budget)


def check_pipeline(trials=50, seed=6):
    """Random posets compose through the full pipeline with chain factors of
    the exact recursion lengths."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, 5))
        rep = pipeline_embed(ground, 3)
        if not rep["ok"]:
            failures.append({"poset": ground.to_json_dict(),
                             "pairs": [p for p in rep["pairs"] if not p["ok"]]})
    return _result(failures, trials)


def check_atomic_los(trials=1000, seed=7):
    """Double evaluation of literals in reduced products.

    Atomic formulas satisfy the equivalence over every proper filter;
    negated atomics are additionally checked over ultrafilters, where
    complementation makes the equivalence two-sided as well.
    """
    rng = random.Random(seed)
    failures = []
    cases = 0
    for t in range(trials):
        k = rng.randint(2, 4)
        proto = random_structure(rng)
        sig = {name: arity for name, (arity, _) in proto.relations.items()}
        n = len(proto)
        factors = [FiniteStructure(range(n), {name: (arity, random_tuples(rng, n, arity))
                                              for name, arity in sig.items()})
                   for _ in range(k)]
        core = frozenset(rng.sample(range(k), rng.randint(1, k)))
        filt = FilterFamily.principal(k, core)
        ultra = FilterFamily.principal_ultrafilter(k, rng.randrange(k))
        for filt_now, both_kinds in ((filt, False), (ultra, True)):
            rp = reduced_product(factors, filt_now)
            for name, arity in sig.items():
                vars_ = tuple(f"v{i}" for i in range(arity))
                combos = list(itertools.product(rp.class_reps, repeat=arity))
                if len(combos) > 16:
                    combos = [tuple(rng.choice(rp.class_reps) for _ in range(arity))
                              for _ in range(16)]
                for combo in combos:
                    kinds = [Atom(name, vars_)]
                    if both_kinds:
                        kinds.append(Not(Atom(name, vars_)))
                    for phi_lit in kinds:
                        cases += 1
                        ok, wit = atomic_los_check(rp, phi_lit, list(combo))
                        if not ok:
                            failures.append({
                                "factors": [f.to_json_dict() for f in factors],
                                "filter": filt_now.to_json_dict(),
                                "formula": str(phi_lit), "combo": [list(c) for c in combo],
                                "witness": sorted(wit)})
    return _result(failures, cases)


def check_tie_points(depth=4, seed=8):
    """All point prefixes at the given depth: the decomposition's invariants,
    the literal probe sweep over every clopen of that depth (32-bit masks, so
    depth <= 5) against its closed form, a sampled sweep through the
    antichain operations, and the expansion facts."""
    if 1 << depth > 32:
        raise BudgetError(f"the depth-{depth} probe sweep leaves 32-bit masks")
    rng = random.Random(seed)
    failures = []
    cases = 0
    for bits in itertools.product("01", repeat=depth):
        x = Point("".join(bits), "0")
        td = tie_decompose(x, depth)
        cases += 1
        inv = decomposition_invariant_failures(td)
        if inv:
            failures.append({"point": str(x), "invariants": inv})
            continue
        masks = [clopen_to_mask(u, depth) for u in (td.below, td.above)]
        swept = _kernels.probe_sweep(1 << (1 << depth), int(x.expand(depth), 2), *masks)
        certificate = bulk_probe_check(td)
        if swept[1] or swept != certificate:
            failures.append({"point": str(x), "swept": swept, "certificate": certificate})
            continue
        sample = [mask_to_clopen(rng.getrandbits(1 << depth), depth)
                  for _ in range(256)]
        rep = true_tie_check(td, sample)
        if not rep["ok"]:
            failures.append({"point": str(x), "sampled": rep["failures"]})
            continue
        if not expansion_axiom_check(td, depth):
            failures.append({"point": str(x), "kind": "expansion-axioms"})
    return _result(failures, cases, depth=depth)


def chain_length_brute(p: Poset):
    """The length of a longest chain, by depth-first search over every
    strictly increasing sequence (at most 2^n of them).  Independent of
    ``longest_chain``: it is the permutation scan restricted to the
    sequences that scan accepts."""
    lt = p.lt

    def grow(last, length):
        return max([grow(e, length + 1) for e in p.elements if lt(last, e)],
                   default=length)

    return max([grow(e, 1) for e in p.elements], default=0)


def check_poset_invariants(trials=400, seed=10):
    """Closure output is a strict order equal to random_poset's on the same
    draws; the converse is an involution; longest chains match brute force."""
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        n, density = rng.randint(0, 7), rng.uniform(0.1, 0.6)
        # random_poset's draws as edges for make_poset, then drawn again
        state = rng.getstate()
        order = list(range(n))
        rng.shuffle(order)
        p = make_poset(range(n), [(a, b) for i, a in enumerate(order)
                                  for b in order[i + 1:] if rng.random() < density])
        rng.setstate(state)
        if random_poset(rng, n, density) != p:
            failures.append({"poset": p.to_json_dict(), "kind": "direct-closure"})
            continue
        m = p.matrix()
        good = all(not m[i][i] for i in range(n)) and all(
            not (m[i][j] and m[j][i]) for i in range(n) for j in range(n)) and all(
            m[i][k] for i in range(n) for j in range(n) for k in range(n)
            if m[i][j] and m[j][k])
        if not good or p.converse().converse() != p:
            failures.append({"poset": p.to_json_dict()})
            continue
        if len(longest_chain(p)) != chain_length_brute(p):
            failures.append({"poset": p.to_json_dict(), "kind": "chain-length"})
    return _result(failures, trials)


def check_embed_roundtrip(trials=1000, seed=11):
    """Embedding a random asymmetric structure reproduces its relation
    matrix exactly."""
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        n = rng.randint(1, 8)
        pairs = []
        seen = set()
        for i in range(n):
            for j in range(n):
                if i != j and (j, i) not in seen and rng.random() < 0.3:
                    pairs.append((i, j))
                    seen.add((i, j))
        s = RelStructure.from_pairs(range(n), pairs)
        if not verify_embedding(s, embed_structure(s)):
            failures.append({"structure": s.to_json_dict()})
    return _result(failures, trials)


def check_clopen_ops(trials=600, seed=12):
    """The antichain operations agree with plain cell-set arithmetic, and
    every nonempty clopen strictly contains a nonempty smaller one."""
    rng = random.Random(seed)
    failures = []
    depth = 4
    full = (1 << (1 << depth)) - 1
    for _ in range(trials):
        mu, mv = rng.getrandbits(1 << depth), rng.getrandbits(1 << depth)
        u, v = mask_to_clopen(mu, depth), mask_to_clopen(mv, depth)
        ok = (clopen_to_mask(meet(u, v), depth) == mu & mv
              and clopen_to_mask(join(u, v), depth) == mu | mv
              and clopen_to_mask(complement(u), depth) == full ^ mu
              and leq(u, v) == (mu & ~mv == 0))
        if ok and mu:
            w = sorted(u.antichain)[0] + "0"
            smaller = Clopen.from_strings([w])
            ok = leq(smaller, u) and smaller != u and not smaller.is_empty
        if not ok:
            failures.append({"u": sorted(u.antichain), "v": sorted(v.antichain)})
    return _result(failures, trials)


def check_product_congruence(trials=200, seed=13):
    """Class formation is an equivalence compatible with every relation, and
    the one-point-core product collapses onto its chosen factor."""
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        k = rng.randint(2, 4)
        size = rng.randint(1, 3)
        factors = [FiniteStructure(range(size), {"R": (2, random_tuples(rng, size, 2))})
                   for _ in range(k)]
        filt = FilterFamily.principal(k, rng.sample(range(k), rng.randint(1, k)))
        rp = reduced_product(factors, filt)
        core = filt.core
        bad = False
        vectors = rp.vectors
        for v in vectors:
            w = tuple(rng.randrange(size) if n not in core else v[n]
                      for n in range(k))
            u = rng.choice(vectors)
            if not rp.same_class(v, w) or rp.holds("R", [v, u]) != rp.holds("R", [w, u]):
                bad = True
        point = rng.randrange(k)
        rpu = reduced_product(factors, FilterFamily.principal_ultrafilter(k, point))
        target = factors[point]
        if len(rpu.class_reps) != len(target):
            bad = True
        for u_el in target.universe:
            for v_el in target.universe:
                vec_u = tuple(rng.choice(f.universe) if n != point else u_el
                              for n, f in enumerate(factors))
                vec_v = tuple(rng.choice(f.universe) if n != point else v_el
                              for n, f in enumerate(factors))
                if rpu.holds("R", [vec_u, vec_v]) != target.holds("R", (u_el, v_el)):
                    bad = True
        if bad:
            failures.append({"factors": [f.to_json_dict() for f in factors],
                             "filter": filt.to_json_dict()})
    return _result(failures, trials)


def check_split_density(seed=9, trials=40):
    """Projection pairs: side projections preserve extension, and pairs of
    side conditions below a projected condition that agree with a fixed
    overlap embedding amalgamate back, with side projections below the pair."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for t in range(trials):
        n = rng.randint(2, 5)
        elems = list(range(n))
        rng.shuffle(elems)
        cut = rng.randint(1, n - 1)
        overlap_size = rng.randint(0, min(2, n - cut))
        left = frozenset(elems[:cut + overlap_size])
        right = frozenset(elems[cut:])
        edges = []
        for side in (left, right):
            sl = sorted(side)
            for i in range(len(sl)):
                for j in range(len(sl)):
                    if i != j and rng.random() < 0.3:
                        edges.append((sl[i], sl[j]))
        try:
            ground = make_poset(elems, edges)
            inst = SplitInstance(ground, left, right)
        except OrderlabError:
            continue
        overlap = sorted(inst.overlap)
        ups = generic_build(ground.restrict(overlap), 3) if overlap else None
        upsilon = {a: ups.values[a] for a in overlap} if ups else {}
        up_depth = len(next(iter(upsilon.values()))) if upsilon else 4
        depth_p = rng.randint(0, min(3, up_depth))
        dom_p = [a for a in elems if rng.random() < 0.5]
        p = _draw(rng, dom_p, depth_p, fixed=upsilon)
        pa, pb = split_project(inst, p)
        ext = random_extension(rng, ground, p)
        ea, eb = split_project(inst, ext)
        cases += 1
        if not (extends(ground, ea, pa) and extends(ground, eb, pb)):
            failures.append({"kind": "projection-extension",
                             "poset": ground.to_json_dict(), "p": p.to_json_dict()})
            continue
        # side conditions below the projections, agreeing with the overlap
        # embedding; their amalgam projects below each of them
        for _ in range(4):
            du = rng.randint(depth_p, min(depth_p + 1, up_depth))
            dv = rng.randint(depth_p, min(depth_p + 1, up_depth))
            dom_u = set(pa.domain) | {a for a in inst.left if rng.random() < 0.5}
            dom_v = set(pb.domain) | {b for b in inst.right if rng.random() < 0.5}
            u = _draw(rng, dom_u, du, base=pa, fixed=upsilon)
            v = _draw(rng, dom_v, dv, base=pb, fixed=upsilon)
            if not (extends(ground, u, pa) and extends(ground, v, pb)):
                continue
            cases += 1
            if not (quotient_member(inst.overlap, upsilon, u)
                    and quotient_member(inst.overlap, upsilon, v)):
                failures.append({"kind": "generator-bug"})
                continue
            try:
                w = amalgamate(ground, [u, v], u.domain & v.domain)
            except OrderlabError as e:
                failures.append({"kind": "pair-amalgamation", "error": str(e),
                                 "u": u.to_json_dict(), "v": v.to_json_dict()})
                continue
            wa, wb = split_project(inst, w)
            if not (extends(ground, wa, u) and extends(ground, wb, v)):
                failures.append({"kind": "density", "u": u.to_json_dict(),
                                 "v": v.to_json_dict(), "w": w.to_json_dict()})
    return _result(failures, cases)


def check_split_density_exhaustive():
    """Exhaustive density on two frozen split instances: for every base
    condition agreeing with the overlap embedding and every pair of side
    conditions below its projections (same agreement, bounded depth), the
    amalgam's side projections land below the pair."""
    failures = []
    cases = 0
    instances = []
    g1 = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    instances.append(SplitInstance(g1, frozenset({0, 1}), frozenset({1, 2})))
    g2 = make_poset({0, 1, 2, 3}, {(0, 1), (1, 2), (2, 3)})
    instances.append(SplitInstance(g2, frozenset({0, 1, 2}),
                                   frozenset({1, 2, 3})))
    for inst in instances:
        ground = inst.ground
        overlap = sorted(inst.overlap)
        ups = generic_build(ground.restrict(overlap), 4)
        upsilon = {a: ups.values[a] for a in overlap}
        up_depth = min(len(v) for v in upsilon.values())
        cap = min(4, up_depth)

        for p in _conditions(ground, ground.elements, cap - 1, fixed=upsilon):
            pa = projection(inst.left, p)
            pb = projection(inst.right, p)
            us = list(_conditions(ground, inst.left, cap, base=pa, fixed=upsilon))
            vs = list(_conditions(ground, inst.right, cap, base=pb, fixed=upsilon))
            for u in us:
                for v in vs:
                    cases += 1
                    try:
                        w = amalgamate(ground, [u, v], u.domain & v.domain)
                    except OrderlabError as e:
                        failures.append({"u": u.to_json_dict(),
                                         "v": v.to_json_dict(), "error": str(e)})
                        continue
                    wa, wb = split_project(inst, w)
                    if not (extends(ground, wa, u) and extends(ground, wb, v)
                            and quotient_member(inst.overlap, upsilon, w)):
                        failures.append({"u": u.to_json_dict(),
                                         "v": v.to_json_dict(),
                                         "w": w.to_json_dict()})
    return _result(failures, cases)


# --- suite registry ---------------------------------------------------------------

BUDGETS = {
    "small": 1.0,
    "medium": 3.0,
    "large": 10.0,
}


# Each suite in report order: its report name, the suite, and the cases it
# reports at its defaults
SUITES = (
    ("phi-strict-increase", check_phi_strict_increase, 35970),
    ("salient-inequality", check_salient, 522956325),
    ("universal-witness", check_universal_witness, 55250),
    ("depletion-partial-order", check_depletion_poset, 10000),
    ("depletion-monotone-and-convex", check_depletion_monotone, 4000),
    ("shrink-strictness-fixture", check_strictness_fixture, 2),
    ("star-criterion-equivalence", check_star_equivalence, 3482),
    ("amalgamation", check_amalgamation, 1000),
    ("dense-set-entry", check_dense_entries, 2657486),
    ("projection-reduction", check_reduction, 247228),
    ("generic-embedding", check_generic_embedding, 406),
    ("pipeline-embedding", check_pipeline, 50),
    ("atomic-los", check_atomic_los, 20463),
    ("true-tie-points", check_tie_points, 16),
    ("split-projection-density", check_split_density, 133),
    ("split-density-exhaustive", check_split_density_exhaustive, 4550),
    ("poset-invariants", check_poset_invariants, 400),
    ("universal-embedding-roundtrip", check_embed_roundtrip, 1000),
    ("clopen-operations", check_clopen_ops, 600),
    ("product-congruence-and-collapse", check_product_congruence, 200),
)


def run_all(budget="small", seed=0):
    """Every suite of `SUITES`, its default `trials` scaled by the budget and
    its default `seed` shifted by seed, as (entry, seconds) pairs in report
    order: the suite's verdict under the row's report name, and the wall
    time of the call.  At small and seed 0, a suite off its pin fails.  A
    suite that raises is reported as failed, with the exception, and the
    suites after it still run."""
    scale = BUDGETS[budget]
    pinned = budget == "small" and seed == 0
    results = []
    for name, suite, cases in SUITES:
        params = inspect.signature(suite).parameters
        kwargs = {}
        if "trials" in params:
            kwargs["trials"] = int(params["trials"].default * scale)
        if "seed" in params:
            kwargs["seed"] = params["seed"].default + seed
        t0 = time.perf_counter()
        try:
            entry = {"name": name, **suite(**kwargs)}
        except Exception as e:
            entry = {"name": name, "ok": False, "error": f"{type(e).__name__}: {e}"}
        else:
            if pinned and entry["cases"] != cases:
                entry["ok"] = False
                entry.setdefault("failures", []).append(
                    {"kind": "cases", "expected": cases})
        results.append((entry, time.perf_counter() - t0))
    return results
