"""Batch verification suites: exhaustive small-instance sweeps and seeded
randomized trials for every construction in the package.

Each check returns a dict with "name", "ok", counters, and on failure a
minimal reproducing input under "failures".  The command-line driver runs
them as `check-all`; the acceptance tests pin the same functions at their
contract budgets.
"""

from __future__ import annotations

import itertools
import random
import time

from . import _kernels
from .depletion import (DepletionInstance, depletion_order, depletion_rel,
                        star_condition)
from .errors import OrderlabError
from .fol import Atom, FiniteStructure, Not
from .forcing import (Condition, amalgamate, extend_into_D,
                      extend_into_E, extends, generic_build, pipeline_embed,
                      projection, quotient_member, split_project, SplitInstance,
                      verify_generic_embedding)
from .posets import Poset, enumerate_poset_isotypes, make_poset
from .redprod import FilterFamily, atomic_los_check, reduced_product
from .seqspace import eta, phi, position_seq
from .tiepoint import (Clopen, Point, bulk_probe_check,
                       decomposition_invariant_failures, expansion_axiom_check,
                       mask_to_clopen, tie_decompose, true_tie_check)
from .universal import Rel, rel, witness


def _result(name, failures, cases, t0, **extra):
    out = {"name": name, "ok": not failures, "cases": cases,
           "elapsed_s": round(time.perf_counter() - t0, 3)}
    if failures:
        out["failures"] = failures[:5]
    out.update(extra)
    return out


# --- random generators ---------------------------------------------------------

def random_poset(rng, n, density=0.4):
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((order[i], order[j]))
    return make_poset(range(n), edges)


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


def random_seq_vals(rng, depth):
    return tuple(rng.randrange(max(k, 1)) for k in range(depth))


def random_condition(rng, ground: Poset, max_depth=5, domain=None):
    if domain is None:
        k = rng.randint(0, len(ground))
        domain = rng.sample(list(ground.elements), k)
    depth = rng.randint(0, max_depth)
    return Condition(domain, depth, {a: random_seq_vals(rng, depth) for a in domain})


def random_extension(rng, ground: Poset, p: Condition, extra_elems=(),
                     new_depth=None):
    """A uniform-ish valid extension: fresh elements get free values, fresh
    coordinates are made monotone on p's domain by propagating maxima."""
    if new_depth is None:
        new_depth = p.depth + rng.randint(0, 3)
    domain = set(p.domain) | set(extra_elems)
    f = {}
    for a in p.domain:
        f[a] = list(p.seq(a))
    for a in domain - p.domain:
        f[a] = [rng.randrange(max(k, 1)) for k in range(p.depth)]
    for j in range(p.depth, new_depth):
        vals = {a: rng.randrange(max(j, 1)) for a in domain}
        for a in sorted(domain):
            for b in p.domain:
                if b != a and a in p.domain and ground.leq(b, a):
                    vals[a] = max(vals[a], vals[b])
        for a in domain:
            f[a].append(vals[a])
    q = Condition(domain, new_depth, {a: tuple(v) for a, v in f.items()})
    assert extends(ground, q, p)
    return q


def random_root_family(rng, max_elems=6):
    """Parts sharing a root template, as every amalgamation use requires:
    pairwise intersections equal the root, values on the root drawn from one
    deep template (so the deep side is monotone on related root pairs)."""
    ground = random_poset(rng, rng.randint(1, max_elems))
    elems = list(ground.elements)
    rng.shuffle(elems)
    root_size = rng.randint(0, max(0, len(elems) - 2))
    root = elems[:root_size]
    free = elems[root_size:]
    n0 = rng.randint(0, 3)
    r0 = Condition(root, n0, {a: random_seq_vals(rng, n0) for a in root})
    n_max = n0 + rng.randint(0, 3)
    template = random_extension(rng, ground, r0, (), n_max)
    m = rng.randint(2, min(4, max(2, len(free) + 2)))
    buckets = [[] for _ in range(m)]
    for x in free:
        b = rng.randrange(m + 1)
        if b < m:
            buckets[b].append(x)
    parts = []
    for i in range(m):
        n_i = rng.randint(n0, n_max)
        trunc = Condition(root, n_i, {a: template.seq(a)[:n_i] for a in root})
        f = {a: trunc.seq(a) for a in root}
        for x in buckets[i]:
            f[x] = random_seq_vals(rng, n_i)
        parts.append(Condition(set(root) | set(buckets[i]), n_i, f))
    return ground, parts, frozenset(root)


def random_structure(rng, max_universe=3, max_rels=2):
    n = rng.randint(1, max_universe)
    rels = {}
    for r in range(rng.randint(1, max_rels)):
        arity = rng.randint(1, 2)
        tuples = [t for t in itertools.product(range(n), repeat=arity)
                  if rng.random() < 0.4]
        rels[f"R{r}"] = (arity, tuples)
    return FiniteStructure(range(n), rels)


def random_point(rng, prefix_len=None):
    if prefix_len is None:
        prefix_len = rng.randint(0, 4)
    prefix = "".join(rng.choice("01") for _ in range(prefix_len))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    return Point(prefix, period)


# --- acceptance checks -----------------------------------------------------------

def check_phi_strict_increase(n_coords=6):
    """Exhaustive over all pairs in the position space with n_coords
    coordinates: domination from m plus one strict coordinate past max(m, 1)
    forces strict domination of the lifted sequences past it; and every
    single strict coordinate n >= 1 lifts to a strict step at n+1."""
    t0 = time.perf_counter()
    space = [tuple(v) for v in itertools.product(
        *[range(max(k, 1)) for k in range(n_coords)])]
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
            for m in range(n_coords + 1):
                if all(f[j] <= g[j] for j in range(m, n_coords)):
                    for n in range(max(m, 1), n_coords):
                        if f[n] < g[n]:
                            cases += 1
                            if not all(pf[j] < pg[j] for j in range(n + 1, n_coords + 1)):
                                failures.append({"f": f, "g": g, "m": m, "n": n})
    return _result("phi-strict-increase", failures, cases, t0)


def check_salient(n_max=12):
    """The recursion inequality at every coefficient m up to the bound
    itself, for each 1 <= n <= n_max."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for n in range(1, n_max + 1):
        e = eta(n)
        s = sum(j * eta(j) for j in range(n))
        m_max = e
        if (m_max + 1) * e < 1 << 62 and s + m_max * e < 1 << 62:
            bad = _kernels.salient_violations(e, s, m_max)
        else:
            bad = _kernels.salient_violations_bigint(e, s, m_max)
        cases += m_max + 1
        if bad:
            failures.append({"n": n, "violations": bad})
    return _result("salient-inequality", failures, cases, t0)


def check_universal_witness(universe=13, max_size=5):
    """Exhaustive witness verification for all disjoint prescribed sets
    inside the universe with at most max_size members in total."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    base = list(range(universe))
    for k in range(1, max_size + 1):
        for members in itertools.combinations(base, k):
            for pick in range(1 << k):
                f_set = frozenset(m for i, m in enumerate(members) if pick >> i & 1)
                g_set = frozenset(members) - f_set
                n = witness(f_set, g_set)
                cases += 1
                # digits above the universe vanish since n < 3**universe, so
                # unrelatedness to m in [universe, n) is structural; the
                # smaller positions are checked one by one, plus samples
                ok = n < 3 ** universe
                for m in base:
                    if m in f_set:
                        want = Rel.FORWARD
                    elif m in g_set:
                        want = Rel.BACKWARD
                    elif m < n:
                        want = Rel.UNRELATED
                    else:
                        continue  # nothing is prescribed about larger numbers
                    if rel(m, n) is not want:
                        ok = False
                for m in (universe, universe + 5, n - 1):
                    if universe <= m < n and rel(m, n) is not Rel.UNRELATED:
                        ok = False
                if not ok:
                    failures.append({"F": sorted(f_set), "G": sorted(g_set), "n": n})
    return _result("universal-witness", failures, cases, t0)


def check_depletion_poset(trials=10000, seed=0, max_elems=10, max_labels=5):
    """The depleted relation is a strict order contained in the ambient one."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_depletion_instance(rng, max_elems, max_labels)
        k = rng.randint(2, len(inst.labels))
        s = tuple(sorted(rng.sample(inst.labels, k)))
        try:
            dep = depletion_order(inst, s)
        except OrderlabError as e:
            failures.append({"instance": inst.to_json_dict(), "s": s, "error": str(e)})
            continue
        for a, b in dep.pairs():
            if not inst.order.leq(a, b):
                failures.append({"instance": inst.to_json_dict(), "s": s,
                                 "pair": [a, b]})
                break
    return _result("depletion-partial-order", failures, trials, t0)


def check_depletion_monotone(trials=4000, seed=1, max_elems=10, max_labels=5):
    """Shrinking the index set only adds comparabilities; convex subsets
    agree with the restriction."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_depletion_instance(rng, max_elems, max_labels)
        kt = rng.randint(2, len(inst.labels))
        tset = tuple(sorted(rng.sample(inst.labels, kt)))
        ks = rng.randint(2, len(tset))
        sset = tuple(sorted(rng.sample(tset, ks)))
        dom_s = sorted(inst.domain(sset))
        for x in dom_s:
            for y in dom_s:
                if depletion_rel(inst, tset, x, y) and not depletion_rel(inst, sset, x, y):
                    failures.append({"instance": inst.to_json_dict(),
                                     "t": tset, "s": sset, "pair": [x, y],
                                     "kind": "shrink-monotonicity"})
        lo = rng.randrange(len(tset))
        hi = rng.randrange(lo, len(tset))
        conv = tset[lo:hi + 1]
        if len(conv) >= 2:
            dom_c = sorted(inst.domain(conv))
            for x in dom_c:
                for y in dom_c:
                    if depletion_rel(inst, conv, x, y) != depletion_rel(inst, tset, x, y):
                        failures.append({"instance": inst.to_json_dict(),
                                         "t": tset, "s": conv, "pair": [x, y],
                                         "kind": "convex-agreement"})
    return _result("depletion-monotone-and-convex", failures, trials, t0)


# The smallest instance exhibiting extra comparabilities after shrinking the
# index set: the middle fiber is unrelated to both endpoints, so the full
# interval admits no walk while the two-label subset does.  Found by
# search_strictness_witness and frozen here.
REM0_FIXTURE = {
    "I": [0, 1, 2],
    "A": [],
    "F": {"0": [0], "1": [1], "2": [2]},
    "edges": [[0, 2]],
}


def search_strictness_witness(max_per_part=2, max_labels=3):
    """Exhaustive hunt for an instance where the depleted relation over a
    subset properly extends the restriction of the full one."""
    labels = list(range(max_labels))
    for core_size in range(0, 2):
        for sizes in itertools.product(range(max_per_part + 1), repeat=max_labels):
            if any(sz == 0 for sz in sizes[:1] + sizes[-1:]):
                continue
            ids = list(range(core_size + sum(sizes)))
            core = ids[:core_size]
            fibers = {}
            at = core_size
            for lab, sz in zip(labels, sizes):
                fibers[lab] = ids[at:at + sz]
                at += sz
            pool = [(a, b) for a in ids for b in ids if a != b]
            for mask in range(1 << len(pool)):
                edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
                try:
                    order = make_poset(ids, edges)
                    inst = DepletionInstance(labels, core, fibers, order)
                except OrderlabError:
                    continue
                sub = (labels[0], labels[-1])
                for x in fibers[labels[0]]:
                    for y in fibers[labels[-1]]:
                        if depletion_rel(inst, sub, x, y) and \
                                not depletion_rel(inst, tuple(labels), x, y):
                            return inst, sub, (x, y)
    return None


def check_strictness_fixture():
    """The frozen instance shows a pair related over the two extreme labels
    but not over the full label set."""
    t0 = time.perf_counter()
    inst = DepletionInstance.from_json_dict(REM0_FIXTURE)
    failures = []
    if not depletion_rel(inst, (0, 2), 0, 2):
        failures.append({"kind": "sub-relation-missing"})
    if depletion_rel(inst, (0, 1, 2), 0, 2):
        failures.append({"kind": "full-relation-unexpected"})
    return _result("shrink-strictness-fixture", failures, 2, t0)


def check_star_equivalence(trials=500, seed=2, max_labels=6, max_elems=10):
    """The full-interval criterion agrees with the exhaustive subset search."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    cases = 0
    for t in range(trials):
        inst = random_depletion_instance(rng, max_elems, max_labels)
        for i, xi in enumerate(inst.labels):
            for eta_lab in inst.labels[i + 1:]:
                cases += 1
                fast, _ = star_condition(inst, xi, eta_lab)
                slow, _ = star_condition(inst, xi, eta_lab, exhaustive=True)
                if fast != slow:
                    failures.append({"instance": inst.to_json_dict(),
                                     "pair": [xi, eta_lab],
                                     "fast": fast, "slow": slow})
    return _result("star-criterion-equivalence", failures, cases, t0)


def check_amalgamation(trials=1000, seed=3, max_elems=6):
    """The constructed amalgam extends every part, over valid families."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        ground, parts, root = random_root_family(rng, max_elems)
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
    return _result("amalgamation", failures, trials, t0)


def _enumerate_conditions(ground: Poset, max_depth):
    elems = list(ground.elements)
    per_depth = {}
    for d in range(max_depth + 1):
        per_depth[d] = [tuple(v) for v in itertools.product(
            *[range(max(k, 1)) for k in range(d)])]
    for r in range(len(elems) + 1):
        for dom in itertools.combinations(elems, r):
            for d in range(max_depth + 1):
                for combo in itertools.product(per_depth[d], repeat=r):
                    yield Condition(dom, d, dict(zip(dom, combo)))


def check_dense_entries(exhaustive_n=4, max_depth=4, trials=1000, seed=4):
    """Entry operations land in their target sets and extend their input:
    exhaustively on small posets and shallow conditions, randomized beyond."""
    t0 = time.perf_counter()
    failures = []
    cases = 0

    def try_entries(ground, p, budget):
        nonlocal cases
        for n in range(budget + 1):
            for a in ground.elements:
                q = extend_into_D(ground, p, n, a)
                cases += 1
                if not (extends(ground, q, p) and q.depth >= n and a in q.domain):
                    failures.append({"poset": ground.to_json_dict(),
                                     "p": p.to_json_dict(), "req": ["D", n, a]})
            for a in ground.elements:
                for b in ground.elements:
                    if a == b or ground.leq(b, a):
                        continue
                    q = extend_into_E(ground, p, n, a, b)
                    cases += 1
                    strict = any(q.seq(a)[k] < q.seq(b)[k]
                                 for k in range(n, q.depth))
                    if not (extends(ground, q, p) and strict):
                        failures.append({"poset": ground.to_json_dict(),
                                         "p": p.to_json_dict(), "req": ["E", n, a, b]})

    for n in range(1, exhaustive_n + 1):
        for ground in enumerate_poset_isotypes(n):
            for p in _enumerate_conditions(ground, max_depth):
                try_entries(ground, p, max_depth)
    rng = random.Random(seed)
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, 6))
        p = random_condition(rng, ground, max_depth=6)
        n = rng.randint(0, 8)
        a = rng.choice(ground.elements)
        q = extend_into_D(ground, p, n, a)
        cases += 1
        if not (extends(ground, q, p) and q.depth >= n and a in q.domain):
            failures.append({"poset": ground.to_json_dict(),
                             "p": p.to_json_dict(), "req": ["D", n, a]})
        b = rng.choice(ground.elements)
        if a != b and not ground.leq(b, a):
            q = extend_into_E(ground, p, n, a, b)
            cases += 1
            strict = any(q.seq(a)[k] < q.seq(b)[k] for k in range(n, q.depth))
            if not (extends(ground, q, p) and strict):
                failures.append({"poset": ground.to_json_dict(),
                                 "p": p.to_json_dict(), "req": ["E", n, a, b]})
    return _result("dense-set-entry", failures, cases, t0)


def check_reduction(exhaustive_n=4, max_depth=3, trials=1000, seed=5):
    """Projection is a reduction: anything below the projection amalgamates
    with the original condition."""
    t0 = time.perf_counter()
    failures = []
    cases = 0

    def check_pair(ground, sub, p, q):
        nonlocal cases
        cases += 1
        root = p.domain & frozenset(sub)
        try:
            w = amalgamate(ground, [p, q], root)
        except OrderlabError as e:
            failures.append({"poset": ground.to_json_dict(), "sub": sorted(sub),
                             "p": p.to_json_dict(), "q": q.to_json_dict(),
                             "error": str(e)})
            return
        if not (extends(ground, w, p) and extends(ground, w, q)):
            failures.append({"poset": ground.to_json_dict(), "sub": sorted(sub),
                             "p": p.to_json_dict(), "q": q.to_json_dict()})

    for n in range(1, exhaustive_n + 1):
        for ground in enumerate_poset_isotypes(n):
            subsets = [frozenset(c) for r in range(n + 1)
                       for c in itertools.combinations(ground.elements, r)]
            for p in _enumerate_conditions(ground, max_depth):
                for sub in subsets:
                    pi = projection(sub, p)
                    if not extends(ground, p, pi):
                        failures.append({"kind": "projection-not-weaker",
                                         "p": p.to_json_dict(), "sub": sorted(sub)})
                    for dq in range(pi.depth, max_depth + 1):
                        extra_pool = sorted(frozenset(sub) - pi.domain)
                        for r in range(len(extra_pool) + 1):
                            for extra in itertools.combinations(extra_pool, r):
                                for q in _extensions_at(ground, pi, extra, dq):
                                    check_pair(ground, sub, p, q)
    rng = random.Random(seed)
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, 6))
        sub = frozenset(rng.sample(list(ground.elements),
                                   rng.randint(0, len(ground))))
        p = random_condition(rng, ground, max_depth=5)
        pi = projection(sub, p)
        extra = [e for e in sub - pi.domain if rng.random() < 0.5]
        q = random_extension(rng, ground, pi, extra)
        check_pair(ground, sub, p, q)
    return _result("projection-reduction", failures, cases, t0)


def _extensions_at(ground, base: Condition, extra, depth):
    """All extensions of base with the given fresh elements and depth."""
    elems = sorted(base.domain) + list(extra)
    tail_space = [range(max(j, 1)) for j in range(base.depth, depth)]
    full_space = [range(max(j, 1)) for j in range(depth)]
    choices = []
    for a in elems:
        if a in base.domain:
            opts = [base.seq(a) + t for t in itertools.product(*tail_space)]
        else:
            opts = [tuple(v) for v in itertools.product(*full_space)]
        choices.append(opts)
    for combo in itertools.product(*choices):
        q = Condition(elems, depth, dict(zip(elems, combo)))
        if extends(ground, q, base):
            yield q


def check_generic_embedding(max_n=6, budget=16):
    """Every poset isomorphism type up to max_n embeds with certificates."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for n in range(max_n + 1):
        for ground in enumerate_poset_isotypes(n):
            cases += 1
            ge = generic_build(ground, budget)
            rep = verify_generic_embedding(ge)
            if not rep["ok"]:
                failures.append({"poset": ground.to_json_dict(),
                                 "failures": rep["failures"]})
    return _result("generic-embedding", failures, cases, t0, budget=budget)


def check_pipeline(trials=50, seed=6, max_n=5, budget=3):
    """Random posets compose through the full pipeline with chain factors of
    the exact recursion lengths."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        ground = random_poset(rng, rng.randint(1, max_n))
        rep = pipeline_embed(ground, budget)
        if not rep["ok"]:
            failures.append({"poset": ground.to_json_dict(),
                             "pairs": [p for p in rep["pairs"] if not p["ok"]]})
    return _result("pipeline-embedding", failures, trials, t0)


def check_atomic_los(trials=1000, seed=7):
    """Double evaluation of literals in reduced products.

    Atomic formulas satisfy the equivalence over every proper filter;
    negated atomics are additionally checked over ultrafilters, where
    complementation makes the equivalence two-sided as well.
    """
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    cases = 0
    for t in range(trials):
        k = rng.randint(2, 4)
        proto = random_structure(rng)
        sig = {name: arity for name, (arity, _) in proto.relations.items()}
        factors = []
        for _ in range(k):
            n = len(proto)
            rels = {name: (arity, [tp for tp in itertools.product(range(n), repeat=arity)
                                   if rng.random() < 0.4])
                    for name, arity in sig.items()}
            factors.append(FiniteStructure(range(n), rels))
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
    return _result("atomic-los", failures, cases, t0)


def check_tie_points(depth=4, seed=8, op_sample=256):
    """All point prefixes at the given depth: the decomposition's invariants,
    the exhaustive probe sweep over every clopen of that depth (via the
    validated mask view), a sampled sweep through the antichain operations,
    and the expansion facts."""
    t0 = time.perf_counter()
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
        checked, bad = bulk_probe_check(td)
        if bad or checked != (1 << (1 << depth)) // 2:
            failures.append({"point": str(x), "bulk": [checked, bad]})
            continue
        sample = [mask_to_clopen(rng.getrandbits(1 << depth), depth)
                  for _ in range(op_sample)]
        rep = true_tie_check(td, sample)
        if not rep["ok"]:
            failures.append({"point": str(x), "sampled": rep["failures"]})
            continue
        if not expansion_axiom_check(td, depth):
            failures.append({"point": str(x), "kind": "expansion-axioms"})
    return _result("true-tie-points", failures, cases, t0, depth=depth)


def check_poset_invariants(trials=400, seed=10):
    """Closure output is a strict order; the converse is an involution; the
    longest chain matches the brute-force maximum."""
    import itertools as it
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        n = rng.randint(0, 7)
        p = random_poset(rng, n, rng.uniform(0.1, 0.6))
        m = p.matrix()
        good = all(not m[i][i] for i in range(n)) and all(
            not (m[i][j] and m[j][i]) for i in range(n) for j in range(n)) and all(
            m[i][k] for i in range(n) for j in range(n) for k in range(n)
            if m[i][j] and m[j][k])
        from .posets import converse, longest_chain
        if not good or converse(converse(p)) != p:
            failures.append({"poset": p.to_json_dict()})
            continue
        best = 0
        for r in range(n + 1):
            for seq in it.permutations(p.elements, r):
                if all(p.lt(a, b) for a, b in zip(seq, seq[1:])):
                    best = max(best, r)
        if len(longest_chain(p)) != best:
            failures.append({"poset": p.to_json_dict(), "kind": "chain-length"})
    return _result("poset-invariants", failures, trials, t0)


def check_embed_roundtrip(trials=1000, seed=11, max_size=8):
    """Embedding a random asymmetric structure reproduces its relation
    matrix exactly."""
    from .posets import RelStructure
    from .universal import embed_structure, verify_embedding
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        n = rng.randint(1, max_size)
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
    return _result("universal-embedding-roundtrip", failures, trials, t0)


def check_clopen_ops(trials=600, seed=12, depth=4):
    """The antichain operations agree with plain cell-set arithmetic, and
    every nonempty clopen strictly contains a nonempty smaller one."""
    from .tiepoint import clopen_to_mask, complement, join, leq, meet
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
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
    return _result("clopen-operations", failures, trials, t0)


def check_product_congruence(trials=200, seed=13):
    """Class formation is an equivalence compatible with every relation, and
    the one-point-core product collapses onto its chosen factor."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        k = rng.randint(2, 4)
        size = rng.randint(1, 3)
        factors = [FiniteStructure(
            range(size),
            {"R": (2, [tp for tp in itertools.product(range(size), repeat=2)
                       if rng.random() < 0.4])})
            for _ in range(k)]
        filt = FilterFamily.principal(k, rng.sample(range(k), rng.randint(1, k)))
        rp = reduced_product(factors, filt)
        core = filt.core
        bad = False
        for v in rp.vectors:
            w = tuple(rng.randrange(size) if n not in core else v[n]
                      for n in range(k))
            u = rng.choice(rp.vectors)
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
    return _result("product-congruence-and-collapse", failures, trials, t0)


def check_split_density(seed=9, trials=40, cap_extra=1):
    """Projection pairs: side projections preserve extension, and pairs of
    side conditions below a projected condition that agree with a fixed
    overlap embedding amalgamate back, with side projections below the pair."""
    t0 = time.perf_counter()
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

        def upsilon_condition(rngl, domain, depth):
            f = {}
            for a in domain:
                if a in inst.overlap:
                    f[a] = tuple(upsilon[a][k] for k in range(depth))
                else:
                    f[a] = random_seq_vals(rngl, depth)
            return Condition(domain, depth, f)

        depth_p = rng.randint(0, min(3, up_depth))
        dom_p = [a for a in elems if rngl_coin(rng)]
        p = upsilon_condition(rng, dom_p, depth_p)
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
            du = rng.randint(depth_p, min(depth_p + cap_extra, up_depth))
            dv = rng.randint(depth_p, min(depth_p + cap_extra, up_depth))
            dom_u = set(pa.domain) | {a for a in inst.left if rngl_coin(rng)}
            dom_v = set(pb.domain) | {b for b in inst.right if rngl_coin(rng)}
            u = _upsilon_extension(rng, ground, inst, upsilon, pa, dom_u, du)
            v = _upsilon_extension(rng, ground, inst, upsilon, pb, dom_v, dv)
            if u is None or v is None:
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
    return _result("split-projection-density", failures, cases, t0)


def check_split_density_exhaustive(depth_cap=4):
    """Exhaustive density on two frozen split instances: for every base
    condition agreeing with the overlap embedding and every pair of side
    conditions below its projections (same agreement, bounded depth), the
    amalgam's side projections land below the pair.  Oversized pair grids
    are cut to a deterministic prefix."""
    t0 = time.perf_counter()
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
        ups = generic_build(ground.restrict(overlap), depth_cap)
        upsilon = {a: ups.values[a] for a in overlap}
        up_depth = min(len(v) for v in upsilon.values())
        cap = min(depth_cap, up_depth)

        def member_conditions(carrier, base=None, depth=None):
            """All conditions over the carrier at the given depth whose
            overlap part follows the embedding, extending base if given."""
            carrier = sorted(carrier)
            must = sorted(base.domain) if base is not None else []
            rest = [a for a in carrier if a not in must]
            out = []
            for r in range(len(rest) + 1):
                for extra in itertools.combinations(rest, r):
                    dom = must + list(extra)
                    pools = []
                    for a in dom:
                        if a in inst.overlap:
                            pools.append([tuple(upsilon[a][k] for k in range(depth))])
                        elif base is not None and a in base.domain:
                            tails = itertools.product(
                                *[range(max(j, 1)) for j in range(base.depth, depth)])
                            pools.append([base.seq(a) + t for t in tails])
                        else:
                            pools.append([tuple(v) for v in itertools.product(
                                *[range(max(j, 1)) for j in range(depth)])])
                    for combo in itertools.product(*pools):
                        q = Condition(dom, depth, dict(zip(dom, combo)))
                        if base is None or extends(ground, q, base):
                            out.append(q)
            return out

        for p in member_conditions(ground.elements, depth=cap - 1):
            pa = projection(inst.left, p)
            pb = projection(inst.right, p)
            us = member_conditions(inst.left, base=pa, depth=cap)
            vs = member_conditions(inst.right, base=pb, depth=cap)
            if len(us) * len(vs) > 4000:
                us, vs = us[:60], vs[:60]
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
    return _result("split-density-exhaustive", failures, cases, t0)


def rngl_coin(rng):
    return rng.random() < 0.5


def _upsilon_extension(rng, ground, inst, upsilon, base, domain, depth):
    """A valid extension of base with the given domain/depth whose overlap
    part follows the embedding; None when the random draw violates the
    extension clauses."""
    f = {}
    for a in domain:
        if a in inst.overlap:
            f[a] = tuple(upsilon[a][k] for k in range(depth))
        elif a in base.domain:
            tail = tuple(rng.randrange(max(k, 1)) for k in range(base.depth, depth))
            f[a] = base.seq(a) + tail
        else:
            f[a] = tuple(rng.randrange(max(k, 1)) for k in range(depth))
    q = Condition(domain, depth, f)
    return q if extends(ground, q, base) else None


# --- suite registry ---------------------------------------------------------------

BUDGETS = {
    "small": 1.0,
    "medium": 3.0,
    "large": 10.0,
}


def run_all(budget="small", seed=0):
    """Every suite at the contract bounds, scaled by the budget for the
    randomized trial counts."""
    scale = BUDGETS[budget]
    results = [
        check_phi_strict_increase(),
        check_salient(),
        check_universal_witness(),
        check_depletion_poset(trials=int(10000 * scale), seed=seed),
        check_depletion_monotone(trials=int(4000 * scale), seed=seed + 1),
        check_strictness_fixture(),
        check_star_equivalence(trials=int(500 * scale), seed=seed + 2),
        check_amalgamation(trials=int(1000 * scale), seed=seed + 3),
        check_dense_entries(trials=int(1000 * scale), seed=seed + 4),
        check_reduction(trials=int(1000 * scale), seed=seed + 5),
        check_generic_embedding(),
        check_pipeline(trials=int(50 * scale), seed=seed + 6),
        check_atomic_los(trials=int(1000 * scale), seed=seed + 7),
        check_tie_points(seed=seed + 8),
        check_split_density(seed=seed + 9, trials=int(40 * scale)),
        check_split_density_exhaustive(),
        check_poset_invariants(trials=int(400 * scale), seed=seed + 10),
        check_embed_roundtrip(trials=int(1000 * scale), seed=seed + 11),
        check_clopen_ops(trials=int(600 * scale), seed=seed + 12),
        check_product_congruence(trials=int(200 * scale), seed=seed + 13),
    ]
    return results
