"""Fixtures and reference loops for the tests; nothing under src/ uses them."""

import itertools

from orderlab.errors import (ArityError, CanonicalityError, DomainError,
                             IndexLabelError, brief)
from orderlab.fol import FiniteStructure
from orderlab.posets import Poset, elements_of, gather, int_ids, make_poset, reach
from orderlab.seqspace import position_seq
from orderlab.universal import Rel


def linear_order_structure(n, name="R"):
    """The strict linear order 0 < 1 < ... < n-1 as a structure."""
    tuples = [(i, j) for i in range(n) for j in range(n) if i < j]
    return FiniteStructure(range(n), {name: (2, tuples)})


def universal_witness_failures(universe, max_size, witness, rel):
    """The case count and the failures of check_universal_witness, with the
    expected direction decided member by member through frozenset tests:
    the suite's loop before it compared whole direction lists."""
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
    return cases, failures


def phi_strict_increase_failures(n_coords, phi):
    """The case count and the failures of check_phi_strict_increase, by its
    loop before it read one domination threshold per pair: every m is
    tested for f <= g from m on, and every n rescans the lifted suffix."""
    space = list(itertools.product(*[range(max(k, 1)) for k in range(n_coords)]))
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
    return cases, failures


def _check_word(w):
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise CanonicalityError(f"not a binary word: {w!r}")


def _sibling(w):
    return w[:-1] + ("1" if w[-1] == "0" else "0")


def canonical_antichain_by_restarts(words):
    """canonical_antichain as a scan that restarts after every sibling merge
    (quadratic in the antichain): the body before it became one pass over
    the sorted words."""
    words = set(words)
    for w in words:
        _check_word(w)
    words = {w for w in words
             if not any(w[:k] in words for k in range(len(w)))}
    merged = True
    while merged:
        merged = False
        for w in words:
            if w and _sibling(w) in words:
                words.discard(w)
                words.discard(_sibling(w))
                words.add(w[:-1])
                merged = True
                break
    return frozenset(words)


def check_antichain_pairwise(antichain):
    """Clopen's validation comparing every pair of words: the body before it
    compared neighbours in sorted order."""
    for w in antichain:
        _check_word(w)
        for v in antichain:
            if w != v and v.startswith(w):
                raise CanonicalityError("antichain contains a prefix pair")
        if w and _sibling(w) in antichain:
            raise CanonicalityError("antichain contains a sibling pair")


def load_structure_tuple_by_tuple(universe, relations):
    """FiniteStructure's loading as one loop over the tuples: every tuple
    through int_ids, then arity and membership tuple by tuple in set order,
    the body before it checked in bulk passes.  Returns (universe,
    relations) or raises the first fault."""
    universe = tuple(sorted(int_ids(universe)))
    uset = set(universe)
    rels = {}
    for name, (arity, tuples) in relations.items():
        tset = set()
        for t in tuples:
            tset.add(tuple(int_ids(t)))
        for t in tset:
            if len(t) != arity:
                raise ArityError(f"tuple {brief(t)} has wrong arity for {brief(name)}")
            if not set(t) <= uset:
                raise DomainError(f"tuple {brief(t)} leaves the universe")
        rels[name] = (arity, frozenset(tset))
    return universe, rels


class MaterialisedProduct:
    """ReducedProduct's classes as it formed them before they were read off
    the core: the direct product and a map from every vector to the first
    vector of its class, both built at construction.  The factors and the
    filter are taken as valid."""

    def __init__(self, factors, filt):
        self.factors = tuple(factors)
        self.filt = filt
        self.vectors = tuple(itertools.product(*(f.universe for f in self.factors)))
        core = sorted(filt.core)
        reps = {}
        self.class_of = {}
        for v in self.vectors:
            key = tuple(v[n] for n in core)
            if key not in reps:
                reps[key] = v
            self.class_of[v] = reps[key]
        self.class_reps = tuple(reps.values())

    def same_class(self, v, w):
        return self.class_of[tuple(v)] == self.class_of[tuple(w)]

    def holds(self, name, vectors):
        vectors = [tuple(v) for v in vectors]
        arity = self.factors[0].arity(name)
        if len(vectors) != arity:
            raise ArityError(f"{brief(name)} expects {arity} arguments")
        combo = []
        for v in vectors:
            try:
                combo.append(self.class_of[v])
            except (KeyError, TypeError):  # TypeError: an id that is a list
                raise DomainError(f"vector {list(v)} is not in the product") from None
            if not all(type(x) is int for x in v):
                raise DomainError(f"vector {list(v)} is not in the product")
        index_set = frozenset(n for n, f in enumerate(self.factors)
                              if f.holds(name, tuple(v[n] for v in combo)))
        return index_set in self.filt


def longest_chain_of_a_strict_order(rows):
    """posets.longest_chain_indices before it tested transitivity: the chain
    lengths filled with a max per successor bit, for rows already known to
    be a strict order."""
    n = len(rows)
    if n == 0:
        return []
    length = [1] * n
    for i in sorted(range(n), key=lambda i: rows[i].bit_count()):
        best = 0
        r = rows[i]
        while r:
            low = r & -r
            best = max(best, length[low.bit_length() - 1])
            r ^= low
        length[i] = 1 + best
    level = [0] * (max(length) + 1)
    for i, h in enumerate(length):
        level[h] |= 1 << i
    m = level[-1]
    chain = [(m & -m).bit_length() - 1]
    for need in range(len(level) - 2, 0, -1):
        m = rows[chain[-1]] & level[need]
        chain.append((m & -m).bit_length() - 1)
    return chain


def ref_random_poset(rng, n, density=0.4):
    """checks.random_poset before it closed its rows directly: the drawn
    pairs as an edge list, closed by make_poset."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((order[i], order[j]))
    return make_poset(range(n), edges)


def ref_depletion_order(inst, s):
    """depletion.depletion_order before it walked the fiber masks itself:
    the walks through elements_of, a reach per walk step and per core-above
    mask, and the level read off per element.  Its rows are listed by order
    index, as gather now takes them."""
    s = inst._check_subset(s)
    if len(s) < 2:
        raise IndexLabelError("the depletion needs at least two labels")
    rows = inst.order._rows
    core = inst._core_mask
    fibers = inst._fiber_masks
    dom_mask = core
    for xi in s:
        dom_mask |= fibers[xi]
    walks = [0] * len(rows)
    for seq in (s, s[::-1]):
        walk = [0] * len(rows)
        for here, ahead in zip(seq[-2::-1], seq[:0:-1]):
            for i in elements_of(range(len(rows)), fibers[here]):
                walk[i] = rows[i] & fibers[ahead]
                walk[i] |= reach(walk, walk[i])
                walks[i] |= walk[i]
    els = inst.order.elements
    idx = elements_of(range(len(els)), dom_mask)
    full = [0] * len(els)
    for i in idx:
        lx = inst._level[els[i]]
        if lx is None:
            full[i] = rows[i] & dom_mask
        else:
            full[i] = (rows[i] & (core | fibers[lx]) | walks[i]
                       | reach(rows, rows[i] & core) & dom_mask)
    return Poset([els[i] for i in idx], gather(full, idx))
