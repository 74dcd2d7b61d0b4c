"""A condition calculus for embedding finite posets into bounded sequence
spaces.

A condition is a finite partial attempt (domain D, depth n, assignment f)
at mapping the ground order into sequences with per-coordinate bounds
max(k, 1).  Extension adds elements and depth; on coordinates added after a
pair is jointly present, the assignment must respect the ground order.
Meeting two families of entry operations -- domain/depth entry and
strict-witness entry -- builds a certified order embedding.

All condition values are immutable; the build is a sequential fold over its
schedule, and verification passes are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import lt

from .errors import (AgreementError, AmalgamationError, ChainTooShortError,
                     DepthError, HypothesisError, InvariantError,
                     PreconditionError, ProfileError, RootError, ScheduleError,
                     brief)
from .fol import FiniteStructure, pair_rows
from .posets import Poset, elements_of, int_ids, linear_extension
from .seqspace import SeqFun, eta, leq_from, lt_from, phi, position_profile


class Condition:
    """An immutable triple (domain, depth, per-element value sequences)."""

    __slots__ = ("domain", "depth", "_f")

    def __init__(self, domain, depth, f):
        self.domain = frozenset(domain)
        self.depth = int(depth)
        self._f = {a: tuple(f[a]) for a in self.domain}
        if any(len(s) != self.depth for s in self._f.values()):
            raise ProfileError("every value sequence must have the condition's depth")

    @classmethod
    def _trusted(cls, domain, depth, f):
        """A condition over a frozenset domain and an int depth whose f maps
        exactly the domain to tuples; nothing is copied or checked."""
        c = object.__new__(cls)
        c.domain, c.depth, c._f = domain, depth, f
        return c

    def seq(self, a):
        return self._f[a]

    def items(self):
        return sorted(self._f.items())

    def key(self):
        return (self.domain, self.depth, tuple(sorted(self._f.items())))

    def __eq__(self, other):
        if not isinstance(other, Condition):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Condition(D={sorted(self.domain)}, n={self.depth}, f={dict(self.items())})"

    def to_json_dict(self):
        return {"D": sorted(self.domain), "n": self.depth,
                "f": {str(a): list(v) for a, v in self.items()}}


EMPTY_CONDITION = Condition(frozenset(), 0, {})


def extends(ground: Poset, p: Condition, q: Condition) -> bool:
    """Whether p extends q: domain and depth grow, old values are kept, and
    coordinates new to q are monotone on every related pair of q's domain."""
    if p is q:
        return True
    lo, hi = q.depth, p.depth
    if not (p.domain >= q.domain and hi >= lo):
        return False
    pf, qf = p._f, q._f
    for a, s in qf.items():
        if pf[a][:lo] != s:
            return False
    return lo == hi or _monotone(ground, pf, qf, lo, hi)


def _monotone(ground, f, dom, lo, hi):
    """Whether f[a][j] <= f[b][j] for j in lo..hi-1 and every strict pair
    a < b of the ground inside dom."""
    for a, b in ground.strict_pairs():
        if a in dom and b in dom:
            fa, fb = f[a], f[b]
            for j in range(lo, hi):
                if fa[j] > fb[j]:
                    return False
    return True


def _lower_set(ground, a):
    """The elements at or below a, read off a's down-row."""
    i = ground.index_of(a)
    return elements_of(ground.elements, ground._down_rows()[i] | 1 << i)


def _entry_pad(f, below, depth):
    """An entering element's values: per coordinate below depth, the max of
    f over the elements of its lower set ``below`` that f maps (0 when
    none)."""
    cols = [f[e] for e in below if e in f]
    return tuple(map(max, zip(*cols))) if cols else (0,) * depth


def amalgamate(ground: Poset, parts, root) -> Condition:
    """A common extension of pairwise root-compatible conditions.

    Deep values are copied; shallow private elements are padded on the
    missing coordinates by the maximum over root elements below them.  That
    padding keeps every related pair involving a private element monotone,
    so the result extends every part exactly when the deepest part's
    values on the root are monotone from the shallowest depth on;
    otherwise no common extension exists at all, and AmalgamationError
    reports it.
    """
    parts = list(parts)
    root = frozenset(root)
    if not parts:
        raise RootError("at least one part is required")
    if len(parts) == 1:
        if not root <= parts[0].domain:
            raise RootError("root must lie inside the part's domain")
        return parts[0]
    # pairwise intersections equal the root exactly when every domain
    # contains it and the private parts are pairwise disjoint
    private = frozenset()
    deep = low = parts[0]
    for p in parts:
        own = p.domain - root
        if own & private or not root <= p.domain:
            raise RootError("pairwise domain intersections differ from the root")
        private |= own
        if p.depth > deep.depth:
            deep = p
        if p.depth < low.depth:
            low = p
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            d = min(p.depth, q.depth)
            for a in root:
                if p._f[a][:d] != q._f[a][:d]:
                    raise AgreementError(f"parts disagree on root element {brief(a)}")
    depth = deep.depth
    on_root = {a: deep._f[a] for a in root}
    f = dict(on_root)
    for p in parts:
        for a in p.domain - root:
            if p.depth == depth:
                f[a] = p._f[a]
            else:
                pad = _entry_pad(on_root, _lower_set(ground, a), depth)
                f[a] = p._f[a] + pad[p.depth:]
    if not _monotone(ground, f, root, low.depth, depth):
        raise AmalgamationError(
            "no common extension: a deep part is non-monotone on the root")
    return Condition._trusted(root | private, depth, f)


def entry_op(ground: Poset, req):
    """The entry operation of one request, checked once: a callable p -> q.

    ``("D", n, a)`` enters the set of conditions of depth >= n whose domain
    contains a.  The new element takes the maximum over its lower bounds in
    the old domain at existing coordinates; coordinates beyond the old depth
    are zero-filled for everybody, which is the same rule applied at a fresh
    coordinate.  An element outside the ground is a ScheduleError.

    ``("E", n, a, b)`` enters the set of conditions carrying a strict
    witness f(a)(k) < f(b)(k) at some k >= n, and is defined only when b is
    not below a (PreconditionError; an unknown id is a DomainError).  A
    missing a or b enters first as the D rule at depth 0 would add it: by
    the maximum over its lower bounds in p's domain (a, not being above b,
    adds nothing to b's).  New coordinates are coloured by rank in a linear
    extension placing a before b, wherever the ranks fit the coordinate
    bound; rank colouring respects every related pair at once and makes the
    witness strict.

    An op keeps what does not depend on p for as long as it lives: the
    lower sets of a and b, found on first use, and a witness op's colouring
    per (domain, depth) of the condition it colours.

    Either op returns p itself when p already qualifies.
    """
    kind = req[0]
    if kind == "D":
        _, n, a = req
        if a not in ground:
            raise ScheduleError(f"element {brief(a)} not in the ground order")
        lower = {}

        def op(p):
            old, depth = p._f, p.depth
            if a in old and depth >= n:
                return p
            zeros = (0,) * (n - depth)  # empty when the depth stays
            f = {e: s + zeros for e, s in old.items()}
            if a not in old:
                if not lower:
                    lower[a] = _lower_set(ground, a)
                f[a] = _entry_pad(old, lower[a], depth) + zeros
            return Condition._trusted(p.domain | {a}, max(n, depth), f)
        return op
    if kind != "E":
        raise ScheduleError(f"unknown request kind {brief(kind)}")
    _, n, a, b = req
    if a == b or ground.lt(b, a):
        raise PreconditionError("defined only when b is not below a")
    lower = {}
    colourings = {}

    def op(p):
        old, depth, domain = p._f, p.depth, p.domain
        if a not in old or b not in old:
            if not lower:
                lower[a], lower[b] = _lower_set(ground, a), _lower_set(ground, b)
            fa = old[a] if a in old else _entry_pad(old, lower[a], depth)
            fb = old[b] if b in old else _entry_pad(old, lower[b], depth)
            domain = domain | {a, b}
            old = {**old, a: fa, b: fb}
        else:
            fa, fb = old[a], old[b]
        if any(map(lt, fa[n:], fb[n:])):
            return p if domain is p.domain else Condition._trusted(domain, depth, old)
        key = (domain, depth)
        colouring = colourings.get(key)
        if colouring is None:
            size = len(domain)
            k = max(n, depth, size + 2)
            # coordinates depth..k: zero below size, where a rank may not
            # fit the bound, and the rank from size on
            zeros = (0,) * max(0, size - depth)
            width = k + 1 - max(depth, size)
            order = linear_extension(ground, domain, before=(a, b))
            colouring = colourings[key] = k + 1, {e: zeros + (r,) * width
                                                  for r, e in enumerate(order)}
        k1, tails = colouring
        return Condition._trusted(domain, k1, {e: old[e] + t for e, t in tails.items()})
    return op


def extend_into_D(ground: Poset, p: Condition, n: int, a) -> Condition:
    """Least-effort entry into the set of conditions of depth >= n whose
    domain contains a; ``entry_op(ground, ("D", n, a))(p)``."""
    return entry_op(ground, ("D", n, a))(p)


def extend_into_E(ground: Poset, p: Condition, n: int, a, b) -> Condition:
    """Entry into the set of conditions carrying a strict witness
    f(a)(k) < f(b)(k) at some coordinate k >= n, defined only when b is not
    below a; ``entry_op(ground, ("E", n, a, b))(p)``."""
    return entry_op(ground, ("E", n, a, b))(p)


def projection(sub_elements, p: Condition) -> Condition:
    """Restriction of the condition to a sub-carrier, same depth."""
    sub = frozenset(sub_elements)
    dom = p.domain & sub
    return Condition._trusted(dom, p.depth, {a: p._f[a] for a in dom})


def quotient_member(sub_elements, upsilon, p: Condition) -> bool:
    """Whether p agrees with the embedding on the sub-carrier: for every
    domain element of the sub-carrier, p's sequence is a prefix of the
    embedding value."""
    sub = frozenset(sub_elements)
    for a in p.domain & sub:
        y = upsilon[a]
        if len(y) < p.depth:
            raise DepthError(f"embedding value at {brief(a)} shallower than the condition")
        if tuple(y[k] for k in range(p.depth)) != p.seq(a):
            return False
    return True


# --- generic build ------------------------------------------------------------


@dataclass(frozen=True)
class GenericEmbedding:
    """The read-off of a finished build: value sequences, per-pair threshold
    certificates (the depth at which both elements were first present), and
    the strict-witness coordinates for each non-related ordered pair."""
    ground: Poset
    budget: int
    values: dict          # element -> SeqFun (position profile, final depth)
    thresholds: dict      # frozenset({a, b}) -> coordinate
    strict_witnesses: dict  # (a, b) with b not below a -> tuple of coordinates

    def threshold(self, a, b):
        return self.thresholds[frozenset((a, b))]


def default_schedule(ground: Poset, budget: int):
    """Domain/depth requests first, then strict-witness requests, each in
    lexicographic (n, elements) order."""
    pairs = _witness_pairs(ground)
    return ([("D", n, a) for n in range(budget + 1) for a in ground.elements]
            + [("E", n, a, b) for n in range(budget + 1) for a, b in pairs])


def shuffled_schedule(ground: Poset, budget: int, seed):
    """A level-0 domain request for every element, then the requests of
    ``default_schedule(ground, budget)`` in the order that
    ``random.Random(seed).shuffle`` puts them in.  The shuffle draws from
    the length alone, so it permutes the indices instead, and each index
    becomes its request only when the fold reaches it."""
    els = ground.elements
    pairs = _witness_pairs(ground)
    domain = (budget + 1) * len(els)
    order = list(range(domain + (budget + 1) * len(pairs)))
    random.Random(seed).shuffle(order)
    yield from (("D", 0, a) for a in els)
    for i in order:
        if i < domain:
            yield ("D", i // len(els), els[i % len(els)])
        else:
            n, k = divmod(i - domain, len(pairs))
            yield ("E", n, *pairs[k])


def _witness_pairs(ground: Poset):
    """Ordered pairs (a, b) with a != b and b not below a, lexicographic."""
    below = set(ground.strict_pairs())
    els = ground.elements
    return [(a, b) for a in els for b in els
            if a != b and (b, a) not in below]


def generic_build(ground: Poset, budget: int, schedule=None) -> GenericEmbedding:
    """Fold a schedule of requests into a condition and read off the embedding.

    The default schedule meets every domain/depth request up to the budget
    and every strict-witness request for each ordered pair (a, b) with b not
    below a, so the result is an order embedding into the sequence space
    under thresholded comparison, with strict witnesses past every requested
    depth.  Without a schedule the build meets the default one in closed
    form: it folds ``default_schedule(ground, 0)`` from the all-zero
    condition of depth ``budget`` on the whole ground, every element
    entering at depth 0.  Its domain/depth requests are met already, and
    meeting each witness request at level 0 meets every later level too:
    the all-zero start carries no witness, and every colouring adds
    coordinates from the budget on, so each pair's witness lies at or
    beyond every level up to the budget.
    """
    if budget < 0:
        raise DepthError(f"build depth {budget} is negative")
    els = frozenset(ground.elements)
    if schedule is None:
        p = Condition._trusted(els, budget,
                               dict.fromkeys(ground.elements, (0,) * budget))
        entry_depth = dict.fromkeys(ground.elements, 0)
        schedule = default_schedule(ground, 0)
    else:
        p = EMPTY_CONDITION
        entry_depth = {}
    # last[(a, b)]: the last coordinate with f(a) < f(b), set once a request
    # for the pair has been met; extensions keep old coordinates, so a later
    # request for the pair at n <= last is met already
    last = {}
    for req in schedule:
        kind = req[0]
        if kind == "E":
            _, n, a, b = req
            if n <= last.get((a, b), -1):
                continue
            if a not in els or b not in els:
                raise ScheduleError("strict-witness request outside the ground order")
            # scan down from the top for the last witness at or past n.  Below
            # n, p does not meet the request: the op runs once (it refuses b
            # at or below a) and the scan restarts at the new top
            f = p._f
            k = p.depth - 1 if a in f and b in f else -1
            ran = False
            while not (k >= n and f[a][k] < f[b][k]):
                if k < n:
                    if ran:
                        raise InvariantError(f"request {brief(req)} is unmet after its op")
                    p = entry_op(ground, req)(p)
                    entry_depth.setdefault(a, p.depth)
                    entry_depth.setdefault(b, p.depth)
                    f, k, ran = p._f, p.depth, True
                k -= 1
            last[(a, b)] = k
        elif kind == "D":
            _, n, a = req
            # a request already met leaves p as it is, and a in the domain
            # has its entry depth
            if n <= p.depth and a in p._f:
                continue
            p = entry_op(ground, req)(p)  # ScheduleError outside ground
            entry_depth.setdefault(a, p.depth)
        else:
            raise ScheduleError(f"unknown request kind {brief(kind)}")
    missing = els - p.domain
    if missing:
        raise ScheduleError(f"schedule never introduced elements {brief(sorted(missing))}")
    f = p._f
    profile = position_profile(p.depth)
    values = {a: SeqFun(profile, f[a]) for a in ground.elements}
    thresholds = {}
    for a in ground.elements:
        for b in ground.elements:
            if a < b:
                thresholds[frozenset((a, b))] = max(entry_depth[a], entry_depth[b])
    coords = range(p.depth)
    witnesses = {(a, b): tuple(compress(coords, map(lt, f[a], f[b])))
                 for a, b in _witness_pairs(ground)}
    return GenericEmbedding(ground, budget, values, thresholds, witnesses)


def verify_generic_embedding(ge: GenericEmbedding):
    """Check the embedding certificate; returns a report dict.

    For related pairs, domination from the threshold; for each ordered pair
    (a, b) with b not below a, a strict witness past every depth up to the
    budget (equivalently one at or beyond the budget).  Together these give
    a <= b iff the value sequences compare from the pair threshold.
    """
    ground = ge.ground
    failures = []
    for a in ground.elements:
        for b in ground.elements:
            if a == b:
                continue
            m = ge.threshold(a, b)
            if ground.leq(a, b):
                if not leq_from(ge.values[a], ge.values[b], m):
                    failures.append({"pair": [a, b], "kind": "domination", "m": m})
            if not ground.leq(b, a):
                ws = ge.strict_witnesses[(a, b)]
                if not ws or max(ws) < ge.budget or not any(w >= m for w in ws):
                    failures.append({"pair": [a, b], "kind": "strict-witness"})
    injective = len({ge.values[a].vals for a in ground.elements}) == len(ground.elements)
    if not injective:
        failures.append({"kind": "injectivity"})
    return {"ok": not failures, "failures": failures,
            "depth": len(next(iter(ge.values.values()))) if ge.values else 0}


# --- splitting ------------------------------------------------------------------


@dataclass(frozen=True)
class SplitInstance:
    """A cover (left, right) of the ground order whose comparabilities across
    the two sides all interpolate through the overlap."""
    ground: Poset
    left: frozenset
    right: frozenset
    overlap: frozenset = field(init=False)

    def __post_init__(self):
        if self.left | self.right != frozenset(self.ground.elements):
            raise HypothesisError("the two sides must cover the ground order")
        object.__setattr__(self, "overlap", self.left & self.right)
        leq = self.ground.leq
        for a in self.left:
            for b in self.right:
                for x, y, way in ((a, b, "upward"), (b, a, "downward")):
                    if leq(x, y) != any(leq(x, d) and leq(d, y) for d in self.overlap):
                        raise HypothesisError(
                            f"pair ({brief(a)}, {brief(b)}) fails {way} interpolation")


def split_project(inst: SplitInstance, p: Condition):
    """The pair of side projections of a condition."""
    return projection(inst.left, p), projection(inst.right, p)


# --- full pipeline ----------------------------------------------------------------


class ExplicitChainFactor:
    """A designated chain inside an explicit structure, validated on
    construction: the pair formula holds of (chain[i], chain[j]) exactly
    when i < j.  So "forward holds, backward fails" between two chain
    elements means "lower position", and only the length is kept."""

    __slots__ = ("length",)

    def __init__(self, structure: FiniteStructure, formula, chain):
        rows = pair_rows(structure, formula, [int_ids(t) for t in chain])
        n = len(rows)
        # row i, diagonal aside, must be exactly the positions above i
        if any(r & ~(1 << i) != (1 << n) - (2 << i) for i, r in enumerate(rows)):
            raise ChainTooShortError(
                "designated tuples do not form a chain for the formula")
        self.length = n


def pipeline_embed(ground: Poset, budget: int, factors=None):
    """Compose the generic build with the weighted-digit map and read the
    result inside per-coordinate chains.

    ``factors`` is None for integer chains of length exactly eta(j), or a
    list of ExplicitChainFactor, one per coordinate, each of length at least
    eta(j).  A factor orders its chain by position, so every verdict is a
    comparison of lifted values.

    Returns a report: the composite values (chain positions per coordinate),
    per-pair certificates, and verdicts.  For every strictly related pair
    the forward relation must hold and the backward fail at every coordinate
    past the recorded threshold; for every non-related ordered pair a
    violation coordinate is exhibited.
    """
    ge = generic_build(ground, budget)
    lifted = {a: phi(ge.values[a]) for a in ground.elements}
    width = len(next(iter(lifted.values()))) if lifted else 0
    if factors is not None:
        for j in range(width):
            if j >= len(factors):
                raise ChainTooShortError(f"no factor supplied for coordinate {j}")
            if factors[j].length < eta(j):
                raise ChainTooShortError(
                    f"factor {j} has length {factors[j].length} < {eta(j)}")
    positions = {a: lifted[a].vals for a in ground.elements}
    pair_reports = []
    ok = True
    for a in ground.elements:
        for b in ground.elements:
            if a == b:
                continue
            m0 = max(ge.threshold(a, b), 1)
            if ground.lt(a, b):
                wits = [w for w in ge.strict_witnesses[(a, b)] if w >= m0]
                if not wits:
                    pair_reports.append({"pair": [a, b], "kind": "forward",
                                         "ok": False, "reason": "no strict witness"})
                    ok = False
                    continue
                start = wits[0] + 1
                good = lt_from(lifted[a], lifted[b], start)
                pair_reports.append({"pair": [a, b], "kind": "forward",
                                     "threshold": start, "ok": good})
                ok = ok and good
            elif not ground.lt(b, a):
                # incomparable: exhibit a coordinate where the forward
                # relation fails beyond the co-presence threshold
                rev = [w for w in ge.strict_witnesses[(b, a)] if w >= m0]
                j = rev[0] + 1 if rev else None
                good = (j is not None and j < width
                        and positions[b][j] < positions[a][j])
                pair_reports.append({"pair": [a, b], "kind": "violation",
                                     "coordinate": j, "ok": good})
                ok = ok and good
    return {
        "ok": ok,
        "width": width,
        "positions": {str(a): list(positions[a]) for a in ground.elements},
        "pairs": pair_reports,
    }
