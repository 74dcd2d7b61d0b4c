"""Clopen subsets of Cantor space and tie-point decompositions.

A clopen set is a finite union of binary cylinders, held canonically as a
prefix-free antichain with complete sibling pairs merged upward.  Canonical
form makes equality, order and coverage tests purely syntactic: one cylinder
lies inside a canonical clopen iff some antichain word is a prefix of it.

Points carry an eventually periodic expansion so membership is decidable at
every finite depth.  The decomposition of a point at depth d splits the
complement of its depth-d neighbourhood into the cells lexicographically
below and above the point's prefix, giving two increasing chains of clopens
orthogonal to each other and avoiding the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

from .errors import CanonicalityError, DepthError, brief


def _check_word(w):
    if not isinstance(w, str) or w.strip("01"):  # a character other than 0 and 1
        raise CanonicalityError(f"not a binary word: {brief(w)}")


def canonical_antichain(words):
    """Canonicalize a union of cylinders in one pass over the sorted words.
    A word's extensions follow it directly, so each word extending the last
    one kept is absorbed; a word ending in 1 merges with its 0-sibling when
    that is on top of the stack, and the parent merges on while it pairs."""
    words = set(words)
    for w in words:
        _check_word(w)
    stack = []
    for w in sorted(words):
        if stack and w.startswith(stack[-1]):
            continue
        while w.endswith("1") and stack and stack[-1] == w[:-1] + "0":
            w = stack.pop()[:-1]
        stack.append(w)
    return frozenset(stack)


@dataclass(frozen=True)
class Clopen:
    """A canonical prefix-free, sibling-merged antichain of binary words."""
    antichain: frozenset

    def __post_init__(self):
        for w in self.antichain:
            _check_word(w)
        # sorted, a word that is a prefix of a later word is one of the next
        # word, and in a prefix-free list siblings are neighbours
        for a, b in pairwise(sorted(self.antichain)):
            if b.startswith(a):
                raise CanonicalityError("antichain contains a prefix pair")
            if a.endswith("0") and b == a[:-1] + "1":
                raise CanonicalityError("antichain contains a sibling pair")

    @classmethod
    def from_strings(cls, words):
        return cls(canonical_antichain(words))

    @property
    def is_empty(self):
        return not self.antichain

    def depth(self):
        return max((len(w) for w in self.antichain), default=0)


EMPTY = Clopen(frozenset())
FULL = Clopen(frozenset({""}))


def join(u: Clopen, v: Clopen) -> Clopen:
    return Clopen.from_strings(u.antichain | v.antichain)


def complement(u: Clopen) -> Clopen:
    out = []

    def rec(prefix, suffixes):
        if "" in suffixes:
            return  # fully covered below this prefix
        if not suffixes:
            out.append(prefix)
            return
        for bit in "01":
            rec(prefix + bit, [w[1:] for w in suffixes if w[0] == bit])

    rec("", list(u.antichain))
    return Clopen.from_strings(out)


def meet(u: Clopen, v: Clopen) -> Clopen:
    words = []
    for a in u.antichain:
        for b in v.antichain:
            if a.startswith(b):
                words.append(a)
            elif b.startswith(a):
                words.append(b)
    return Clopen.from_strings(words)


def leq(u: Clopen, v: Clopen) -> bool:
    """Containment; canonical form reduces coverage to prefix tests."""
    return all(any(w.startswith(t) for t in v.antichain) for w in u.antichain)


@dataclass(frozen=True)
class Point:
    """A point of Cantor space with eventually periodic expansion."""
    prefix: str
    period: str

    def __post_init__(self):
        _check_word(self.prefix)
        _check_word(self.period)
        if not self.period:
            raise CanonicalityError("the periodic tail must be nonempty")

    def expand(self, k):
        if k <= len(self.prefix):
            return self.prefix[:k]
        need = k - len(self.prefix)
        reps = need // len(self.period) + 1
        return (self.prefix + self.period * reps)[:k]

    def __str__(self):
        return f"{self.prefix}({self.period})^omega" if self.prefix else f"{self.period}^omega"


def parse_point(text):
    """Accepts "0110^omega" (pure period) and "01(10)^omega" (prefix+period)."""
    if not text.endswith("^omega"):
        raise CanonicalityError("point syntax: [prefix(]period[)]^omega")
    body = text[: -len("^omega")]
    if body.endswith(")") and "(" in body:
        prefix, period = body[:-1].split("(", 1)
        return Point(prefix, period)
    return Point("", body)


def contains(u: Clopen, x: Point) -> bool:
    """Whether some cylinder of u holds a prefix of the point's expansion."""
    return any(x.expand(len(w)) == w for w in u.antichain)


@lru_cache(maxsize=8)
def _cells(d):
    """The 2^d depth-d cell words in lexicographic order, built once per
    depth: the mask views at the suites' depths (at most 5) reuse them."""
    return tuple(format(i, f"0{d}b") for i in range(1 << d)) if d else ("",)


# --- cell-mask views ----------------------------------------------------------

def clopen_to_mask(u: Clopen, d: int) -> int:
    """Bitmask over the 2^d depth-d cells covered by u (bit i = cell i in
    lexicographic order)."""
    if u.depth() > d:
        raise DepthError("clopen deeper than the mask resolution")
    mask = 0
    for w in u.antichain:
        span = d - len(w)
        base = (int(w, 2) << span) if w else 0
        mask |= ((1 << (1 << span)) - 1) << base
    return mask


def mask_to_clopen(mask: int, d: int) -> Clopen:
    return Clopen.from_strings([c for b, c in enumerate(_cells(d)) if mask >> b & 1])


# --- tie decompositions ---------------------------------------------------------

@dataclass(frozen=True)
class TieDecomposition:
    """Chains of clopens lexicographically below / above a point, per depth
    1..depth; each chain increases and avoids the point."""
    point: Point
    depth: int
    below_chain: tuple
    above_chain: tuple

    def __post_init__(self):
        if self.depth < 1:
            raise DepthError("decompositions need depth >= 1")
        if not (len(self.below_chain) == len(self.above_chain) == self.depth):
            raise DepthError("one chain element per depth is required")

    @property
    def below(self):
        return self.below_chain[-1]

    @property
    def above(self):
        return self.above_chain[-1]


def tie_decompose(x: Point, d: int) -> TieDecomposition:
    """Split each depth's cells at the point's prefix p: the cells below p
    branch off it at one of its 1s, the cells above at one of its 0s."""
    p = x.expand(d)
    below = tuple(Clopen(frozenset(p[:k] + "0" for k in range(i) if p[k] == "1"))
                  for i in range(1, d + 1))
    above = tuple(Clopen(frozenset(p[:k] + "1" for k in range(i) if p[k] == "0"))
                  for i in range(1, d + 1))
    return TieDecomposition(x, d, below, above)


def decomposition_invariant_failures(td: TieDecomposition):
    """Structural failures: chain order, orthogonality, point avoidance and
    exact coverage of the complement of the point's neighbourhood."""
    x, d = td.point, td.depth
    failures = []
    for i in range(d - 1):
        if not leq(td.below_chain[i], td.below_chain[i + 1]):
            failures.append({"kind": "below-chain-order", "depth": i + 1})
        if not leq(td.above_chain[i], td.above_chain[i + 1]):
            failures.append({"kind": "above-chain-order", "depth": i + 1})
    for i in range(d):
        for j in range(d):
            if not meet(td.below_chain[i], td.above_chain[j]).is_empty:
                failures.append({"kind": "orthogonality", "pair": [i + 1, j + 1]})
    for i in range(d):
        if contains(td.below_chain[i], x) or contains(td.above_chain[i], x):
            failures.append({"kind": "point-avoidance", "depth": i + 1})
    cover = join(td.below, td.above)
    if complement(cover) != Clopen.from_strings([x.expand(d)]):
        failures.append({"kind": "coverage"})
    return failures


def true_tie_check(td: TieDecomposition, probes):
    """Check the decomposition against a family of probe clopens.

    Every probe missing the point (and no deeper than the decomposition)
    must lie under below | above and miss below & above, the two top chain
    elements.  Returns a report dict, the invariant failures first.
    """
    x = td.point
    failures = list(decomposition_invariant_failures(td))
    cover, overlap = join(td.below, td.above), meet(td.below, td.above)
    checked = 0
    for u in probes:
        if u.depth() > td.depth:
            raise DepthError("probe deeper than the decomposition")
        if contains(u, x):
            continue  # belongs to the point's ultrafilter
        checked += 1
        if not leq(u, cover):
            failures.append({"kind": "probe-cover", "probe": sorted(u.antichain)})
        elif not meet(u, overlap).is_empty:
            failures.append({"kind": "probe-overlap", "probe": sorted(u.antichain)})
    return {"ok": not failures, "checked": checked, "failures": failures}


def bulk_probe_check(td: TieDecomposition):
    """(checked, violations) over every depth-d probe clopen, in closed form:
    a probe missing the point fails iff it meets B, the cells other than the
    point's outside below | above or inside below & above, so of the 2^(N-1)
    probes missing the point (N = 2^d cells) 2^(N-1-|B|) pass."""
    d, x = td.depth, td.point
    size = 0
    for u in (complement(join(td.below, td.above)), meet(td.below, td.above)):
        if u.depth() > d:
            raise DepthError("chain element deeper than the decomposition")
        size += sum(1 << (d - len(w)) for w in u.antichain) - contains(u, x)
    checked = 1 << ((1 << d) - 1)
    return checked, checked - (checked >> size)


def expansion_axiom_check(td: TieDecomposition, fragment_depth: int) -> bool:
    """First-order expansion facts on the depth-d fragment: the two chains
    are linearly ordered by containment, the two generated ideals are
    orthogonal, and every fragment element or its complement lies under the
    join of the two top chain elements."""
    if fragment_depth > td.depth:
        raise DepthError("fragment deeper than the decomposition")
    for chain in (td.below_chain, td.above_chain):
        for u in chain:
            for v in chain:
                if not (leq(u, v) or leq(v, u)):
                    return False
    for u in td.below_chain:
        for v in td.above_chain:
            if not meet(u, v).is_empty:
                return False
    # a fragment element or its complement lies under the cover unless two
    # fragment cells each hold an uncovered cell; prefix-free words sort in
    # cell order, so the first and last uncovered cells decide it
    left = sorted(complement(join(td.below, td.above)).antichain)
    d = fragment_depth
    return not left or (left[0] + "0" * d)[:d] == (left[-1] + "1" * d)[:d]
