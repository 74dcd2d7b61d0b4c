"""Depletions of a partial order over a fibered index set, and their walks.

An instance carries a linearly ordered list of index labels, a core set A,
one fiber per label, and an ambient partial order on the disjoint union.
The depleted relation over an index subset s keeps x <= y only when it is
witnessed inside a single part, through a core interpolant, or by a walk
stepping through every fiber of s between the endpoint levels.

Walks are found by layered reachability over bitsets: the instance keeps
its core and each fiber as a mask over the order's element indices, and
``frontier_sweep`` propagates a frontier mask level by level, following the
ambient order upward (ascending) or downward (descending).  Every walk
question from a single start is answered by that one routine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexLabelError, LevelError, MembershipError, brief
from .posets import Poset, elements_of, gather, reach


class DepletionInstance:
    """Index labels, core, fibers and the ambient order on their union.

    The parts must be pairwise disjoint and cover the order's elements
    exactly; at least two labels are required.
    """

    __slots__ = ("labels", "core", "fibers", "order", "_level",
                 "_core_mask", "_fiber_masks")

    def __init__(self, labels, core, fibers, order: Poset):
        self.labels = tuple(sorted(labels))
        if len(self.labels) < 2:
            raise IndexLabelError("at least two index labels are required")
        if len(set(self.labels)) != len(self.labels):
            raise IndexLabelError("duplicate index labels")
        if set(fibers) != set(self.labels):
            raise IndexLabelError("fiber map keys differ from the labels")
        self.core = frozenset(core)
        self.fibers = {xi: frozenset(fibers[xi]) for xi in self.labels}
        self.order = order
        # the bitset view: the core and each fiber as a mask over the
        # order's element indices
        index = order._index
        self._level = level = {}
        self._core_mask = 0
        self._fiber_masks = {}
        for xi, part in [(None, self.core)] + [(xi, self.fibers[xi]) for xi in self.labels]:
            mask = 0
            for x in part:
                if x in level:
                    raise MembershipError(f"element {brief(x)} occurs in two parts")
                level[x] = xi
                if x in index:  # otherwise the carrier check below fails
                    mask |= 1 << index[x]
            if xi is None:
                self._core_mask = mask
            else:
                self._fiber_masks[xi] = mask
        if level.keys() != index.keys():
            raise MembershipError("order carrier differs from the union of parts")

    def level(self, x):
        """Fiber label of x, or None for core elements."""
        try:
            return self._level[x]
        except KeyError:
            raise MembershipError(f"element {brief(x)} not in the instance") from None

    def _check_subset(self, s):
        s = tuple(sorted(set(s)))
        for xi in s:
            if xi not in self.fibers:
                raise IndexLabelError(f"unknown index label {brief(xi)}")
        return s

    def to_json_dict(self):
        return {
            "I": list(self.labels),
            "A": sorted(self.core),
            "F": {str(xi): sorted(self.fibers[xi]) for xi in self.labels},
            "edges": [list(p) for p in self.order.pairs()],
        }


@dataclass(frozen=True)
class Walk:
    """One element per label of s, monotone along consecutive levels."""
    s: tuple
    steps: dict
    direction: str  # "ascending" | "descending"


def frontier_sweep(inst, levels, start, ascending):
    """Layered reachability: one frontier bitset per level.

    The first frontier is the start mask; each next one holds the elements
    of the next level's fiber lying above (ascending) or below (descending)
    some element of the current frontier.
    """
    rows = inst.order._rows if ascending else inst.order._down_rows()
    fibers = inst._fiber_masks
    out = [start]
    for xi in levels[1:]:
        out.append(reach(rows, out[-1]) & fibers[xi])
    return out


def _walk_between(inst, levels, x, y, ascending):
    """A walk along all of levels from x (first level) to y (last), or None.

    The path is rebuilt backwards from the frontiers; each step takes the
    first element, in the previous fiber's iteration order, of the previous
    frontier that is related to the current one.
    """
    index = inst.order._index
    fronts = frontier_sweep(inst, levels, 1 << index[x], ascending)
    if not fronts[-1] >> index[y] & 1:
        return None
    # the relation back to the previous level, opposite to the sweep
    back = inst.order._down_rows() if ascending else inst.order._rows
    steps = {levels[-1]: y}
    cur = y
    for pos in range(len(levels) - 1, 0, -1):
        cand = fronts[pos - 1] & back[index[cur]]
        cur = next(p for p in inst.fibers[levels[pos - 1]] if cand >> index[p] & 1)
        steps[levels[pos - 1]] = cur
    return steps


def find_walk(inst: DepletionInstance, s, x, y):
    """A walk with endpoints x, y through every fiber of s, or None.

    x and y must lie in the fibers of min(s) and max(s) (in either
    assignment).  Ascending when x sits at the lower level, descending
    otherwise.
    """
    s = inst._check_subset(s)
    if len(s) < 2:
        raise LevelError("a walk needs at least two levels")
    lx, ly = inst.level(x), inst.level(y)
    if lx is None or ly is None or {lx, ly} != {s[0], s[-1]}:
        raise LevelError("endpoints must sit in the extreme fibers of s")
    if lx == s[0]:
        steps = _walk_between(inst, s, x, y, ascending=True)
        return Walk(s, steps, "ascending") if steps is not None else None
    # x at the top level: the walk descends from y's level upward in index,
    # with elements decreasing, ending at x.
    steps = _walk_between(inst, s, y, x, ascending=False)
    return Walk(s, steps, "descending") if steps is not None else None


def _walk_exists(inst, levels, ascending):
    """Any-endpoint walk existence along the given consecutive levels."""
    start = inst._fiber_masks[levels[0]]
    return frontier_sweep(inst, levels, start, ascending)[-1] != 0


def depletion_rel(inst: DepletionInstance, s, x, y) -> bool:
    """The depleted relation over the index subset s (reflexive, non-strict)."""
    s = inst._check_subset(s)
    if len(s) < 2:
        raise IndexLabelError("the depletion needs at least two labels")
    level = inst._level
    if x not in level or y not in level:
        raise MembershipError("both elements must lie in the core or an s-fiber")
    lx, ly = level[x], level[y]
    if (lx is not None and lx not in s) or (ly is not None and ly not in s):
        raise MembershipError("both elements must lie in the core or an s-fiber")
    if x == y:
        return True
    index = inst.order._index
    ix, iy = index[x], index[y]
    row = inst.order._rows[ix]
    if not row >> iy & 1:
        return False
    if lx is None or ly is None or lx == ly:
        return True  # same part, or through the core carrier itself
    # distinct fibers: core interpolant or a walk across the s-interval
    if row & inst._core_mask & inst.order._down_rows()[iy]:
        return True
    i, j = s.index(lx), s.index(ly)
    if i < j:
        fronts = frontier_sweep(inst, s[i:j + 1], 1 << ix, True)
        return bool(fronts[-1] >> iy & 1)
    fronts = frontier_sweep(inst, s[j:i + 1], 1 << iy, False)
    return bool(fronts[-1] >> ix & 1)


def depletion_order(inst: DepletionInstance, s) -> Poset:
    """The full depleted relation over s as a strict order.

    Row x holds its own part and the core above it, the elements reached
    by the two upward sweeps from x (over the higher labels of s and over
    the lower ones), and everything above a core element above x.  A sweep
    from x goes on as the sweeps from its first frontier, so each direction
    fills in from its far end of s, one reach per element.  The
    construction validates the result, so any transitivity failure
    surfaces as an error rather than being silently closed over.
    """
    s = inst._check_subset(s)
    if len(s) < 2:
        raise IndexLabelError("the depletion needs at least two labels")
    rows = inst.order._rows
    core = inst._core_mask
    fibers = inst._fiber_masks
    dom_mask = core
    for xi in s:
        dom_mask |= fibers[xi]
    # full[i] gathers row i over order indices, the walks first
    full = [0] * len(rows)
    for seq in (s, s[::-1]):
        walk = [0] * len(rows)
        for here, ahead in zip(seq[-2::-1], seq[:0:-1]):
            m, ahead = fibers[here], fibers[ahead]
            while m:
                i = (m & -m).bit_length() - 1
                w = rows[i] & ahead
                if w:
                    walk[i] = w = w | reach(walk, w)
                    full[i] |= w
                m &= m - 1
    # a core element's own part is all of dom: the core above it adds nothing
    for m, own in [(core, dom_mask)] + [(fibers[xi], core | fibers[xi]) for xi in s]:
        while m:
            i = (m & -m).bit_length() - 1
            up = rows[i] & core
            full[i] |= rows[i] & own | (reach(rows, up) & dom_mask if up else 0)
            m &= m - 1
    # from order indices to positions in dom
    idx = elements_of(range(len(rows)), dom_mask)
    return Poset([inst.order.elements[i] for i in idx], gather(full, idx))


def star_condition(inst: DepletionInstance, xi, eta_label, exhaustive=False):
    """Whether some index subset with extremes {xi, eta_label} admits no walk
    (in either direction) between the two extreme fibers.

    The default checks only the full interval of labels between the two,
    which is the hardest case: walks restrict from larger index sets to
    smaller ones with the same extremes.  With exhaustive=True every subset
    of the interval is scanned instead (kept as an independent oracle).
    Returns (verdict, witness subset or None).
    """
    if xi == eta_label:
        raise IndexLabelError("the two labels must be distinct")
    for lab in (xi, eta_label):
        if lab not in inst.fibers:
            raise IndexLabelError(f"unknown index label {brief(lab)}")
    lo, hi = min(xi, eta_label), max(xi, eta_label)
    interval = [l for l in inst.labels if lo <= l <= hi]
    if exhaustive:
        middle = [l for l in interval if l not in (lo, hi)]
        for mask in range(1 << len(middle)):
            sub = [lo] + [m for b, m in enumerate(middle) if mask >> b & 1] + [hi]
            if not (_walk_exists(inst, sub, True) or _walk_exists(inst, sub, False)):
                return True, tuple(sub)
        return False, None
    if _walk_exists(inst, interval, True) or _walk_exists(inst, interval, False):
        return False, None
    return True, tuple(interval)


def maximal_star_set(inst: DepletionInstance):
    """An inclusion-maximal label set containing the first label whose pairs
    all satisfy the star condition; greedy in increasing label order."""
    chosen = [inst.labels[0]]
    for lab in inst.labels[1:]:
        if all(star_condition(inst, prev, lab)[0] for prev in chosen):
            chosen.append(lab)
    return tuple(chosen)
