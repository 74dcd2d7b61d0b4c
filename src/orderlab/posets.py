"""Finite strict partial orders and asymmetric relation structures.

Orders are stored strictly (x < y); the non-strict order is "less-than or
equal".  Relation matrices are kept as per-row integer bitsets over the
sorted element list, which keeps closure, reachability and isomorphism
scans cheap for the enumeration-heavy verification suites.
"""

from __future__ import annotations

from .errors import AsymmetryError, CycleError, DomainError, brief


class Poset:
    """A finite strict partial order over integer element ids.

    ``rows[i]`` has bit ``j`` set iff ``elements[i] < elements[j]``.  The
    relation is transitively closed, irreflexive and (hence) antisymmetric.
    Instances are immutable and safe to share; ``strict_pairs`` and the
    down-set bitsets are computed on first use and cached on the instance.
    """

    # the cache slots stay unset until first use, so construction pays
    # nothing for them
    __slots__ = ("elements", "_index", "_rows", "_pairs", "_downs")

    def __init__(self, elements, rows, _validated=False):
        self.elements = tuple(sorted(elements))
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._rows = tuple(rows)
        if len(self._index) != len(self.elements):
            raise DomainError("duplicate element ids")
        if not _validated:
            _check_rows(self._rows, len(self.elements))
            _check_strict_order(self._rows)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._rows == other._rows

    def __hash__(self):
        return hash((self.elements, self._rows))

    def __repr__(self):
        return f"Poset({list(self.elements)}, pairs={sorted(self.pairs())})"

    # -- queries -----------------------------------------------------------

    def index_of(self, a):
        try:
            return self._index[a]
        except KeyError:
            raise DomainError(f"element {brief(a)} not in poset") from None

    def __contains__(self, a):
        return a in self._index

    def lt(self, a, b):
        index = self._index
        try:
            return bool(self._rows[index[a]] >> index[b] & 1)
        except KeyError as e:
            raise DomainError(f"element {brief(e.args[0])} not in poset") from None

    def leq(self, a, b):
        return a == b or self.lt(a, b)

    def pairs(self):
        """All strict pairs (a, b) with a < b."""
        return list_pairs(self.elements, self._rows)

    def strict_pairs(self):
        """``pairs()`` as a tuple, computed on first use and cached."""
        try:
            return self._pairs
        except AttributeError:
            self._pairs = tuple(self.pairs())
            return self._pairs

    def _down_rows(self):
        """Per index i, the bitset of indices strictly below it; cached."""
        try:
            return self._downs
        except AttributeError:
            self._downs = tuple(transpose(self._rows))
            return self._downs

    def matrix(self):
        n = len(self.elements)
        return [[bool(self._rows[i] >> j & 1) for j in range(n)] for i in range(n)]

    # -- derived orders ------------------------------------------------------

    def converse(self):
        return Poset(self.elements, self._down_rows(), _validated=True)

    def restrict(self, subset):
        """Induced subposet on the given element subset."""
        sub = sorted(subset)
        pos = [self.index_of(e) for e in sub]
        return Poset(sub, gather(self._rows, pos), _validated=True)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {"elements": list(self.elements), "edges": [list(p) for p in self.pairs()]}


# --- bitset relations -----------------------------------------------------------
#
# A relation on the indices 0..n-1 is a sequence of n row bitsets: bit j of
# rows[i] is set iff i is related to j.  Posets, relation structures,
# depleted orders and the strict digraphs of the chain search share these.

def transpose(rows):
    """The converse relation: bit i of out[j] is set iff bit j of rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def is_transitive(rows):
    """Whether rows[j] lies inside rows[i] whenever bit j of rows[i] is set."""
    for r in rows:
        outside = ~r
        rr = r
        while rr:
            low = rr & -rr
            if rows[low.bit_length() - 1] & outside:
                return False
            rr ^= low
    return True


def elements_of(labels, mask):
    """The labels[i] with bit i of mask set, by ascending i."""
    out = []
    while mask:
        low = mask & -mask
        out.append(labels[low.bit_length() - 1])
        mask ^= low
    return out


def reach(rows, mask):
    """The OR of the rows[i] with bit i of mask set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def list_pairs(labels, rows):
    """The related pairs (labels[i], labels[j]), by ascending i, then j."""
    return [(a, b) for a, row in zip(labels, rows) if row for b in elements_of(labels, row)]


def int_ids(ids):
    """The ids as a list; raises DomainError naming the first id that is
    not an int (ids are sorted, so mixed types cannot be ordered)."""
    ids = list(ids)
    for e in ids:
        if type(e) is not int:
            raise DomainError(f"element id {brief(e)} is not an integer")
    return ids


def load_pairs(carrier, pairs):
    """The sorted carrier and the row bitsets over it of the given pairs.

    Raises DomainError on a carrier id that is not an int, and on an item
    that is not a pair of carrier elements (a bool or a float is not one,
    even where it equals one).
    """
    carrier = sorted(set(int_ids(carrier)))
    index = {e: i for i, e in enumerate(carrier)}
    rows = [0] * len(carrier)
    for pair in pairs:
        try:
            a, b = pair
            i, j = index[a], index[b]
        except KeyError:
            raise DomainError(f"pair {brief(pair)} mentions unknown elements") from None
        except (TypeError, ValueError):
            raise DomainError(f"{brief(pair)} is not a pair of elements") from None
        if type(a) is not int or type(b) is not int:
            raise DomainError(f"pair {brief(pair)} has an id that is not an integer")
        rows[i] |= 1 << j
    return carrier, rows


def gather(rows, idx):
    """The relation induced on the strictly ascending indices idx,
    re-indexed: bit k of out[p] is set iff bit idx[k] of rows[idx[p]] is."""
    if len(idx) == len(rows):
        return list(rows)
    pos = {j: k for k, j in enumerate(idx)}
    keep = sum(1 << j for j in idx)
    out = []
    for j in idx:
        row = rows[j] & keep
        r = 0
        while row:
            low = row & -row
            r |= 1 << pos[low.bit_length() - 1]
            row ^= low
        out.append(r)
    return out


def _check_rows(rows, n):
    """DomainError unless there is one row per element and every row is a
    bitset over the n indices (r >> n is -1 for a negative r)."""
    if len(rows) != n:
        raise DomainError(f"{len(rows)} rows for {n} elements")
    for r in rows:
        if r >> n:
            raise DomainError(f"row {rows.index(r)} is not a bitset over {n} elements")


def _check_strict_order(rows):
    # a transitive relation without loops is antisymmetric: a 2-cycle
    # i < j < i would close to i < i
    for i, r in enumerate(rows):
        if r >> i & 1:
            raise CycleError(f"element index {i} related to itself")
    if not is_transitive(rows):
        raise CycleError("relation is not transitively closed")


def make_poset(elements, edges):
    """Transitive closure of the generator edges, as a strict order.

    Raises CycleError if the closure would relate some element to itself.
    """
    elements, rows = load_pairs(elements, edges)
    n = len(elements)
    # Warshall over bitset rows.
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    for i in range(n):
        if rows[i] >> i & 1:
            raise CycleError("edges close to a cycle")
    return Poset(elements, rows, _validated=True)


def longest_chain(p: Poset):
    """A maximum-length strictly increasing sequence; ties broken by the
    lexicographically least id sequence."""
    return [p.elements[i] for i in longest_chain_indices(p._rows)]


def longest_chain_indices(rows):
    """A maximum-length chain of the strict order whose ``rows[i]`` is the
    bitset of the indices above i, as indices; ties broken by the
    lexicographically least index sequence.  None when the relation is not
    transitive: the sweep that fills the chain lengths also tests that each
    successor's row lies inside its predecessor's."""
    n = len(rows)
    if n == 0:
        return []
    # transitivity makes ascending successor count a reverse topological
    # order, so chain lengths fill in a single sweep
    length = [1] * n
    for i in sorted(range(n), key=[r.bit_count() for r in rows].__getitem__):
        r = rows[i]
        outside = ~r
        best = 0
        while r:
            low = r & -r
            j = low.bit_length() - 1
            if rows[j] & outside:
                return None
            if length[j] > best:
                best = length[j]
            r ^= low
        length[i] = 1 + best
    # level[h]: the indices whose longest chain upward has h elements
    level = [0] * (max(length) + 1)
    for i, h in enumerate(length):
        level[h] |= 1 << i
    m = level[-1]
    chain = [(m & -m).bit_length() - 1]
    for need in range(len(level) - 2, 0, -1):
        m = rows[chain[-1]] & level[need]
        chain.append((m & -m).bit_length() - 1)
    return chain


class RelStructure:
    """A finite structure with one asymmetric irreflexive binary relation."""

    __slots__ = ("universe", "_index", "_rows")

    def __init__(self, universe, rows):
        self.universe = tuple(sorted(universe))
        self._index = {e: i for i, e in enumerate(self.universe)}
        self._rows = tuple(rows)
        _check_rows(self._rows, len(self.universe))
        for i, (r, d) in enumerate(zip(self._rows, transpose(self._rows))):
            if r >> i & 1:
                raise AsymmetryError("relation is reflexive at some element")
            if r & d:
                raise AsymmetryError("relation holds in both directions")

    @classmethod
    def from_pairs(cls, universe, pairs):
        return cls(*load_pairs(universe, pairs))

    def related(self, a, b):
        return bool(self._rows[self._index[a]] >> self._index[b] & 1)

    def pairs(self):
        return list_pairs(self.universe, self._rows)

    def __len__(self):
        return len(self.universe)

    def to_json_dict(self):
        return {"universe": list(self.universe), "pairs": [list(p) for p in self.pairs()]}


def linear_extension(p: Poset, subset=None, before=None):
    """A linear extension of p (restricted to subset), with before=(a, b)
    forcing a strictly earlier than b.  Requires that b is not below a.

    Deterministic: smallest available id first.
    """
    if subset is None:
        left = (1 << len(p.elements)) - 1
    else:
        index = p._index
        left = 0
        try:
            for e in subset:
                left |= 1 << index[e]
        except KeyError:
            raise DomainError(f"element {brief(e)} not in poset") from None
    below = p._down_rows()
    if before is not None:
        a, b = before
        if p.lt(b, a) or a == b:
            raise CycleError("requested pair contradicts the order")
        ia, ib = p._index[a], p._index[b]
        if not (left >> ia & 1 and left >> ib & 1):
            raise DomainError("requested pair lies outside the subset")
        below = list(below)
        below[ib] |= 1 << ia
    out = []
    while left:
        # the smallest element with nothing left below it comes next
        r = left
        while r:
            low = r & -r
            if not below[low.bit_length() - 1] & left:
                break
            r ^= low
        else:
            raise CycleError("no linear extension exists")
        out.append(p.elements[low.bit_length() - 1])
        left ^= low
    return out


# --- enumeration of small posets up to isomorphism --------------------------

def enumerate_poset_isotypes(n):
    """All isomorphism types of posets on n elements, as Posets over 0..n-1.

    Each type is given by its least-mask natural labelling: among the
    labellings that make the identity a linear extension (upper-triangular
    rows), the one whose relation, read as the bitmask over the pairs
    (0, 1), (0, 2), ..., (n-2, n-1), is least.  Types come in ascending
    order of that mask.

    An n-poset is an (n-1)-poset with a new minimal element added below an
    up-closed set, so the types of n come from the types of n-1 by every
    such one-point extension; the canonical labelling of each candidate
    removes the duplicates.
    """
    types = [()]
    for _ in range(n):
        found = set()
        for rows in types:
            old = [r << 1 for r in rows]
            for up in _up_sets(rows):
                found.add(_canonical_key([up << 1] + old))
        # the mask weights the rows from the last down to the first, so
        # ascending keys are ascending masks
        types = [key[::-1] for key in sorted(found)]
    return [Poset(range(n), rows, _validated=True) for rows in types]


def _up_sets(rows):
    """Every up-closed subset of the order, as a bitset."""
    for s in range(1 << len(rows)):
        if not reach(rows, s) & ~s:
            yield s


def _canonical_key(rows):
    """(row n-1, ..., row 0) of the least-mask natural labelling.

    Labels go out from n-1 down to 0.  Label i may go to any unlabelled
    element whose successors are all labelled, and its row is the set of
    those successors' labels, so the least key takes the least row at every
    step; only ties branch.  Tied elements with the same predecessors are
    interchangeable by an automorphism, so one of them suffices.
    """
    downs = transpose(rows)
    label = [0] * len(rows)
    key = []
    best = None

    def descend(left):
        nonlocal best
        if not left:
            if best is None or key < best:
                best = key[:]
            return
        options = {}
        r = left
        while r:
            low = r & -r
            r ^= low
            x = low.bit_length() - 1
            succ = rows[x]
            if succ & left:
                continue
            row = 0
            while succ:
                s = succ & -succ
                row |= 1 << label[s.bit_length() - 1]
                succ ^= s
            options.setdefault(row, {}).setdefault(downs[x], x)
        row = min(options)
        key.append(row)
        if best is None or key <= best[:len(key)]:
            i = left.bit_count() - 1
            for x in options[row].values():
                label[x] = i
                descend(left ^ 1 << x)
        key.pop()

    descend((1 << len(rows)) - 1)
    return tuple(best)
