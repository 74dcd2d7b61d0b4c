"""An injectively universal asymmetric relation on the naturals.

The relation between m < n is read off the base-3 digit of n at position m:
digit 1 points m toward n, digit 2 points n toward m, digit 0 leaves the
pair unrelated.  Prescribing the digits of a fresh number therefore realises
any finite neighbourhood pattern, which is what drives the embedding
recursion.

Because a fresh number must carry digits at the positions of the already
chosen images, images of chains grow like towers of 3: a five-element chain
already outruns any materialised bignum.  SparseNat keeps such numbers
exact as sparse base-3 supports whose positions are again sparse numbers;
all operations here accept plain ints and SparseNats interchangeably and
return plain ints whenever the value fits.  Values below 2^63 travel as
plain ints: a SparseNat without a small form is at least 2^63, so the two
are compared without converting either side.
"""

from __future__ import annotations

import enum
import sys
from functools import cmp_to_key, total_ordering

from .errors import DisjointnessError
from .posets import OrderMap, RelStructure


class Rel(enum.Enum):
    FORWARD = "forward"        # m points to n
    BACKWARD = "backward"      # n points to m
    UNRELATED = "unrelated"


_SMALL_LIMIT = 1 << 63
# witness() adds plain powers of 3 when every position is an int below
# this: the sum stays below 3^40, and one of 2^63 or more goes the sparse way
_INT_POSITIONS = 40
_HASH_MODULUS = sys.hash_info.modulus
# direction of (m, n) by the digit of the larger at the smaller's position,
# when m is the smaller and when m is the larger
_DIRS_UP = (Rel.UNRELATED, Rel.FORWARD, Rel.BACKWARD)
_DIRS_DOWN = (Rel.UNRELATED, Rel.BACKWARD, Rel.FORWARD)


@total_ordering
class SparseNat:
    """An exact natural number as a sparse base-3 support.

    ``support`` holds (position, digit) pairs with digit in {1, 2}, sorted
    by descending position; positions are ints or SparseNats.  Zero is the
    empty support.  ``small()`` is the plain-int value exactly when it is
    below 2^63.
    """

    __slots__ = ("support", "_small")

    def __init__(self, support):
        sup = tuple((pos, d) for pos, d in support if d)
        for pos, d in sup:
            if d not in (1, 2):
                raise ValueError("digits must be 1 or 2")
            if not isinstance(pos, SparseNat) and pos < 0:
                raise ValueError("naturals only")
        self.support = tuple(sorted(sup, key=_POS_KEY, reverse=True))
        for (p, _), (q, _) in zip(self.support, self.support[1:]):
            if _compare(p, q) == 0:
                raise ValueError("duplicate positions in the support")
        self._small = self._compute_small()

    def _compute_small(self):
        total = 0
        for pos, d in self.support:
            p = pos.small() if isinstance(pos, SparseNat) else pos
            if p is None or p >= 64:
                return None
            total += d * 3 ** p
            if total >= _SMALL_LIMIT:
                return None
        return total

    @classmethod
    def from_int(cls, n):
        if n < 0:
            raise ValueError("naturals only")
        support = []
        pos = 0
        while n:
            n, d = divmod(n, 3)
            if d:
                support.append((pos, d))
            pos += 1
        return cls(support)

    def small(self):
        """The plain-int value when it fits, else None."""
        return self._small

    def digit_at(self, pos):
        for q, d in self.support:
            if _compare(q, pos) == 0:
                return d
        return 0

    def add_power(self, pos, digit=1):
        """self + digit * 3^pos, assuming position pos is free or absorbs
        without overflowing a digit (carries handled)."""
        cur = self.digit_at(pos)
        total = cur + digit
        rest = [(q, d) for q, d in self.support if _compare(q, pos) != 0]
        if total <= 2:
            return SparseNat(rest + [(pos, total)])
        # carry: digit 3 -> 0 carry 1, digit 4 -> 1 carry 1
        keep = total - 3
        out = SparseNat(rest + ([(pos, keep)] if keep else []))
        return out.add_power(_succ(pos), 1)

    def successor(self):
        return self.add_power(0, 1)

    def __eq__(self, other):
        if not isinstance(other, (int, SparseNat)):
            return NotImplemented
        return _compare(self, other) == 0

    def __lt__(self, other):
        if not isinstance(other, (int, SparseNat)):
            return NotImplemented
        return _compare(self, other) < 0

    def __hash__(self):
        if self._small is not None:
            return hash(self._small)
        if all(_small_of(p) is not None for p, _ in self.support):
            # a plain int may hold this value: hash as Python hashes it
            return sum(d * pow(3, _small_of(p), _HASH_MODULUS)
                       for p, d in self.support) % _HASH_MODULUS
        # at least 3^(2^63), beyond any plain int
        return hash(tuple((hash(p), d) for p, d in self.support))

    def __int__(self):
        if self._small is None:
            raise OverflowError("value does not fit a materialised integer")
        return self._small

    def __repr__(self):
        if self._small is not None:
            return f"SparseNat({self._small})"
        terms = " + ".join(f"{d}*3^{pos!r}" for pos, d in self.support)
        return f"SparseNat({terms})"

    def describe(self):
        """A JSON-able exact description."""
        if self._small is not None:
            return self._small
        return {"sum": [{"digit": d,
                         "exp": pos.describe() if isinstance(pos, SparseNat) else pos}
                        for pos, d in self.support]}


def as_nat(x):
    if isinstance(x, SparseNat):
        return x
    return SparseNat.from_int(x)


def _small_of(x):
    """x as a plain int when it is below 2^63, else None."""
    if isinstance(x, SparseNat):
        return x._small
    return x if x < _SMALL_LIMIT else None


def _compare(a, b):
    """-1, 0 or 1 as a is below, equal to or above b, for ints and
    SparseNats alike.  Only two values of at least 2^63 are walked."""
    if type(a) is int and type(b) is int:
        return (a > b) - (a < b)
    sa, sb = _small_of(a), _small_of(b)
    if sa is not None and sb is not None:
        return (sa > sb) - (sa < sb)
    if sa is not None or sb is not None:
        return -1 if sa is not None else 1
    return _cmp(as_nat(a), as_nat(b))


_POS_KEY = cmp_to_key(lambda x, y: _compare(x[0], y[0]))


def _succ(pos):
    if isinstance(pos, int):
        return pos + 1
    nxt = pos.successor()
    return nxt._small if nxt._small is not None else nxt


def _cmp(a: SparseNat, b: SparseNat):
    """Base-3 comparison of sparse supports, top position first."""
    sa, sb = a.support, b.support
    for (pa, da), (pb, db) in zip(sa, sb):
        c = _compare(pa, pb)
        if c:
            return c
        if da != db:
            return 1 if da > db else -1
    if len(sa) != len(sb):
        return 1 if len(sa) > len(sb) else -1
    return 0


def _as_small_or_nat(x):
    """Plain int when the value fits, else the SparseNat itself."""
    if isinstance(x, SparseNat):
        s = x.small()
        return s if s is not None else x
    return x


def _require_naturals(*xs):
    for x in xs:
        if not isinstance(x, SparseNat) and x < 0:
            raise ValueError("naturals only")


def ternary_digit(n, m):
    """Digit of n at base-3 position m."""
    _require_naturals(n, m)
    n, m = _as_small_or_nat(n), _as_small_or_nat(m)
    if isinstance(n, SparseNat):
        return n.digit_at(m)
    if isinstance(m, SparseNat):
        return 0  # m is at least 2^63, so 3^m exceeds any plain int n
    if m >= n.bit_length():  # 3^m > 2^m > n
        return 0
    return n // 3 ** m % 3


def rel(m, n) -> Rel:
    """Direction of the pair (m, n); Unrelated when m == n."""
    if type(m) is int and type(n) is int:
        if m < 0 or n < 0:
            raise ValueError("naturals only")
        # the digit read inline, as in ternary_digit: this is the hot call
        if m < n:
            return _DIRS_UP[n // 3 ** m % 3] if m < n.bit_length() else Rel.UNRELATED
        if n < m:
            return _DIRS_DOWN[m // 3 ** n % 3] if n < m.bit_length() else Rel.UNRELATED
        return Rel.UNRELATED
    _require_naturals(m, n)
    c = _compare(m, n)
    if c == 0:
        return Rel.UNRELATED
    if c < 0:
        return _DIRS_UP[ternary_digit(n, m)]
    return _DIRS_DOWN[ternary_digit(m, n)]


def witness(f_set, g_set):
    """The number pointing from everything in f_set, toward everything in
    g_set, and unrelated to every other smaller number: digit 1 at the
    f-positions and digit 2 at the g-positions."""
    f_set, g_set = list(f_set), list(g_set)
    if all(type(x) is int and 0 <= x < _INT_POSITIONS for x in f_set + g_set):
        fs, gs = set(f_set), set(g_set)
        if fs & gs:
            raise DisjointnessError("the two prescribed sets overlap")
        if len(fs) < len(f_set) or len(gs) < len(g_set):
            raise ValueError("duplicate positions in the support")
        n = sum(3 ** x for x in fs) + 2 * sum(3 ** x for x in gs)
        if n < _SMALL_LIMIT:
            return n
    for x in f_set:
        for y in g_set:
            if _compare(x, y) == 0:
                raise DisjointnessError("the two prescribed sets overlap")
    out = SparseNat([(_as_small_or_nat(x), 1) for x in f_set]
                    + [(_as_small_or_nat(x), 2) for x in g_set])
    return _as_small_or_nat(out)


def witness_above(f_set, g_set, bound):
    """witness(f_set, g_set) plus a single high digit 3^P, with P the least
    position above both bound and the prescribed sets (that position is
    never itself prescribed, so the digit pattern survives and the result
    exceeds bound)."""
    _require_naturals(bound)
    f_set, g_set = list(f_set), list(g_set)
    base = witness(f_set, g_set)
    top = bound
    for x in f_set + g_set:
        if _compare(top, x) < 0:
            top = x
    p = _succ(_as_small_or_nat(top))
    if type(base) is int and type(p) is int and p < _INT_POSITIONS:
        return base + 3 ** p  # base < 3^p, so the sum is below 2 * 3^39
    return _as_small_or_nat(as_nat(base).add_power(p, 1))


def embed_structure(s: RelStructure) -> OrderMap:
    """Embed a finite asymmetric structure, matching its relation exactly.

    Elements are processed in increasing id order; each image is produced by
    witness_above against the images already chosen, so images are strictly
    increasing and every digit constraint refers to a smaller number.
    """
    images = {}
    bound = None
    for x in s.universe:
        fwd = [images[y] for y in images if s.related(y, x)]
        bwd = [images[y] for y in images if s.related(x, y)]
        if bound is None:
            images[x] = 0
        else:
            images[x] = witness_above(fwd, bwd, bound)
        bound = images[x]
    return OrderMap(dom=s, images=images)


def verify_embedding(s: RelStructure, om: OrderMap) -> bool:
    """Exact roundtrip: the induced relation on the images equals s."""
    imgs = [om.images[x] for x in s.universe]
    for i, a in enumerate(imgs):
        for b in imgs[i + 1:]:
            if a == b:
                return False
    for a in s.universe:
        for b in s.universe:
            if a == b:
                continue
            expected = Rel.FORWARD if s.related(a, b) else (
                Rel.BACKWARD if s.related(b, a) else Rel.UNRELATED)
            if rel(om.images[a], om.images[b]) is not expected:
                return False
    return True
