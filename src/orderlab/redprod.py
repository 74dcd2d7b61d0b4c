"""Reduced products of finite structures over explicit filters.

A proper filter on a finite ground set is exactly the family of supersets of
its (nonempty) core, so class formation and relation semantics reduce to
agreement on the core.  The family is still stored and validated explicitly,
and the definitional membership test is kept for double-evaluation checks.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import itemgetter

from .errors import (ArityError, BudgetError, DomainError, FilterError,
                     FormulaError, brief)
from .fol import Atom, FiniteStructure, Not, pair_rows, pair_sorts
from .posets import longest_chain_indices, transpose


def _ground(ground):
    """The ground size; raises FilterError when it is not an int."""
    if type(ground) is not int:
        raise FilterError(f"filter ground {brief(ground)} is not an integer")
    return ground


def _id_set(ids):
    """The ids as a frozenset; raises FilterError when they are not an
    iterable of ints."""
    try:
        ids = list(ids)
    except TypeError:
        raise FilterError(f"{brief(ids)} is not a set of ids") from None
    for i in ids:
        if type(i) is not int:
            raise FilterError(f"filter id {brief(i)} is not an integer")
    return frozenset(ids)


class FilterFamily:
    """An explicit proper filter on ground set 0..ground-1."""

    __slots__ = ("ground", "members", "core")

    def __init__(self, ground, members):
        self.ground = _ground(ground)
        mems = frozenset(_id_set(m) for m in members)
        # no member as large as the ground set: refused before range(ground)
        if ground > max(map(len, mems), default=0):
            raise FilterError("the ground set must belong to the filter")
        full = frozenset(range(ground))
        if full not in mems:
            raise FilterError("the ground set must belong to the filter")
        if frozenset() in mems:
            raise FilterError("a proper filter excludes the empty set")
        for m in mems:
            if not m <= full:
                raise FilterError("member outside the ground set")
        # all members contain the core, so they are exactly its supersets
        # when the core is a member and they number 2^(ground - |core|)
        core = reduce(frozenset.__and__, mems)
        if core not in mems:
            raise FilterError("family not closed under intersection")
        if len(mems) != 1 << (self.ground - len(core)):
            raise FilterError("family not upward closed")
        self.members = mems
        self.core = core

    @classmethod
    def principal(cls, ground, core):
        """The filter of all supersets of core."""
        core = _id_set(core)
        if not core:
            raise FilterError("a proper filter needs a nonempty core")
        ground = _ground(ground)
        # 2^free members: more than MAX_VECTORS exactly when free reaches
        # its bit length
        free = ground - sum(0 <= i < ground for i in core)
        if free >= ReducedProduct.MAX_VECTORS.bit_length():
            raise BudgetError(f"a filter with 2^{free} members is too large")
        rest = sorted(frozenset(range(ground)) - core)
        members = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                members.append(core | frozenset(extra))
        return cls(ground, members)

    @classmethod
    def principal_ultrafilter(cls, ground, point):
        return cls.principal(ground, {point})

    def __contains__(self, subset):
        return frozenset(subset) in self.members

    def to_json_dict(self):
        return {"ground": self.ground,
                "members": sorted(sorted(m) for m in self.members)}


class ReducedProduct:
    """Quotient of a finite direct product by agreement on a filter set.

    A proper filter on a finite ground set is determined by its core, so a
    class is fixed by its core coordinates: its representative keeps them
    and takes every other coordinate at its factor's least element, the
    first vector of the class in product order.  Relations are evaluated
    on demand at the vectors given, which is class-independent, since filter
    membership reads only the core.  The vectors and the class
    representatives, both in product order, are built when first read.
    """

    __slots__ = ("factors", "filt", "_ids", "_core_key", "_rep_values", "_vectors",
                 "_class_reps")

    MAX_VECTORS = 65536

    def __init__(self, factors, filt: FilterFamily):
        factors = tuple(factors)
        if not factors:
            raise FilterError("at least one factor is required")
        if filt.ground != len(factors):
            raise FilterError("filter ground set differs from the factor count")
        names = factors[0].relations.keys()
        for f in factors:
            if f.relations.keys() != names:
                raise FormulaError("factors must share a relation signature")
            for name in names:
                if f.arity(name) != factors[0].arity(name):
                    raise ArityError(f"factors disagree on the arity of {brief(name)}")
        total = 1
        for f in factors:
            total *= max(len(f), 1)
        if total > self.MAX_VECTORS:
            raise BudgetError(f"direct product with {total} vectors is too large")
        self.factors = factors
        self.filt = filt
        self._ids = [frozenset(f.universe) for f in factors]
        self._core_key = itemgetter(*filt.core)
        # the values a representative takes: any on the core, its factor's
        # least element elsewhere
        self._rep_values = [f.universe if n in filt.core else f.universe[:1]
                            for n, f in enumerate(factors)]
        self._vectors = self._class_reps = None

    @property
    def vectors(self):
        """Every vector of the direct product, in product order."""
        if self._vectors is None:
            self._vectors = tuple(itertools.product(*(f.universe for f in self.factors)))
        return self._vectors

    @property
    def class_reps(self):
        """One representative per class, in product order."""
        if self._class_reps is None:
            self._class_reps = tuple(itertools.product(*self._rep_values))
        return self._class_reps

    def counts(self):
        """(classes, vectors), from the factor sizes."""
        return (math.prod(map(len, self._rep_values)),
                math.prod(map(len, self.factors)))

    def _check(self, v):
        """v, if it is a vector of the product; DomainError otherwise (ids are
        ints: 0.0 and True are refused)."""
        if (len(v) != len(self._ids) or {*map(type, v)} != {int}
                or not all(map(frozenset.__contains__, self._ids, v))):
            raise DomainError(f"vector {brief(list(v))} is not in the product")
        return v

    def atomic_index_set(self, name, vectors):
        """Coordinates at which the factors satisfy the atomic relation."""
        out = set()
        for n, f in enumerate(self.factors):
            if f.holds(name, tuple(v[n] for v in vectors)):
                out.add(n)
        return frozenset(out)

    def same_class(self, v, w):
        key = self._core_key
        return key(self._check(tuple(v))) == key(self._check(tuple(w)))

    def holds(self, name, vectors):
        """Satisfaction of an atomic relation at classes (given by any
        representatives): the coordinatewise satisfaction set must belong to
        the filter."""
        vectors = [tuple(v) for v in vectors]
        arity = self.factors[0].arity(name)
        if len(vectors) != arity:
            raise ArityError(f"{brief(name)} expects {arity} arguments")
        return self.atomic_index_set(name, [self._check(v) for v in vectors]) in self.filt


def reduced_product(factors, filt: FilterFamily) -> ReducedProduct:
    return ReducedProduct(factors, filt)


def _literal_parts(phi):
    """(name, vars, negated) of an atomic or negated-atomic formula."""
    if isinstance(phi, Atom):
        return phi.name, phi.vars, False
    if isinstance(phi, Not) and isinstance(phi.arg, Atom):
        return phi.arg.name, phi.arg.vars, True
    raise FormulaError("only atomic or negated-atomic formulas are accepted")


def atomic_los_check(rp: ReducedProduct, phi, vectors):
    """Double-evaluate an atomic or negated-atomic formula.

    Compares satisfaction in the product against filter membership of the
    coordinatewise satisfaction set at the given representatives, one per
    distinct variable in order of first appearance.  Returns (equivalence
    holds, that index set).
    """
    name, vars_, negated = _literal_parts(phi)
    vectors = [tuple(v) for v in vectors]
    distinct = len(set(vars_))
    if len(vectors) != distinct:
        raise ArityError("one representative vector per formula variable")
    if distinct < len(vars_):  # a repeated variable takes its vector again
        bound = dict(zip(dict.fromkeys(vars_), vectors))
        vectors = [bound[x] for x in vars_]
    product_truth = rp.holds(name, vectors)
    if negated:
        product_truth = not product_truth
    index_set = set()
    for n, f in enumerate(rp.factors):
        coord = f.holds(name, tuple(v[n] for v in vectors))
        if negated:
            coord = not coord
        if coord:
            index_set.add(n)
    return product_truth == (frozenset(index_set) in rp.filt), frozenset(index_set)


# --- chain search -------------------------------------------------------------

EXACT_SEARCH_BOUND = 10_000


def longest_op_chain(s: FiniteStructure, phi):
    """A maximum-length tuple sequence where the pair formula holds exactly
    in the forward direction for every index pair.

    When the strict comparison relation is transitive it is a strict order
    and the longest-chain sweep, which tests transitivity as it goes, is
    exact; otherwise an exhaustive candidate-set search runs.
    """
    xs, _ = pair_sorts(phi)
    tuples = list(itertools.product(s.universe, repeat=len(xs)))
    if len(tuples) > EXACT_SEARCH_BOUND:
        raise BudgetError(f"{len(tuples)} tuples exceed the exact-search bound")
    ab = pair_rows(s, phi, tuples)
    # an irreflexive relation that the sweep finds transitive is asymmetric,
    # so it is its own strict comparison and needs no backward rows
    chain = None
    if not any(r >> i & 1 for i, r in enumerate(ab)):
        chain = longest_chain_indices(ab)
    if chain is None:
        # the backward relation is the converse: phi holds of (tuples[j], tuples[i])
        above = [f & ~b for f, b in zip(ab, transpose(ab))]
        chain = longest_chain_indices(above)
    if chain is not None:
        return [tuples[i] for i in chain]

    # exhaustive: each extension must sit strictly above every chain member,
    # so candidate sets shrink by intersection and every chain is visited
    # once, in its forced order
    best_chain = []

    def extend(chain, cand):
        nonlocal best_chain
        if len(chain) > len(best_chain):
            best_chain = list(chain)
        if len(chain) + cand.bit_count() <= len(best_chain):
            return
        c = cand
        while c:
            j = (c & -c).bit_length() - 1
            c &= c - 1
            chain.append(j)
            extend(chain, cand & above[j])
            chain.pop()

    n = len(tuples)
    extend([], (1 << n) - 1)
    return [tuples[i] for i in best_chain]
