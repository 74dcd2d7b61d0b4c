"""Finite relational structures and quantifier-free formula evaluation.

The language is purely relational; constants, if needed, are unary
relations.  Formulas are s-expressions over atoms, negation, conjunction
and disjunction, e.g. "(and (R x0 y0) (not (R y0 x0)))".  Pair formulas
follow the variable convention x0..x{k-1}, y0..y{k-1} for two tuples of the
same sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import and_, itemgetter, or_

from .errors import ArityError, DomainError, FormulaError, brief
from .posets import int_ids


def _first_fault(name, arity, items, uset):
    """Raise the error of the first fault among a relation's tuples: every
    id is checked before any arity, and the arities and universe membership
    tuple by tuple in set order."""
    tset = {tuple(int_ids(t)) for t in items}
    for t in tset:
        if len(t) != arity:
            raise ArityError(f"tuple {brief(t)} has wrong arity for {brief(name)}")
        if not set(t) <= uset:
            raise DomainError(f"tuple {brief(t)} leaves the universe")


class FiniteStructure:
    """Universe of integer ids plus named relations with fixed arities."""

    __slots__ = ("universe", "relations")

    def __init__(self, universe, relations):
        self.universe = tuple(sorted(int_ids(universe)))
        uset = set(self.universe)
        rels = {}
        for name, (arity, tuples) in relations.items():
            items = list(tuples)
            # ids, arities and membership in bulk passes, the ids before any
            # tuple is hashed (True and 1.0 equal 1); a fault is named by the
            # tuple-by-tuple check
            try:
                rows = list(map(tuple, items))
            except TypeError:  # an item that is not iterable
                rows = None
            if (rows is None
                    or not set(map(type, chain.from_iterable(rows))) <= {int}
                    or any(n != arity for n in set(map(len, rows)))
                    or not uset.issuperset(chain.from_iterable(rows))):
                _first_fault(name, arity, items, uset)
            rels[name] = (arity, frozenset(rows))
        self.relations = rels

    def holds(self, name, args):
        try:
            arity, tuples = self.relations[name]
        except KeyError:
            raise FormulaError(f"unknown relation {brief(name)}") from None
        args = tuple(args)
        if len(args) != arity:
            raise ArityError(f"{brief(name)} expects {arity} arguments, got {len(args)}")
        return args in tuples

    def arity(self, name):
        if name not in self.relations:
            raise FormulaError(f"unknown relation {brief(name)}")
        return self.relations[name][0]

    def __len__(self):
        return len(self.universe)

    def to_json_dict(self):
        return {
            "universe": list(self.universe),
            "relations": {
                name: {"arity": arity, "tuples": sorted(list(t) for t in tuples)}
                for name, (arity, tuples) in sorted(self.relations.items())
            },
        }


# --- formulas ----------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str
    vars: tuple


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


# parentheses a formula may nest; the parser and the formula walkers recurse
# once per level, and this keeps them well inside the recursion limit
MAX_NESTING = 200


def parse_formula(text):
    """Parse an s-expression into a formula tree."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def read(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise FormulaError("unexpected ')'")
        if tok != "(":
            raise FormulaError(f"expected '(', got {brief(tok)}")
        if pos == len(tokens):
            raise FormulaError("unexpected end of formula")
        if depth == MAX_NESTING:
            raise FormulaError(f"formula nested deeper than {MAX_NESTING}")
        head = tokens[pos]
        pos += 1
        if head == "(" or head == ")":
            raise FormulaError("expected an operator or relation name")
        items = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                items.append(read(depth + 1))
            else:
                items.append(tokens[pos])
                pos += 1
        if pos >= len(tokens):
            raise FormulaError("missing ')'")
        pos += 1  # consume ')'
        if head == "not":
            if len(items) != 1:
                raise FormulaError("'not' takes exactly one argument")
            return Not(items[0])
        if head in ("and", "or"):
            if not items or any(isinstance(a, str) for a in items):
                raise FormulaError(f"'{head}' takes formula arguments")
            return (And if head == "and" else Or)(tuple(items))
        if any(not isinstance(a, str) for a in items):
            raise FormulaError("atom arguments must be variables")
        return Atom(head, tuple(items))

    node = read(0)
    if pos != len(tokens):
        raise FormulaError("trailing tokens after formula")
    return node


def _atoms(phi):
    """The atoms of a formula, left to right."""
    if isinstance(phi, Atom):
        yield phi
    elif isinstance(phi, Not):
        yield from _atoms(phi.arg)
    elif isinstance(phi, (And, Or)):
        for a in phi.args:
            yield from _atoms(a)
    else:
        raise FormulaError(f"not a formula node: {brief(phi)}")


def formula_vars(phi):
    return {v for atom in _atoms(phi) for v in atom.vars}


def eval_qf(s: FiniteStructure, phi, assignment) -> bool:
    """Classical satisfaction of a quantifier-free formula."""
    if isinstance(phi, Atom):
        try:
            args = [assignment[v] for v in phi.vars]
        except KeyError as e:
            raise DomainError(f"assignment misses variable {brief(e.args[0])}") from None
        return s.holds(phi.name, args)
    if isinstance(phi, Not):
        return not eval_qf(s, phi.arg, assignment)
    if isinstance(phi, And):
        return all(eval_qf(s, a, assignment) for a in phi.args)
    if isinstance(phi, Or):
        return any(eval_qf(s, a, assignment) for a in phi.args)
    raise FormulaError(f"not a formula node: {brief(phi)}")


def pair_sorts(phi):
    """The (x-vars, y-vars) of a pair formula, validated to be of equal
    length and named x0..x{k-1} / y0..y{k-1}."""
    names = formula_vars(phi)
    xs = sorted(n for n in names if n.startswith("x"))
    ys = sorted(n for n in names if n.startswith("y"))
    if set(xs) | set(ys) != names:
        raise FormulaError("pair formulas use variables x0..x{k-1}, y0..y{k-1}")
    k = max(len(xs), len(ys))
    want_x = [f"x{i}" for i in range(k)]
    want_y = [f"y{i}" for i in range(k)]
    if not set(xs) <= set(want_x) or not set(ys) <= set(want_y):
        raise FormulaError("pair formulas use variables x0..x{k-1}, y0..y{k-1}")
    return tuple(want_x), tuple(want_y)


def _getter(positions):
    """Key function giving a tuple's values at ``positions``: the
    value itself at one position, a tuple of values otherwise."""
    return itemgetter(*positions) if positions else lambda r: ()


def pair_rows(s: FiniteStructure, phi, tuples):
    """Compile a pair formula to bitset rows over ``tuples``.

    Row i has bit j set iff ``phi`` holds with x0..x{k-1} bound to
    ``tuples[i]`` and y0..y{k-1} to ``tuples[j]``.  Each atom is compiled
    once from its relation's tuples.  The tuple list is grouped by the
    values it gives the atom's y-variables (its columns); each relation
    tuple ORs the column group of its y-values into the row group of its
    x-values, and row i is the row group of the x-values of ``tuples[i]``.
    The connectives are bit operations on whole rows.
    """
    xs, ys = pair_sorts(phi)
    # the errors eval_qf raises, before any tuple is read
    for atom in _atoms(phi):
        arity = s.arity(atom.name)
        if len(atom.vars) != arity:
            raise ArityError(f"{brief(atom.name)} expects {arity} arguments, got {len(atom.vars)}")
    tuples = [tuple(t) for t in tuples]
    if any(len(t) != len(xs) for t in tuples):
        raise ArityError("tuple length differs from the formula sort")
    full = (1 << len(tuples)) - 1
    coord = {v: k for k, v in enumerate(xs)}
    coord.update((v, k) for k, v in enumerate(ys))

    def atom_rows(atom):
        first = {}
        for q, v in enumerate(atom.vars):
            first.setdefault(v, q)
        xvars = [v for v in first if v[0] == "x"]
        yvars = [v for v in first if v[0] == "y"]
        rel = s.relations[atom.name][1]
        # a repeated variable needs equal values at each of its positions
        repeats = [(q, first[v]) for q, v in enumerate(atom.vars) if first[v] != q]
        if repeats:
            rel = [r for r in rel if all(r[q] == r[p] for q, p in repeats)]
        # cols[w]: the tuples giving the y-variables the values w; rows[w]:
        # the row of each tuple giving the x-variables the values w
        cols = {}
        for i, w in enumerate(map(_getter([coord[v] for v in yvars]), tuples)):
            cols[w] = cols.get(w, 0) | 1 << i
        get_x = _getter([first[v] for v in xvars])
        get_y = _getter([first[v] for v in yvars])
        rows = {}
        for r in rel:
            w = get_x(r)
            rows[w] = rows.get(w, 0) | cols.get(get_y(r), 0)
        return [rows.get(w, 0) for w in map(_getter([coord[v] for v in xvars]), tuples)]

    compiled = {}

    def compile_rows(node):
        if isinstance(node, Atom):
            if node not in compiled:
                compiled[node] = atom_rows(node)
            return compiled[node]
        if isinstance(node, Not):
            return [full ^ r for r in compile_rows(node.arg)]
        op = and_ if isinstance(node, And) else or_
        rows = compile_rows(node.args[0])
        for a in node.args[1:]:
            rows = list(map(op, rows, compile_rows(a)))
        return rows

    return compile_rows(phi)


def eval_pair(s: FiniteStructure, phi, left, right) -> bool:
    """Evaluate a pair formula at two same-sort tuples."""
    xs, ys = pair_sorts(phi)
    if len(left) != len(xs) or len(right) != len(ys):
        raise ArityError("tuple length differs from the formula sort")
    assignment = dict(zip(xs, left))
    assignment.update(zip(ys, right))
    return eval_qf(s, phi, assignment)
