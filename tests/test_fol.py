import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import schema
from orderlab.errors import ArityError, DomainError, FormulaError
from orderlab.fol import (MAX_NESTING, And, Atom, FiniteStructure, Not, Or,
                          eval_pair, eval_qf, pair_rows, pair_sorts, parse_formula)
from orderlab.posets import transpose

from oracles import linear_order_structure, load_structure_tuple_by_tuple


def format_formula(phi):
    """The s-expression text of a formula; parse_formula inverts it."""
    if isinstance(phi, Atom):
        return "(" + " ".join((phi.name,) + phi.vars) + ")"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.arg)})"
    if isinstance(phi, And):
        return "(and " + " ".join(format_formula(a) for a in phi.args) + ")"
    if isinstance(phi, Or):
        return "(or " + " ".join(format_formula(a) for a in phi.args) + ")"
    raise FormulaError(f"not a formula node: {phi!r}")


def edge_structure():
    return FiniteStructure([0, 1, 2], {"R": (2, [(0, 1)])})


def test_structure_validation():
    with pytest.raises(ArityError):
        FiniteStructure([0, 1], {"R": (2, [(0, 1, 1)])})
    with pytest.raises(DomainError):
        FiniteStructure([0, 1], {"R": (1, [(5,)])})
    for universe in ([0, "a"], [0, True, 2.5]):
        with pytest.raises(DomainError, match="is not an integer"):
            FiniteStructure(universe, {"R": (2, [])})
    s = edge_structure()
    assert s.holds("R", (0, 1)) and not s.holds("R", (1, 0))
    with pytest.raises(ArityError):
        s.holds("R", (0,))
    with pytest.raises(FormulaError):
        s.holds("Q", (0, 1))


BAD_IDS = [1.0, 0.0, True, False, "1", "a", [1], [0, 1], None, 2.5]


def seeded_structure_input(rng):
    """A universe and relations over it, with faults injected at random:
    ids of other types, wrong arities, ids outside the universe and items
    that are not tuples, alone or several at once; about one in five
    inputs is clean."""
    n = rng.randint(0, 5)
    universe = list(range(n)) + rng.sample([7, -3, 12], rng.randint(0, 2))
    rng.shuffle(universe)
    relations = {}
    for r in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        tuples = [list(rng.choice(universe) for _ in range(arity)) if universe
                  else [] for _ in range(rng.randint(0, 8))]
        tuples = [t for t in tuples if len(t) == arity]
        relations[f"R{r}"] = (arity, tuples)
    faults = 0 if rng.random() < 0.2 else rng.randint(1, 3)
    for _ in range(faults):
        arity, tuples = relations[rng.choice(sorted(relations))]
        kind = rng.choice(["id", "id", "arity", "outside", "item"])
        t = [rng.choice(universe) if universe else 0 for _ in range(arity)]
        if kind == "id":
            t[rng.randrange(arity)] = rng.choice(BAD_IDS)
        elif kind == "arity":
            t = t + [0] if rng.random() < 0.5 else t[:-1]
        elif kind == "outside":
            t[rng.randrange(arity)] = rng.choice([5, 6, 99, -1])
        else:
            t = rng.choice([5, None, 2.5])
        tuples.insert(rng.randint(0, len(tuples)), t)
    if rng.random() < 0.5:
        relations = {name: (arity, [tuple(t) if isinstance(t, list) else t for t in ts])
                     for name, (arity, ts) in relations.items()}
    return universe, relations


def outcome(load, universe, relations):
    try:
        return load(universe, relations)
    except Exception as e:
        return type(e), str(e)


def load_in_bulk(universe, relations):
    s = FiniteStructure(universe, relations)
    return s.universe, s.relations


def test_bulk_loading_names_the_same_first_fault_as_the_tuple_loop():
    rng = random.Random(2024)
    kinds = collections.Counter()
    for k in range(3000):
        universe, relations = seeded_structure_input(rng)
        want = outcome(load_structure_tuple_by_tuple, universe, relations)
        if k % 3 == 0:  # the tuples as a one-shot iterator
            relations = {name: (arity, iter(ts)) for name, (arity, ts) in relations.items()}
        assert outcome(load_in_bulk, universe, relations) == want, (universe, relations)
        kinds[want[0].__name__ if isinstance(want[0], type) else "ok"] += 1
    assert set(kinds) == {"ok", "ArityError", "DomainError", "TypeError"}, kinds
    assert min(kinds.values()) >= 100, kinds


def test_bulk_loading_refuses_each_id_type_the_tuple_loop_refuses():
    for bad in BAD_IDS:
        for t in ([bad, 0], [0, bad], (bad, bad)):
            with pytest.raises(DomainError) as got:
                FiniteStructure([0, 1], {"R": (2, [[0, 1], t])})
            with pytest.raises(DomainError) as want:
                load_structure_tuple_by_tuple([0, 1], {"R": (2, [[0, 1], t])})
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"element id {bad!r} is not an integer"


def test_parse_and_format_round_trip():
    text = "(and (R x0 y0) (not (R y0 x0)))"
    phi = parse_formula(text)
    assert phi == And((Atom("R", ("x0", "y0")), Not(Atom("R", ("y0", "x0")))))
    assert format_formula(phi) == text
    assert parse_formula(format_formula(phi)) == phi


def test_parse_errors():
    for bad in ["", "(and)", "(not (R x) (R y))", "(R x", "(R x))",
                "(and foo)", "((R x))"]:
        with pytest.raises(FormulaError):
            parse_formula(bad)


def test_parse_refuses_nesting_past_its_bound_and_evaluates_up_to_it():
    def nested(depth):
        return "(not " * (depth - 1) + "(R a b)" + ")" * (depth - 1)

    phi = parse_formula(nested(MAX_NESTING))
    assert eval_qf(edge_structure(), phi, {"a": 1, "b": 0}) == (MAX_NESTING % 2 == 0)
    with pytest.raises(FormulaError, match="nested deeper"):
        parse_formula(nested(MAX_NESTING + 1))


def test_eval_atomic_negation_conjunction():
    s = edge_structure()
    atom = parse_formula("(R a b)")
    assert eval_qf(s, atom, {"a": 0, "b": 1})
    assert not eval_qf(s, atom, {"a": 1, "b": 0})
    assert eval_qf(s, parse_formula("(not (R a b))"), {"a": 1, "b": 0})
    asym = parse_formula("(and (R a b) (not (R b a)))")
    assert eval_qf(s, asym, {"a": 0, "b": 1})
    disj = parse_formula("(or (R a b) (R b a))")
    assert eval_qf(s, disj, {"a": 1, "b": 0})
    with pytest.raises(DomainError):
        eval_qf(s, atom, {"a": 0})


def test_pair_sorts_and_eval_pair():
    phi = parse_formula("(and (R x0 y0) (not (R y0 x0)))")
    assert pair_sorts(phi) == (("x0",), ("y0",))
    s = edge_structure()
    assert eval_pair(s, phi, (0,), (1,))
    assert not eval_pair(s, phi, (1,), (0,))
    with pytest.raises(ArityError):
        eval_pair(s, phi, (0, 1), (1, 0))
    with pytest.raises(FormulaError):
        pair_sorts(parse_formula("(R a b)"))


def test_linear_order_structure():
    lo = linear_order_structure(4)
    assert lo.holds("R", (0, 3)) and not lo.holds("R", (3, 0))
    assert not lo.holds("R", (2, 2))


def test_structure_json_round_trip():
    s = edge_structure()
    assert schema.load("finite structure", s.to_json_dict()).to_json_dict() \
        == s.to_json_dict()


def assert_rows_match_eval_pair(s, phi):
    """pair_rows over all k-tuples agrees with eval_pair pair by pair, and
    no row has a bit outside the tuple range."""
    xs, _ = pair_sorts(phi)
    tuples = list(itertools.product(s.universe, repeat=len(xs)))
    rows = pair_rows(s, phi, tuples)
    assert len(rows) == len(tuples)
    for row, a in zip(rows, tuples):
        assert 0 <= row < 1 << len(tuples)
        for j, b in enumerate(tuples):
            assert bool(row >> j & 1) == eval_pair(s, phi, a, b)


def tournament(rng, n):
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n)]
    return FiniteStructure(range(n), {"R": (2, edges)})


def test_pair_rows_matches_eval_pair_on_fixed_structures():
    rng = random.Random(3)
    structures = [edge_structure(), linear_order_structure(4),
                  linear_order_structure(3),
                  FiniteStructure([0, 1, 2], {"R": (2, [])}),
                  FiniteStructure(range(2), {"R": (2, [(0, 1)])}),
                  FiniteStructure([], {"R": (2, [])})]
    structures += [tournament(rng, 6) for _ in range(5)]
    formulas = ["(R x0 y0)", "(R y0 x0)", "(and (R x0 y0) (not (R y0 x0)))",
                "(or (R x0 y0) (R y0 x0))", "(not (R x0 y0))",
                "(R x0 x0)", "(R y0 y0)", "(and (R x0 x0) (not (R x0 y0)))",
                "(and (R x0 y0) (R x1 y1))", "(or (R x0 y1) (not (R y0 x1)))",
                "(and (R x1 x0) (R y0 y1))"]
    for s in structures:
        for text in formulas:
            assert_rows_match_eval_pair(s, parse_formula(text))


def swap_pair_vars(phi):
    """The pair formula with every x{k} and y{k} exchanged, so that it holds
    of (a, b) exactly when ``phi`` holds of (b, a); the oracle for reading
    the backward relation as the transpose of the forward rows."""
    if isinstance(phi, Atom):
        swap = {"x": "y", "y": "x"}
        return Atom(phi.name, tuple(swap[v[0]] + v[1:] for v in phi.vars))
    if isinstance(phi, Not):
        return Not(swap_pair_vars(phi.arg))
    return type(phi)(tuple(swap_pair_vars(a) for a in phi.args))


def test_swap_pair_vars():
    phi = parse_formula("(and (R x0 y1) (not (R y0 x1)))")
    assert format_formula(swap_pair_vars(phi)) == \
        "(and (R y0 x1) (not (R x0 y1)))"
    assert swap_pair_vars(swap_pair_vars(phi)) == phi


def test_pair_rows_errors_before_any_tuple():
    s = edge_structure()
    for tuples in ([], [(0,)], [(0,), (1,)]):
        with pytest.raises(FormulaError):
            pair_rows(s, parse_formula("(S x0 y0)"), tuples)
        with pytest.raises(ArityError):
            pair_rows(s, parse_formula("(or (R x0 y0) (R x0))"), tuples)
    with pytest.raises(ArityError):
        pair_rows(s, parse_formula("(R x0 y0)"), [(0, 1)])


@st.composite
def structure_and_formula(draw):
    """A structure with universe of at most 4 elements and relations of
    arity 1 to 3, and a pair formula over it of depth at most 3 whose atoms
    mix x- and y-variables, repeat them or use one side only."""
    n = draw(st.integers(0, 4))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rels = {}
    for r, arity in enumerate(arities):
        every = list(itertools.product(range(n), repeat=arity))
        rels[f"R{r}"] = (arity, draw(st.lists(st.sampled_from(every), max_size=20))
                         if every else [])
    k = draw(st.integers(1, 2))
    pool = [f"{side}{i}" for side in "xy" for i in range(k)]
    atoms = st.sampled_from(sorted(rels)).flatmap(
        lambda name: st.lists(st.sampled_from(pool), min_size=rels[name][0],
                              max_size=rels[name][0]).map(
            lambda vs: Atom(name, tuple(vs))))

    def formulas(depth):
        if depth == 0:
            return atoms
        sub = formulas(depth - 1)
        return st.one_of(
            atoms, sub.map(Not),
            st.lists(sub, min_size=1, max_size=3).map(lambda a: And(tuple(a))),
            st.lists(sub, min_size=1, max_size=3).map(lambda a: Or(tuple(a))))

    return FiniteStructure(range(n), rels), draw(formulas(3))


@settings(deadline=None, max_examples=200)
@given(structure_and_formula())
def test_pair_rows_matches_eval_pair_property(case):
    s, phi = case
    try:
        pair_sorts(phi)
    except FormulaError:
        # the variables skip a coordinate (x1 without x0): no sort
        with pytest.raises(FormulaError):
            pair_rows(s, phi, [])
        return
    assert_rows_match_eval_pair(s, phi)
    assert_rows_match_eval_pair(s, swap_pair_vars(phi))


@settings(deadline=None, max_examples=200)
@given(structure_and_formula(), st.data())
def test_pair_rows_matches_eval_pair_on_drawn_tuple_lists(case, data):
    # an explicit chain factor compiles a designated tuple list, which may
    # leave tuples out, repeat them, or name ids outside the universe
    s, phi = case
    try:
        xs, _ = pair_sorts(phi)
    except FormulaError:
        return
    tuple_of_ids = st.tuples(*[st.integers(-1, len(s) + 1)] * len(xs))
    pool = data.draw(st.lists(st.one_of(tuple_of_ids, tuple_of_ids.map(list)),
                              min_size=1, max_size=6))
    tuples = data.draw(st.lists(st.sampled_from(pool), max_size=10))
    assert pair_rows(s, phi, tuples) == [
        sum(eval_pair(s, phi, a, b) << j for j, b in enumerate(tuples)) for a in tuples]


@settings(deadline=None, max_examples=300)
@given(structure_and_formula(), st.randoms(use_true_random=False))
def test_transposed_rows_match_the_swapped_formula(case, rng):
    # the chain search reads the backward relation as the transpose of the
    # forward rows instead of compiling the swapped formula
    s, phi = case
    try:
        xs, _ = pair_sorts(phi)
    except FormulaError:
        return
    every = list(itertools.product(s.universe, repeat=len(xs)))
    for tuples in (every, rng.sample(every, rng.randint(0, len(every)))):
        assert transpose(pair_rows(s, phi, tuples)) == \
            pair_rows(s, swap_pair_vars(phi), tuples)
