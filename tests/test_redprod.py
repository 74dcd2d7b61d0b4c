import itertools
import random
from functools import reduce

import pytest

from orderlab import redprod, schema
from orderlab.checks import check_product_congruence
from orderlab.errors import (ArityError, BudgetError, DomainError, FilterError,
                             FormulaError)
from orderlab.fol import FiniteStructure, eval_pair, parse_formula
from orderlab.redprod import (FilterFamily, ReducedProduct, atomic_los_check,
                              longest_op_chain, reduced_product)

from oracles import MaterialisedProduct, linear_order_structure


def rel_factor(edges, size=2):
    return FiniteStructure(range(size), {"R": (2, edges)})


F_EDGE = rel_factor([(0, 1)])
F_NONE = rel_factor([])


def ref_filter_family(ground, members):
    """The filter checks with meet closure tested pair by pair and upward
    closure superset by superset: the error message, or the members and the
    core."""
    full = frozenset(range(ground))
    mems = frozenset(frozenset(m) for m in members)
    if full not in mems:
        return "the ground set must belong to the filter"
    if frozenset() in mems:
        return "a proper filter excludes the empty set"
    for m in mems:
        if not m <= full:
            return "member outside the ground set"
    closed = all(a & b in mems for a in mems for b in mems)
    upward = all(a | frozenset(up) in mems for a in mems for r in range(len(full - a) + 1)
                 for up in itertools.combinations(full - a, r))
    core = reduce(frozenset.__and__, mems)
    if closed and upward:
        return mems, core
    # a refusal names a property the family lacks: closure when the meet of
    # all members is missing, else upward closure
    if core not in mems:
        assert not closed
        return "family not closed under intersection"
    assert not upward
    return "family not upward closed"


def test_filter_family_matches_superset_oracle():
    # every family of subsets of every ground set of size at most 4
    families = 0
    for ground in range(5):
        subsets = [frozenset(c) for r in range(ground + 1)
                   for c in itertools.combinations(range(ground), r)]
        for pick in range(1 << len(subsets)):
            members = [m for i, m in enumerate(subsets) if pick >> i & 1]
            want = ref_filter_family(ground, members)
            try:
                filt = FilterFamily(ground, members)
                got = filt.members, filt.core
            except FilterError as e:
                got = str(e)
            assert got == want, (ground, members)
            families += 1
    assert families == 65814


def test_filter_validation():
    with pytest.raises(FilterError):
        FilterFamily(2, [frozenset()])  # empty set present
    with pytest.raises(FilterError):
        FilterFamily(2, [frozenset({0})])  # missing the ground set
    with pytest.raises(FilterError):
        FilterFamily(3, [frozenset({0, 1, 2}), frozenset({0, 1}),
                         frozenset({1, 2})])  # not meet-closed
    with pytest.raises(FilterError, match="not upward closed"):
        FilterFamily(3, [{0, 1, 2}, {0}])
    filt = FilterFamily.principal(3, {1})
    assert frozenset({1}) in filt and frozenset({0, 2}) not in filt
    assert len(filt.core) == 1 and filt.core == frozenset({1})
    assert len(FilterFamily.principal(3, {0, 1}).core) == 2
    with pytest.raises(FilterError):
        FilterFamily.principal(3, set())
    for ground in (2.5, True, "2"):
        with pytest.raises(FilterError, match="is not an integer"):
            FilterFamily(ground, [{0, 1}])
        with pytest.raises(FilterError, match="is not an integer"):
            FilterFamily.principal(ground, {0})


def test_filter_ids_and_sizes_are_checked_before_the_family_is_built():
    for ids in ([0, 1.0], [True, 1], [0, "1"], [0, [1]]):
        with pytest.raises(FilterError, match="is not an integer"):
            FilterFamily(2, [[0, 1], ids])
        with pytest.raises(FilterError, match="is not an integer"):
            FilterFamily.principal(2, ids)
    # 2^13 members, each validated once: the pairwise meet check took minutes
    assert len(FilterFamily.principal(14, {0}).members) == 1 << 13
    assert len(FilterFamily.principal(17, {0}).members) == ReducedProduct.MAX_VECTORS
    with pytest.raises(BudgetError, match="2\\^17 members"):
        FilterFamily.principal(18, {0})
    with pytest.raises(BudgetError):
        FilterFamily.principal(10 ** 12, {0})
    with pytest.raises(FilterError, match="the ground set must belong"):
        FilterFamily.principal(3, {0, 5})
    with pytest.raises(FilterError, match="the ground set must belong"):
        FilterFamily(10 ** 12, [[0]])


def test_filter_json_forms():
    filt = FilterFamily.principal(3, {0, 2})
    assert schema.load("filter", {"ground": 3, "core": [0, 2]}).members \
        == filt.members
    assert schema.load("filter", filt.to_json_dict()).members == filt.members


def test_holds_names_a_vector_outside_the_product():
    rp = reduced_product([F_EDGE] * 3, FilterFamily(3, [range(3)]))
    for vector in ((0, 7, 0), (0, 0), ("a", 0, 0), (0.0, 0, 0), (0, True, 0)):
        with pytest.raises(DomainError, match=r"vector \[.*\] is not in the product"):
            rp.holds("R", [(0, 0, 0), vector])
        with pytest.raises(DomainError, match=r"vector \[.*\] is not in the product"):
            rp.same_class(vector, (0, 0, 0))


def outcome(call):
    try:
        return call()
    except DomainError as e:
        return DomainError, str(e)


def factors_of_sizes(rng, sizes):
    return [FiniteStructure(range(m), {"R": (2, [t for t in itertools.product(range(m), repeat=2)
                                                  if rng.random() < 0.4])})
            for m in sizes]


def bad_vectors(rng, sizes):
    """Vectors outside the product: an id past its factor, a wrong length,
    and ids that are bools, floats, strings or lists."""
    k = len(sizes)
    v = [rng.randrange(m) if m else 0 for m in sizes]
    out = [tuple(v[:-1]), tuple(v + [0])]
    for bad in (max(sizes) + 1, -1, True, False, 0.0, 1.0, "0", [0]):
        w = list(v)
        w[rng.randrange(k)] = bad
        out.append(tuple(w))
    return out


def test_classes_match_the_materialising_oracle():
    """Every core of every product of up to three factors of sizes 0..3, and
    seeded four-factor products: the classes and the vectors in product
    order, same_class, holds and the refusals of vectors outside the
    product, against the product that built every class at construction."""
    rng = random.Random(24)
    cases = []
    for k in (1, 2, 3):
        for sizes in itertools.product(range(4), repeat=k):
            cases += [(sizes, core) for r in range(1, k + 1)
                      for core in itertools.combinations(range(k), r)]
    for _ in range(200):
        sizes = tuple(rng.randint(0, 3) for _ in range(4))
        cases.append((sizes, tuple(rng.sample(range(4), rng.randint(1, 4)))))
    for sizes, core in cases:
        factors = factors_of_sizes(rng, sizes)
        filt = FilterFamily.principal(len(sizes), core)
        rp = reduced_product(factors, filt)
        ref = MaterialisedProduct(factors, filt)
        assert rp.class_reps == ref.class_reps, (sizes, core)
        assert rp.vectors == ref.vectors, (sizes, core)
        assert rp.counts() == (len(ref.class_reps), len(ref.vectors))
        vectors = ref.vectors
        pairs = (list(itertools.product(vectors, repeat=2)) if len(vectors) <= 9 else
                 [(rng.choice(vectors), rng.choice(vectors)) for _ in range(40)])
        for v, w in pairs:
            assert rp.same_class(v, w) == ref.same_class(v, w)
            assert rp.holds("R", [v, w]) == ref.holds("R", [v, w])
        for bad in bad_vectors(rng, sizes):
            other = rng.choice(vectors) if vectors else bad
            for args in ([bad, other], [other, bad]):
                want = outcome(lambda: ref.holds("R", args))
                assert want[0] is DomainError
                assert outcome(lambda: rp.holds("R", args)) == want
    assert len(cases) == 700


def test_classes_and_vectors_are_built_once_and_only_when_read(monkeypatch):
    rp = reduced_product([F_EDGE] * 3, FilterFamily.principal(3, {1}))
    calls = []
    real = itertools.product
    monkeypatch.setattr(itertools, "product", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert rp.holds("R", [(1, 0, 1), (0, 1, 0)])
    assert not calls
    assert rp.class_reps == ((0, 0, 0), (0, 1, 0)) and rp.class_reps is rp.class_reps
    assert len(rp.vectors) == 8 and rp.vectors is rp.vectors
    assert len(calls) == 2


def test_trivial_filter_full_product_semantics():
    rp = reduced_product([F_EDGE] * 3, FilterFamily(3, [range(3)]))
    assert rp.holds("R", [(0, 0, 0), (1, 1, 1)])
    rp2 = reduced_product([F_EDGE, F_EDGE, F_NONE], FilterFamily(3, [range(3)]))
    assert not rp2.holds("R", [(0, 0, 0), (1, 1, 1)])


def test_principal_ultrafilter_collapse_isomorphism():
    rng = random.Random(0)
    for _ in range(60):
        k = rng.randint(2, 4)
        point = rng.randrange(k)
        size = rng.randint(1, 3)
        factors = [FiniteStructure(
            range(size),
            {"R": (2, [t for t in itertools.product(range(size), repeat=2)
                       if rng.random() < 0.4])})
            for _ in range(k)]
        rp = reduced_product(factors, FilterFamily.principal_ultrafilter(k, point))
        target = factors[point]
        # classes correspond exactly to the elements of the chosen factor
        assert len(rp.class_reps) == len(target)
        for u, v in itertools.product(target.universe, repeat=2):
            vec_u = tuple(rng.choice(f.universe) if n != point else u
                          for n, f in enumerate(factors))
            vec_v = tuple(rng.choice(f.universe) if n != point else v
                          for n, f in enumerate(factors))
            assert rp.holds("R", [vec_u, vec_v]) == target.holds("R", (u, v))


def test_generated_filter_semantics():
    rp = reduced_product([F_EDGE, F_EDGE, F_NONE], FilterFamily.principal(3, {0, 1}))
    assert rp.holds("R", [(0, 0, 0), (1, 1, 1)])
    rp2 = reduced_product([F_EDGE, F_NONE, F_EDGE], FilterFamily.principal(3, {0, 1}))
    assert not rp2.holds("R", [(0, 0, 0), (1, 1, 1)])


def test_equivalence_is_congruence():
    rng = random.Random(1)
    for _ in range(100):
        k = rng.randint(2, 4)
        size = rng.randint(1, 3)
        factors = [FiniteStructure(
            range(size),
            {"R": (2, [t for t in itertools.product(range(size), repeat=2)
                       if rng.random() < 0.4])})
            for _ in range(k)]
        filt = FilterFamily.principal(k, rng.sample(range(k),
                                                    rng.randint(1, k)))
        rp = reduced_product(factors, filt)
        core = filt.core
        for v in rp.vectors:
            # modifying coordinates off the core keeps the class
            w = tuple(rng.randrange(size) if n not in core else v[n]
                      for n in range(k))
            assert rp.same_class(v, w)
            u = rng.choice(rp.vectors)
            assert rp.holds("R", [v, u]) == rp.holds("R", [w, u])


def test_atomic_los_examples():
    rp = reduced_product([F_EDGE] * 3, FilterFamily(3, [range(3)]))
    ok, wit = atomic_los_check(rp, parse_formula("(R x y)"),
                               [(0, 0, 0), (1, 1, 1)])
    assert ok and wit == frozenset({0, 1, 2})
    # satisfaction exactly on a non-filter set: the product does not model it
    rp2 = reduced_product([F_EDGE, F_NONE, F_NONE], FilterFamily(3, [range(3)]))
    assert not rp2.holds("R", [(0, 0, 0), (1, 1, 1)])
    ok2, wit2 = atomic_los_check(rp2, parse_formula("(R x y)"),
                                 [(0, 0, 0), (1, 1, 1)])
    assert ok2 and wit2 == frozenset({0})
    with pytest.raises(FormulaError):
        atomic_los_check(rp, parse_formula("(and (R x y) (R y x))"),
                         [(0, 0, 0), (1, 1, 1)])


def test_atomic_los_binds_one_vector_per_distinct_variable():
    # (R x x) holds of x at the coordinates where R is reflexive on x's value
    rp = reduced_product([rel_factor([(0, 0)])] * 3, FilterFamily(3, [range(3)]))
    phi = parse_formula("(R x x)")
    assert atomic_los_check(rp, phi, [(0, 0, 0)]) == (True, frozenset({0, 1, 2}))
    assert atomic_los_check(rp, phi, [(0, 1, 0)]) == (True, frozenset({0, 2}))
    # a second vector would bind positions, not variables: R((0,0,0), (1,1,1))
    with pytest.raises(ArityError):
        atomic_los_check(rp, phi, [(0, 0, 0), (1, 1, 1)])
    # the order of first appearance binds y before x
    rp = reduced_product([F_EDGE] * 3, FilterFamily(3, [range(3)]))
    assert atomic_los_check(rp, parse_formula("(R y x)"), [(0, 0, 0), (1, 1, 1)]) == (
        True, frozenset({0, 1, 2}))


def test_atomic_los_random_equivalence():
    rng = random.Random(2)
    for _ in range(300):
        k = rng.randint(2, 4)
        size = 2
        factors = [rel_factor([t for t in itertools.product(range(size), repeat=2)
                               if rng.random() < 0.4]) for _ in range(k)]
        filt = FilterFamily.principal(k, rng.sample(range(k), rng.randint(1, k)))
        rp = reduced_product(factors, filt)
        u = rng.choice(rp.vectors)
        v = rng.choice(rp.vectors)
        ok, _ = atomic_los_check(rp, parse_formula("(R x y)"), [u, v])
        assert ok


def test_negated_atomic_boundary():
    """Complements decide membership only in ultrafilters: with core {0, 1}
    and the relation holding exactly at coordinate 0, the product models the
    negation while the negation's satisfaction set stays outside the filter.
    """
    factors = [F_EDGE, F_NONE, F_NONE]
    non_ultra = FilterFamily.principal(3, {0, 1})
    rp = reduced_product(factors, non_ultra)
    neg = parse_formula("(not (R x y))")
    ok, wit = atomic_los_check(rp, neg, [(0, 0, 0), (1, 1, 1)])
    assert not ok and wit == frozenset({1, 2})
    # over any ultrafilter the same literal double-checks cleanly
    for point in range(3):
        rpu = reduced_product(factors, FilterFamily.principal_ultrafilter(3, point))
        oku, _ = atomic_los_check(rpu, neg, [(0, 0, 0), (1, 1, 1)])
        assert oku


def threshold_rel_product(factors, phi, left, right, m):
    """True iff at every coordinate j >= m the pair formula holds of
    (left_j, right_j) and fails of (right_j, left_j)."""
    factors = tuple(factors)
    n = len(factors)
    if len(left) != n or len(right) != n:
        raise ArityError("representatives must be defined on all coordinates")
    for j in range(max(m, 0), n):
        if not eval_pair(factors[j], phi, left[j], right[j]):
            return False
        if eval_pair(factors[j], phi, right[j], left[j]):
            return False
    return True


def test_threshold_rel_product():
    phi = parse_formula("(R x0 y0)")
    facs = [linear_order_structure(4) for _ in range(5)]
    a = [(0,)] * 5
    b = [(1,)] * 5
    assert threshold_rel_product(facs, phi, a, b, 0)
    assert threshold_rel_product(facs, phi, a, b, 5)  # vacuous
    b2 = [(1,), (1,), (0,), (1,), (1,)]
    assert not threshold_rel_product(facs, phi, a, b2, 2)
    assert threshold_rel_product(facs, phi, a, b2, 3)
    with pytest.raises(ArityError):
        threshold_rel_product(facs, phi, a[:3], b, 0)


def brute_chain_len(s, phi):
    xs = [(u,) for u in s.universe]
    best = 1 if xs else 0
    for r in range(2, len(xs) + 1):
        for seq in itertools.permutations(xs, r):
            if all(eval_pair(s, phi, seq[i], seq[j])
                   and not eval_pair(s, phi, seq[j], seq[i])
                   for i in range(r) for j in range(i + 1, r)):
                best = max(best, r)
    return best


def test_longest_op_chain_examples():
    phi = parse_formula("(R x0 y0)")
    assert len(longest_op_chain(linear_order_structure(6), phi)) == 6
    empty_rel = FiniteStructure([0, 1, 2], {"R": (2, [])})
    assert len(longest_op_chain(empty_rel, phi)) == 1
    # reflexive and transitive: the strict part of "not after" is "before"
    weak = parse_formula("(not (R y0 x0))")
    assert longest_op_chain(linear_order_structure(5), weak) == [(i,) for i in range(5)]
    assert len(longest_op_chain(empty_rel, weak)) == 1


def test_the_backward_rows_are_built_only_when_the_forward_sweep_fails(monkeypatch):
    calls = []
    real = redprod.transpose
    monkeypatch.setattr(redprod, "transpose", lambda rows: calls.append(1) or real(rows))
    lo = linear_order_structure(6)
    cycle = FiniteStructure(range(3), {"R": (2, [(0, 1), (1, 2), (2, 0)])})
    for s, formula, transposed in ((lo, "(R x0 y0)", 0), (lo, "(R y0 x0)", 0),
                                   (lo, "(not (R y0 x0))", 1),
                                   (lo, "(or (R x0 y0) (R y0 x0))", 1),
                                   (cycle, "(R x0 y0)", 1)):
        calls.clear()
        longest_op_chain(s, parse_formula(formula))
        assert len(calls) == transposed, formula


def test_longest_op_chain_is_a_chain():
    phi = parse_formula("(R x0 y0)")
    rng = random.Random(3)
    for _ in range(40):
        n = 6
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                edges.append((i, j) if rng.random() < 0.5 else (j, i))
        t = FiniteStructure(range(n), {"R": (2, edges)})
        chain = longest_op_chain(t, phi)
        assert len(chain) == brute_chain_len(t, phi)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert eval_pair(t, phi, chain[i], chain[j])
                assert not eval_pair(t, phi, chain[j], chain[i])


def test_longest_op_chain_arity_two_tuples():
    phi = parse_formula("(and (R x0 y0) (R x1 y1))")
    lo = linear_order_structure(3)
    chain = longest_op_chain(lo, phi)
    # both coordinates must strictly grow at every step, so pairs over a
    # 3-chain allow exactly three of them
    assert len(chain) == 3
    assert all(len(t) == 2 for t in chain)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert eval_pair(lo, phi, chain[i], chain[j])
            assert not eval_pair(lo, phi, chain[j], chain[i])


def test_long_transitive_chain_iterative():
    # chains past the interpreter recursion limit must still resolve
    lo = linear_order_structure(1200)
    assert len(longest_op_chain(lo, parse_formula("(R x0 y0)"))) == 1200


def test_budget_error():
    big = FiniteStructure(range(10001), {"R": (2, [])})
    with pytest.raises(BudgetError):
        longest_op_chain(big, parse_formula("(R x0 y0)"))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bad_formula_rejected_on_every_universe(n):
    # the relation and arity are checked before any pair is compared, so
    # universes too small to compare a pair reject the formula too
    s = FiniteStructure(range(n), {"R": (2, [])})
    with pytest.raises(FormulaError):
        longest_op_chain(s, parse_formula("(S x0 y0)"))
    with pytest.raises(ArityError):
        longest_op_chain(s, parse_formula("(R x0)"))
    with pytest.raises(ArityError):
        longest_op_chain(s, parse_formula("(and (R x0 y0) (not (R x0 y0 y0)))"))


def test_product_congruence_suite_at_contract_count():
    r = check_product_congruence(trials=200, seed=13)
    assert r["ok"] and r["cases"] == 200
