import argparse
import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import cli, forcing
from orderlab.checks import (_conditions, _draw, check_dense_entries,
                             check_reduction, random_condition,
                             random_extension, random_poset, random_root_family)
from orderlab.errors import (AgreementError, AmalgamationError,
                             ChainTooShortError, DepthError, DomainError,
                             FormulaError, HypothesisError, InvariantError,
                             PreconditionError, ProfileError, RootError,
                             ScheduleError)
from orderlab.forcing import (Condition, EMPTY_CONDITION, ExplicitChainFactor,
                              amalgamate, default_schedule, entry_op,
                              extend_into_D, extend_into_E, extends,
                              generic_build, pipeline_embed, projection,
                              quotient_member, shuffled_schedule, split_project,
                              SplitInstance, verify_generic_embedding)
from orderlab.fol import (And, Atom, FiniteStructure, Not, Or, eval_pair,
                          pair_sorts, parse_formula)
from orderlab.posets import (enumerate_poset_isotypes, linear_extension,
                             make_poset)
from orderlab.redprod import longest_op_chain
from orderlab.seqspace import (eta, leq_from, phi, position_profile,
                               position_seq)

from oracles import linear_order_structure


E3 = make_poset({0, 1, 2}, {(0, 1)})


def is_condition(ground, p):
    """All invariants: domain inside the ground order, values within the
    coordinate bounds, sequences of the declared depth."""
    if not all(a in ground for a in p.domain):
        return False
    bounds = position_profile(p.depth)
    for a in p.domain:
        seq = p.seq(a)
        if len(seq) != p.depth:
            return False
        if any(not 0 <= v < b for v, b in zip(seq, bounds)):
            return False
    return True


def test_is_condition_examples():
    assert is_condition(E3, EMPTY_CONDITION)
    assert is_condition(E3, Condition({0}, 3, {0: (0, 0, 1)}))
    assert not is_condition(E3, Condition({0}, 3, {0: (0, 1, 0)}))
    assert not is_condition(E3, Condition({9}, 1, {9: (0,)}))


def test_extends_examples():
    p = Condition({0}, 3, {0: (0, 0, 1)})
    assert extends(E3, p, p)
    assert extends(E3, p, EMPTY_CONDITION)
    q = Condition({0, 1}, 2, {0: (0, 0), 1: (0, 0)})
    deeper_bad = Condition({0, 1}, 3, {0: (0, 0, 1), 1: (0, 0, 0)})
    assert not extends(E3, deeper_bad, q)  # 0 <= 1 but values drop at coord 2
    deeper_ok = Condition({0, 1}, 3, {0: (0, 0, 1), 1: (0, 0, 1)})
    assert extends(E3, deeper_ok, q)


def test_extends_is_a_partial_order_on_conditions():
    from orderlab.checks import random_poset
    rng = random.Random(0)
    for _ in range(300):
        ground = random_poset(rng, rng.randint(1, 5))
        p = random_condition(rng, ground, 4)
        assert extends(ground, p, p)
        q = random_extension(rng, ground, p)
        r = random_extension(rng, ground, q)
        assert extends(ground, q, p) and extends(ground, r, q)
        assert extends(ground, r, p)  # transitivity
        if extends(ground, p, q):
            assert p == q  # antisymmetry up to equality of triples


def test_amalgamate_single_and_disjoint():
    p = Condition({0}, 2, {0: (0, 0)})
    assert amalgamate(E3, [p], frozenset()) == p
    q = Condition({1}, 2, {1: (0, 0)})
    both = amalgamate(E3, [p, q], frozenset())
    assert both.domain == {0, 1} and both.depth == 2
    assert extends(E3, both, p) and extends(E3, both, q)


def test_amalgamate_padding_from_root():
    ground = make_poset({0, 1}, {(0, 1)})  # root element below the private one
    shallow = Condition({0, 1}, 3, {0: (0, 0, 1), 1: (0, 0, 1)})
    deep = Condition({0}, 5, {0: (0, 0, 1, 2, 3)})
    q = amalgamate(ground, [shallow, deep], {0})
    assert q.seq(1)[3:] == (2, 3)  # padded with the root's values
    assert extends(ground, q, shallow) and extends(ground, q, deep)


def test_amalgamate_precondition_errors():
    p = Condition({0, 1}, 1, {0: (0,), 1: (0,)})
    q = Condition({1, 2}, 1, {1: (0,), 2: (0,)})
    with pytest.raises(RootError):
        amalgamate(E3, [p, q], frozenset())  # intersections differ from root
    r = Condition({1}, 2, {1: (0, 0)})
    s = Condition({1}, 2, {1: (0, 1)})
    with pytest.raises(AgreementError):
        amalgamate(make_poset({1}, set()), [r, s], {1})


def test_amalgamate_detects_incompatible_parts():
    # a deep part non-monotone on a related root pair beyond the shallow
    # depth admits no common extension at all
    ground = make_poset({0, 1}, {(0, 1)})
    shallow = Condition({0, 1}, 3, {0: (0, 0, 1), 1: (0, 0, 1)})
    deep = Condition({0, 1}, 5, {0: (0, 0, 1, 2, 3), 1: (0, 0, 1, 0, 0)})
    with pytest.raises(AmalgamationError):
        amalgamate(ground, [shallow, deep], {0, 1})


def test_amalgamate_random_valid_families():
    rng = random.Random(1)
    for _ in range(300):
        ground, parts, root = random_root_family(rng)
        q = amalgamate(ground, parts, root)
        for p in parts:
            assert extends(ground, q, p)


def test_extend_into_D_examples():
    q = extend_into_D(E3, EMPTY_CONDITION, 4, 2)
    assert q == Condition({2}, 4, {2: (0, 0, 0, 0)})
    assert extend_into_D(E3, q, 4, 2) is q  # idempotent entry
    p = Condition({0}, 3, {0: (0, 0, 1)})
    q2 = extend_into_D(E3, p, 3, 1)  # 0 <= 1 in the ground order
    assert all(q2.seq(1)[j] >= q2.seq(0)[j] for j in range(3))
    assert extends(E3, q2, p)
    with pytest.raises(ScheduleError):
        extend_into_D(E3, p, 1, 99)


def test_extend_into_E_examples():
    anti = make_poset({0, 1}, set())
    q = extend_into_E(anti, EMPTY_CONDITION, 0, 0, 1)
    k = q.depth - 1
    assert q.seq(0)[k] < q.seq(1)[k]
    assert extends(anti, q, EMPTY_CONDITION)
    # comparable pair: ranks respect the order, witness still strict
    q2 = extend_into_E(E3, EMPTY_CONDITION, 0, 0, 1)
    assert any(q2.seq(0)[k] < q2.seq(1)[k] for k in range(q2.depth))
    with pytest.raises(PreconditionError):
        extend_into_E(E3, EMPTY_CONDITION, 0, 1, 0)  # 0 <= 1
    with pytest.raises(PreconditionError):
        extend_into_E(E3, EMPTY_CONDITION, 0, 1, 1)


def test_extend_into_E_growing_thresholds():
    p = EMPTY_CONDITION
    ground = make_poset({0, 1}, set())
    seen = []
    for n in (0, 3, 7, 11):
        p = extend_into_E(ground, p, n, 0, 1)
        ws = [k for k in range(p.depth) if p.seq(0)[k] < p.seq(1)[k]]
        assert any(w >= n for w in ws)
        seen.append(max(ws))
    assert seen == sorted(seen)


def test_projection_examples():
    p = Condition({0, 1, 2}, 2, {0: (0, 0), 1: (0, 1), 2: (0, 1)})
    assert projection({0, 1, 2}, p) == p
    assert projection(set(), p) == Condition(set(), 2, {})
    pi = projection({0, 2}, p)
    assert pi.domain == {0, 2} and pi.depth == 2
    assert extends(E3, p, pi)


def test_quotient_member():
    upsilon = {0: (0, 0, 1, 2), 1: (0, 0, 1, 1)}
    p = Condition({0}, 3, {0: (0, 0, 1)})
    assert quotient_member({0, 1}, upsilon, p)
    assert quotient_member({1}, upsilon, p)  # vacuous: domain misses the carrier
    bad = Condition({0}, 3, {0: (0, 0, 0)})
    assert not quotient_member({0, 1}, upsilon, bad)
    deep = Condition({0}, 5, {0: (0, 0, 1, 2, 3)})
    with pytest.raises(DepthError):
        quotient_member({0, 1}, upsilon, deep)


def test_generic_build_singleton_and_antichain():
    single = generic_build(make_poset({0}, set()), 4)
    assert set(single.values[0].vals) == {0}
    assert verify_generic_embedding(single)["ok"]
    anti = generic_build(make_poset({0, 1}, set()), 4)
    assert verify_generic_embedding(anti)["ok"]
    w01 = anti.strict_witnesses[(0, 1)]
    w10 = anti.strict_witnesses[(1, 0)]
    assert w01 and w10 and set(w01).isdisjoint(w10)


def test_generic_build_certificate_statement():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.3]
        try:
            ground = make_poset(range(n), edges)
        except Exception:
            continue
        ge = generic_build(ground, 6)
        for a in ground.elements:
            for b in ground.elements:
                if a == b:
                    continue
                m = ge.threshold(a, b)
                dominated = leq_from(ge.values[a], ge.values[b], m)
                assert dominated == ground.leq(a, b)


def test_generic_build_custom_schedule_and_errors():
    ground = make_poset({0, 1}, set())
    with pytest.raises(ScheduleError):
        generic_build(ground, 2, [("D", 0, 5)])
    with pytest.raises(ScheduleError):
        generic_build(ground, 2, [("D", 0, 0)])  # never introduces element 1
    sched = default_schedule(ground, 2)
    assert sched[0] == ("D", 0, 0)
    ge = generic_build(ground, 2, sched)
    assert verify_generic_embedding(ge)["ok"]


def test_generic_build_late_entry_thresholds():
    # entering an element only at depth 3 gives the pair a positive threshold
    ground = make_poset({0, 1}, {(0, 1)})
    sched = [("D", 3, 0)] + [("D", n, a) for n in range(4) for a in (0, 1)] \
        + [("E", n, a, b) for n in range(4) for a in (0, 1) for b in (0, 1)
           if a != b and not ground.leq(b, a)]
    ge = generic_build(ground, 3, sched)
    assert ge.threshold(0, 1) == 3
    assert verify_generic_embedding(ge)["ok"]


def test_split_instance_validation():
    ground = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    inst = SplitInstance(ground, frozenset({0, 1}), frozenset({1, 2}))
    assert inst.overlap == {1}
    with pytest.raises(HypothesisError):
        # 0 <= 2 crosses the sides with an empty overlap on the path
        SplitInstance(ground, frozenset({0}), frozenset({1, 2}))
    with pytest.raises(HypothesisError):
        SplitInstance(ground, frozenset({0, 1}), frozenset({2}))


def test_split_project_examples():
    ground = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    inst = SplitInstance(ground, frozenset({0, 1}), frozenset({1, 2}))
    p = Condition({1}, 2, {1: (0, 1)})
    left, right = split_project(inst, p)
    assert left == p and right == p  # domain inside the overlap
    q = Condition({0}, 1, {0: (0,)})
    left2, right2 = split_project(inst, q)
    assert left2 == q and right2.domain == frozenset()
    ext = Condition({0, 1, 2}, 2, {0: (0, 0), 1: (0, 0), 2: (0, 1)})
    if extends(ground, ext, p):
        la, ra = split_project(inst, ext)
        assert extends(ground, la, left) and extends(ground, ra, right)


def test_pipeline_two_chain_and_antichain():
    rep = pipeline_embed(make_poset({0, 1}, {(0, 1)}), 5)
    assert rep["ok"]
    fwd = [p for p in rep["pairs"] if p["kind"] == "forward"]
    assert fwd and all(p["threshold"] <= rep["width"] for p in fwd)
    rep2 = pipeline_embed(make_poset({0, 1, 2}, set()), 3)
    assert rep2["ok"]
    viols = [p for p in rep2["pairs"] if p["kind"] == "violation"]
    assert len(viols) == 6  # both directions for every unordered pair


def test_pipeline_singleton_vacuous():
    rep = pipeline_embed(make_poset({0}, set()), 1)
    assert rep["ok"] and rep["pairs"] == []


def test_pipeline_positions_stay_under_chain_lengths():
    rep = pipeline_embed(make_poset({0, 1}, {(0, 1)}), 3)
    for vals in rep["positions"].values():
        for j, v in enumerate(vals):
            assert 0 <= v < eta(j)


def test_explicit_chain_factors():
    lo = linear_order_structure(24)
    phi = parse_formula("(R x0 y0)")

    def linear(n):
        return ExplicitChainFactor(lo, phi, [(i,) for i in range(n)])

    assert linear(6).length == 6
    with pytest.raises(ChainTooShortError):
        ExplicitChainFactor(lo, phi, [(0,), (0,)])
    with pytest.raises(ChainTooShortError):
        ExplicitChainFactor(lo, phi, [(4,), (1,)])
    # a singleton at budget b has width b + 1
    single = make_poset({0}, set())
    with pytest.raises(ChainTooShortError, match="no factor supplied for coordinate 1"):
        pipeline_embed(single, 1, [linear(6)])
    with pytest.raises(ChainTooShortError, match="factor 3 has length 1 < 6"):
        pipeline_embed(single, 4, [linear(n) for n in (1, 1, 2, 1, 24)])
    assert pipeline_embed(single, 2, [linear(6)] * 3) == pipeline_embed(single, 2)


def test_split_density_suites():
    from orderlab.checks import check_split_density, check_split_density_exhaustive
    r = check_split_density(trials=20)
    assert r["ok"], r
    r2 = check_split_density_exhaustive()
    assert r2["ok"] and r2["cases"] == 4550, r2


def test_exhaustive_suite_case_counts():
    entry = check_dense_entries(3, 4, trials=0)
    assert entry["ok"] and entry["cases"] == 75420, entry
    reduction = check_reduction(3, 3, trials=0)
    assert reduction["ok"] and reduction["cases"] == 12077, reduction


def test_condition_report_form():
    # the form failure reports print a condition in
    p = Condition({2, 0}, 3, {0: (0, 0, 1), 2: (0, 0, 0)})
    assert p.to_json_dict() == {"D": [0, 2], "n": 3,
                                "f": {"0": [0, 0, 1], "2": [0, 0, 0]}}


def test_condition_refuses_a_value_off_its_depth():
    # a value longer than its depth let amalgamate return a condition that
    # extends said does not extend its part
    antichain = make_poset({0, 1, 2}, set())
    with pytest.raises(ProfileError):
        Condition({0, 1}, 1, {0: (0,), 1: (0, 0)})
    p = Condition({0, 1}, 1, {0: (0,), 1: (0,)})
    q = Condition({0, 2}, 3, {0: (0, 0, 1), 2: (0, 0, 0)})
    w = amalgamate(antichain, [p, q], {0})
    assert extends(antichain, w, p) and extends(antichain, w, q)


def test_extends_reads_elements_outside_the_ground_as_unrelated():
    q = Condition({0, 9}, 1, {0: (0,), 9: (0,)})
    up = Condition({0, 9}, 2, {0: (0, 1), 9: (0, 0)})
    assert extends(E3, up, q)
    down = Condition({0, 1, 9}, 2, {0: (0, 1), 1: (0, 0), 9: (0, 0)})
    assert not extends(E3, down, Condition({0, 1, 9}, 1, {0: (0,), 1: (0,), 9: (0,)}))


# --- reference oracles: the per-element implementations the index-native
# --- condition calculus replaced

def ref_extends(ground, p, q):
    if not (p.domain >= q.domain and p.depth >= q.depth):
        return False
    for a in q.domain:
        if p.seq(a)[:q.depth] != q.seq(a):
            return False
    for a in q.domain:
        for b in q.domain:
            if a != b and ground.leq(a, b):
                pa, pb = p.seq(a), p.seq(b)
                if any(pa[j] > pb[j] for j in range(q.depth, p.depth)):
                    return False
    return True


def ref_max_rule(ground, f, domain, a, j):
    best = 0
    for b in domain:
        if ground.leq(b, a) and f[b][j] > best:
            best = f[b][j]
    return best


def ref_extend_into_D(ground, p, n, a):
    if a in p.domain and p.depth >= n:
        return p
    depth = max(p.depth, n)
    f = {b: p.seq(b) + (0,) * (depth - p.depth) for b in p.domain}
    if a not in p.domain:
        vals = tuple(ref_max_rule(ground, {b: p.seq(b) for b in p.domain},
                                  p.domain, a, j) for j in range(p.depth))
        f[a] = vals + (0,) * (depth - p.depth)
    return Condition(p.domain | {a}, depth, f)


def ref_extend_into_E(ground, p, n, a, b):
    q = ref_extend_into_D(ground, ref_extend_into_D(ground, p, 0, a), 0, b)
    if any(q.seq(a)[k] < q.seq(b)[k] for k in range(n, q.depth)):
        return q
    dom = sorted(q.domain)
    k = max(n, q.depth, len(dom) + 2)
    ranks = {e: r for r, e in enumerate(linear_extension(ground, dom, before=(a, b)))}
    f = {}
    for e in dom:
        tail = tuple(ranks[e] if j >= len(dom) else 0
                     for j in range(q.depth, k + 1))
        f[e] = q.seq(e) + tail
    return Condition(q.domain, k + 1, f)


def _enumerate_conditions(ground, max_depth):
    """Every condition with depth at most max_depth, grouped by domain."""
    elems = list(ground.elements)
    per_depth = {}
    for d in range(max_depth + 1):
        per_depth[d] = [tuple(v) for v in itertools.product(
            *[range(max(k, 1)) for k in range(d)])]
    for r in range(len(elems) + 1):
        for dom in itertools.combinations(elems, r):
            for d in range(max_depth + 1):
                for combo in itertools.product(per_depth[d], repeat=r):
                    yield Condition(dom, d, dict(zip(dom, combo)))


def ref_extensions_at(ground, base, extra, depth):
    """All extensions of base with the given fresh elements and depth."""
    elems = sorted(base.domain) + list(extra)
    tail_space = [range(max(j, 1)) for j in range(base.depth, depth)]
    full_space = [range(max(j, 1)) for j in range(depth)]
    choices = []
    for a in elems:
        if a in base.domain:
            opts = [base.seq(a) + t for t in itertools.product(*tail_space)]
        else:
            opts = [tuple(v) for v in itertools.product(*full_space)]
        choices.append(opts)
    for combo in itertools.product(*choices):
        q = Condition(elems, depth, dict(zip(elems, combo)))
        if extends(ground, q, base):
            yield q


def ref_member_conditions(ground, upsilon, carrier, base=None, depth=None):
    """All conditions over the carrier at the given depth whose overlap part
    follows upsilon, extending base if given."""
    carrier = sorted(carrier)
    must = sorted(base.domain) if base is not None else []
    rest = [a for a in carrier if a not in must]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            dom = must + list(extra)
            pools = []
            for a in dom:
                if a in upsilon:
                    pools.append([tuple(upsilon[a][k] for k in range(depth))])
                elif base is not None and a in base.domain:
                    tails = itertools.product(
                        *[range(max(j, 1)) for j in range(base.depth, depth)])
                    pools.append([base.seq(a) + t for t in tails])
                else:
                    pools.append([tuple(v) for v in itertools.product(
                        *[range(max(j, 1)) for j in range(depth)])])
            for combo in itertools.product(*pools):
                q = Condition(dom, depth, dict(zip(dom, combo)))
                if base is None or extends(ground, q, base):
                    out.append(q)
    return out


def keys(conds):
    return [q.key() for q in conds]


def test_conditions_give_the_dense_grid():
    for n in range(1, 4):
        for ground in enumerate_poset_isotypes(n):
            want = keys(_enumerate_conditions(ground, 4))
            got = keys(p for d in range(5)
                       for p in _conditions(ground, ground.elements, d))
            assert len(got) == len(set(got)) == len(want)
            assert set(got) == set(want)


def test_conditions_give_the_reduction_sequence():
    total = 0
    for n in range(1, 4):
        for ground in enumerate_poset_isotypes(n):
            subsets = [frozenset(c) for r in range(n + 1)
                       for c in itertools.combinations(ground.elements, r)]
            for p in _enumerate_conditions(ground, 3):
                for sub in subsets:
                    pi = projection(sub, p)
                    for dq in range(pi.depth, 4):
                        pool = sorted(sub - pi.domain)
                        want = keys(
                            q for r in range(len(pool) + 1)
                            for extra in itertools.combinations(pool, r)
                            for q in ref_extensions_at(ground, pi, extra, dq))
                        assert keys(_conditions(ground, sub, dq, base=pi)) == want
                        total += len(want)
    assert total == 12077


def test_conditions_give_the_split_density_sequence():
    # the two frozen instances of check_split_density_exhaustive
    total = 0
    for n in (3, 4):
        ground = make_poset(range(n), {(i, i + 1) for i in range(n - 1)})
        inst = SplitInstance(ground, frozenset(range(n - 1)),
                             frozenset(range(1, n)))
        overlap = sorted(inst.overlap)
        ups = generic_build(ground.restrict(overlap), 4)
        upsilon = {a: ups.values[a] for a in overlap}
        cap = min(4, min(len(v) for v in upsilon.values()))
        ps = ref_member_conditions(ground, upsilon, ground.elements,
                                   depth=cap - 1)
        assert keys(_conditions(ground, ground.elements, cap - 1,
                                fixed=upsilon)) == keys(ps)
        for p in ps:
            for side in (inst.left, inst.right):
                base = projection(side, p)
                want = keys(ref_member_conditions(ground, upsilon, side,
                                                  base=base, depth=cap))
                got = keys(_conditions(ground, side, cap, base=base,
                                       fixed=upsilon))
                assert got == want
                total += len(want)
    assert total == 864


def small_grounds():
    """Every isotype with n <= 3, over the ids 0..n-1 that are its indices."""
    return [g for n in range(1, 4) for g in enumerate_poset_isotypes(n)]


def relabel(ground, new_id):
    """The poset with every element a renamed to new_id(a)."""
    return make_poset(map(new_id, ground.elements),
                      [(new_id(a), new_id(b)) for a, b in ground.pairs()])


def relabelled_grounds():
    # ids for indices 0, 1, 2 out of order, with gaps and a negative, so
    # that a mix-up of index and id changes the answer
    return [relabel(g, (4, -3, 9).__getitem__) for g in small_grounds()]


def assert_extends_matches_reference(grounds):
    # depth 3 is the first depth at which a coordinate takes two values, so
    # the monotonicity clause can fail
    verdicts = {True: 0, False: 0}
    for ground in grounds:
        conds = list(_enumerate_conditions(ground, 3))
        for p in conds:
            for q in conds:
                want = ref_extends(ground, p, q)
                assert extends(ground, p, q) == want, (ground, p, q)
                verdicts[want] += 1
    assert min(verdicts.values()) > 1000


def test_extends_matches_reference_on_small_grids():
    assert_extends_matches_reference(small_grounds())


def test_extends_matches_reference_on_relabelled_grids():
    assert_extends_matches_reference(relabelled_grounds())


def test_extends_itself_matches_reference():
    # the identity fast path, against the reference on the same object and
    # on an equal copy that the fast path does not see
    for ground in small_grounds():
        for p in _enumerate_conditions(ground, 3):
            copy = Condition(p.domain, p.depth, dict(p.items()))
            assert extends(ground, p, p) is ref_extends(ground, p, p) is True
            assert extends(ground, p, copy) is ref_extends(ground, p, copy) is True


def entry_requests(ground, levels):
    """Every ("D", m, a) and every defined ("E", m, a, b) for m in levels."""
    els = ground.elements
    return [req for m in levels for a in els
            for req in [("D", m, a)] + [("E", m, a, b) for b in els
                                        if a != b and not ground.leq(b, a)]]


def ref_entry(ground, p, req):
    if req[0] == "D":
        return ref_extend_into_D(ground, p, *req[1:])
    return ref_extend_into_E(ground, p, *req[1:])


def assert_entry_matches_reference(ground, p, req, q):
    want = ref_entry(ground, p, req)
    assert q == want, (ground, p, req)
    assert (q is p) == (want is p), (ground, p, req)


def assert_entry_operations_match_reference(grounds):
    # one op per request, applied to every condition of depth <= 3 in turn,
    # and the one-shot wrappers on the same cases
    for ground in grounds:
        ops = [(req, entry_op(ground, req)) for req in entry_requests(ground, range(5))]
        for p in _enumerate_conditions(ground, 3):
            for req, op in ops:
                assert_entry_matches_reference(ground, p, req, op(p))
                one_shot = extend_into_D if req[0] == "D" else extend_into_E
                assert_entry_matches_reference(ground, p, req,
                                               one_shot(ground, p, *req[1:]))


def test_entry_operations_match_reference_on_small_grids():
    assert_entry_operations_match_reference(small_grounds())


def test_entry_operations_match_reference_on_relabelled_grids():
    assert_entry_operations_match_reference(relabelled_grounds())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_entry_operations_match_reference_on_drawn_conditions(seed, relabelled):
    rng = random.Random(seed)
    ground = random_poset(rng, rng.randint(1, 5))
    p = random_condition(rng, ground, max_depth=6)
    if relabelled:
        def new_id(a):
            return 3 * (len(ground) - a) - 7

        p = Condition(map(new_id, p.domain), p.depth,
                      {new_id(a): v for a, v in p.items()})
        ground = relabel(ground, new_id)
    for req in entry_requests(ground, range(p.depth + 3)):
        assert_entry_matches_reference(ground, p, req, entry_op(ground, req)(p))


def test_one_op_serves_conditions_of_every_domain_and_depth():
    # conditions of mixed domains and depths in random order through one
    # op per request, each answer against a fresh op: a colouring kept for
    # the wrong domain or depth shows here
    rng = random.Random(21)
    applied = 0
    for _ in range(20):
        ground = random_poset(rng, rng.randint(2, 5))
        conds = [random_condition(rng, ground, max_depth=6) for _ in range(30)]
        conds += [random_extension(rng, ground, p) for p in conds]
        rng.shuffle(conds)
        for req in entry_requests(ground, (0, 2, 5, 9)):
            op = entry_op(ground, req)
            for p in conds:
                assert op(p) == entry_op(ground, req)(p), (ground, p, req)
                applied += 1
    assert applied > 50000, applied


def test_entry_op_refuses_bad_requests_when_compiled():
    # the errors and messages of the one-shot operations, raised before any
    # condition is seen
    p = Condition({0}, 1, {0: (0,)})
    for req, one_shot, error, message in [
            (("D", 1, 99), lambda: extend_into_D(E3, p, 1, 99),
             ScheduleError, "element 99 not in the ground order"),
            (("E", 1, 0, 99), lambda: extend_into_E(E3, p, 1, 0, 99),
             DomainError, "element 99 not in poset"),
            (("E", 1, 99, 0), lambda: extend_into_E(E3, p, 1, 99, 0),
             DomainError, "element 99 not in poset"),
            (("E", 1, 2, 2), lambda: extend_into_E(E3, p, 1, 2, 2),
             PreconditionError, "defined only when b is not below a"),
            (("E", 0, 1, 0), lambda: extend_into_E(E3, p, 0, 1, 0),
             PreconditionError, "defined only when b is not below a"),
            (("X", 0, 1), None, ScheduleError, "unknown request kind 'X'")]:
        with pytest.raises(error) as compiled:
            entry_op(E3, req)
        assert str(compiled.value) == message
        if one_shot is not None:
            with pytest.raises(error) as called:
                one_shot()
            assert str(called.value) == message


def ref_max_pad(ground, f, domain, a, lo, hi):
    below = [f[b] for b in domain if ground.leq(b, a)]
    pad = []
    for j in range(lo, hi):
        best = 0
        for s in below:
            if s[j] > best:
                best = s[j]
        pad.append(best)
    return tuple(pad)


def ref_amalgamate(ground, parts, root):
    """amalgamate as it was before the one-pass rewrite: pairwise root and
    agreement checks, and the result verified against every part."""
    parts = list(parts)
    root = frozenset(root)
    if not parts:
        raise RootError("at least one part is required")
    if len(parts) == 1:
        if not root <= parts[0].domain:
            raise RootError("root must lie inside the part's domain")
        return parts[0]
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            if p.domain & q.domain != root:
                raise RootError("pairwise domain intersections differ from the root")
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            d = min(p.depth, q.depth)
            for a in root:
                if p.seq(a)[:d] != q.seq(a)[:d]:
                    raise AgreementError(f"parts disagree on root element {a!r}")
    depth = max(p.depth for p in parts)
    deep = next(p for p in parts if p.depth == depth)
    f = {}
    for a in root:
        f[a] = deep.seq(a)
    for p in parts:
        for a in p.domain - root:
            if p.depth == depth:
                f[a] = p.seq(a)
            else:
                f[a] = p.seq(a) + ref_max_pad(ground, f, root, a, p.depth, depth)
    q = Condition(frozenset().union(*(p.domain for p in parts)), depth, f)
    for p in parts:
        if not ref_extends(ground, q, p):
            raise AmalgamationError(
                "no common extension: a deep part is non-monotone on the root")
    return q


def outcomes_agree(ground, parts, root):
    got = outcome(amalgamate, ground, parts, root)
    want = outcome(ref_amalgamate, ground, parts, root)
    assert got == want, (ground, parts, sorted(root))
    return got


def test_amalgamate_matches_reference_on_the_relabelled_reduction_grid():
    pairs = 0
    for ground in relabelled_grounds():
        els = ground.elements
        subsets = [frozenset(c) for r in range(len(els) + 1)
                   for c in itertools.combinations(els, r)]
        for d in range(4):
            for p in _conditions(ground, els, d):
                for sub in subsets:
                    pi = projection(sub, p)
                    for dq in range(pi.depth, 4):
                        for q in _conditions(ground, sub, dq, base=pi):
                            got = outcomes_agree(ground, [p, q], pi.domain)
                            assert isinstance(got, Condition)
                            pairs += 1
    assert pairs == 12077


def drawn_root_family(rng):
    """Parts sharing a root over a random poset, drawn so that every way
    amalgamate can fail comes up: now and then a private element lands in
    two parts, a part misses a root element or draws its own root values,
    and the root template is not made monotone."""
    ground = random_poset(rng, rng.randint(1, 5))
    els = list(ground.elements)
    rng.shuffle(els)
    cut = rng.randint(0, len(els))
    root, free = els[:cut], els[cut:]
    template = _draw(rng, root, rng.randint(0, 5))
    buckets = [[] for _ in range(rng.randint(2, 3))]
    for x in free:
        owners = rng.sample(range(len(buckets)), 2 if rng.random() < 0.1 else 1)
        for i in owners:
            if rng.random() < 0.7:
                buckets[i].append(x)
    parts = []
    for bucket in buckets:
        dom = [a for a in root if rng.random() < 0.97] + bucket
        fixed = {a: template.seq(a) for a in root} if rng.random() < 0.75 else None
        parts.append(_draw(rng, dom, rng.randint(0, template.depth), fixed=fixed))
    return ground, parts, frozenset(root)


def test_drawn_root_families_reach_every_outcome():
    rng = random.Random(14)
    seen = {Condition: 0, RootError: 0, AgreementError: 0, AmalgamationError: 0}
    for _ in range(2000):
        got = outcomes_agree(*drawn_root_family(rng))
        seen[type(got) if isinstance(got, Condition) else got[0]] += 1
    assert min(seen.values()) >= 30, seen


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_amalgamate_matches_reference_on_drawn_root_families(seed, relabelled):
    ground, parts, root = drawn_root_family(random.Random(seed))
    if relabelled:
        def new_id(a):
            return 3 * (len(ground) - a) - 7

        parts = [Condition(map(new_id, p.domain), p.depth,
                           {new_id(a): v for a, v in p.items()}) for p in parts]
        root = frozenset(map(new_id, root))
        ground = relabel(ground, new_id)
    outcomes_agree(ground, parts, root)


# sha256 of the read-off of generic_build for every isotype with n <= 5 at
# budget 8, recorded from the per-element implementation of the calculus
GENERIC_BUILD_DIGEST = "fcd39e49fd1c9f55f7ff5c2fc7aa75a2d2aed94d6c27f09733e04c6bded444f4"


def test_generic_build_output_is_pinned():
    records = []
    for n in range(6):
        for idx, g in enumerate(enumerate_poset_isotypes(n)):
            ge = generic_build(g, 8)
            records.append([
                n, idx,
                sorted([a, list(v.vals)] for a, v in ge.values.items()),
                sorted([sorted(k), t] for k, t in ge.thresholds.items()),
                sorted([list(k), list(w)] for k, w in ge.strict_witnesses.items()),
            ])
    assert len(records) == 1 + 1 + 2 + 5 + 16 + 63
    blob = json.dumps(records, separators=(",", ":"), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GENERIC_BUILD_DIGEST


def ref_generic_build(ground, budget, schedule):
    """generic_build's fold with extend_into_E called for every strict-witness
    request, read off the same way."""
    els = frozenset(ground.elements)
    p = EMPTY_CONDITION
    entry_depth = {}
    for req in schedule:
        if req[0] == "D":
            _, n, a = req
            p = extend_into_D(ground, p, n, a)
            entry_depth.setdefault(a, p.depth)
        else:
            _, n, a, b = req
            if a not in els or b not in els:
                raise ScheduleError("strict-witness request outside the ground order")
            p = extend_into_E(ground, p, n, a, b)
            entry_depth.setdefault(a, p.depth)
            entry_depth.setdefault(b, p.depth)
    values = {a: p.seq(a) for a in ground.elements}
    thresholds = {frozenset((a, b)): max(entry_depth[a], entry_depth[b])
                  for a in ground.elements for b in ground.elements if a < b}
    witnesses = {(a, b): tuple(k for k in range(p.depth) if p.seq(a)[k] < p.seq(b)[k])
                 for a in ground.elements for b in ground.elements
                 if a != b and not ground.leq(b, a)}
    return values, thresholds, witnesses


def read_off(ge):
    return ({a: v.vals for a, v in ge.values.items()}, ge.thresholds,
            ge.strict_witnesses)


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as e:
        return type(e), str(e)


def test_closed_form_build_matches_the_default_schedule_fold():
    # the explicit fold of default_schedule is the closed form's oracle
    built = 0
    for n in range(7):
        for g in enumerate_poset_isotypes(n):
            grounds = [g, relabel(g, lambda a: 3 * (n - a) - 7)] if n <= 4 else [g]
            for ground in grounds:
                for budget in (0, 1, 2, 5, 16):
                    assert read_off(generic_build(ground, budget)) == read_off(
                        generic_build(ground, budget, default_schedule(ground, budget))), \
                        (ground, budget)
                    built += 1
    assert built == 5 * (406 + 25)


def test_the_fold_compiles_an_op_only_for_a_request_p_does_not_meet(
        tmp_path, monkeypatch):
    # the closed-form builds hold 8,046 witness requests and the seeded ones
    # 11,540 requests; a fold that compiles an op for each, as
    # ref_generic_build does, compiles that many
    compiled = []

    def counting_entry_op(ground, req):
        compiled.append(req)
        return entry_op(ground, req)

    monkeypatch.setattr(forcing, "entry_op", counting_entry_op)
    for n in range(7):
        for ground in enumerate_poset_isotypes(n):
            generic_build(ground, 16)
    assert len(compiled) == 2035
    compiled.clear()
    poset = tmp_path / "poset.json"
    for ground in enumerate_poset_isotypes(4):
        poset.write_text(json.dumps(ground.to_json_dict()))
        for seed in range(5):
            args = argparse.Namespace(poset=str(poset), depth=10, seed=seed)
            _, [verdict] = cli._cmd_forcing_generic(args, {})
            assert verdict["ok"]
    assert len(compiled) == 739


@pytest.mark.parametrize("schedule", [None, "default"])
def test_an_op_that_places_no_witness_stops_the_build_at_once(monkeypatch, schedule):
    # the stub enters elements but places no strict witness; the build must
    # run it once per unmet witness request and then refuse, not loop
    ground = make_poset({0, 1}, set())
    runs = []

    def no_witness_op(ground, req):
        def op(p):
            if req[0] == "D":
                return entry_op(ground, req)(p)
            runs.append(req)
            assert len(runs) == 1, "the op ran again for an unmet request"
            return p
        return op

    monkeypatch.setattr(forcing, "entry_op", no_witness_op)
    if schedule:
        schedule = default_schedule(ground, 2)
    with pytest.raises(InvariantError, match=r"request \('E', 0, 0, 1\)"):
        generic_build(ground, 2, schedule)
    assert runs == [("E", 0, 0, 1)]


def test_the_shuffled_schedule_is_the_shuffled_default_schedule():
    # the shuffle of the schedule itself, with the level-0 domain requests
    # first: the seeded build's schedule before it shuffled indices
    for n in range(5):
        for ground in enumerate_poset_isotypes(n):
            for budget, seed in ((0, 1), (3, 7), (10, 99)):
                schedule = default_schedule(ground, budget)
                random.Random(seed).shuffle(schedule)
                want = [("D", 0, a) for a in ground.elements] + schedule
                assert list(shuffled_schedule(ground, budget, seed)) == want


def frontier_schedules(ground, budget, rng):
    """Shuffled schedules that stress the witness frontier: D requests after
    the E requests, and E requests repeated at rising and falling n."""
    reqs = default_schedule(ground, budget)
    ds = [r for r in reqs if r[0] == "D"]
    es = [r for r in reqs if r[0] == "E"]
    late_d = rng.sample(es, len(es)) + rng.sample(ds, len(ds))
    repeated = es + es[::-1] + rng.sample(es, len(es))
    yield late_d
    yield ds + repeated
    yield rng.sample(ds + repeated, len(ds) + len(repeated))


def test_frontier_matches_a_fold_that_meets_every_request():
    rng = random.Random(11)
    built = 0
    for n in range(1, 5):
        for ground in enumerate_poset_isotypes(n):
            for budget in (2, 8):
                for sched in frontier_schedules(ground, budget, rng):
                    assert read_off(generic_build(ground, budget, sched)) == \
                        ref_generic_build(ground, budget, sched)
                    built += 1
    assert built == 24 * 2 * 3


def test_frontier_keeps_the_errors_of_bad_requests():
    rng = random.Random(12)
    raised = {PreconditionError: 0, ScheduleError: 0}
    for n in range(2, 5):
        for ground in enumerate_poset_isotypes(n):
            bads = [("E", rng.randint(0, 3), 0, n)]  # n is outside the ground
            bads += [("E", rng.randint(0, 3), b, a) for a, b in ground.pairs()]
            for bad in bads:
                for sched in frontier_schedules(ground, 3, rng):
                    sched.insert(rng.randint(1, len(sched)), bad)
                    got = outcome(generic_build, ground, 3, sched)
                    assert got == outcome(ref_generic_build, ground, 3, sched)
                    raised[got[0]] += 1
    assert min(raised.values()) > 50


def generator_records():
    """Everything the seeded generators and random suites draw: conditions,
    extensions, root families, the stream position after them, and the
    random suites' reports."""
    from orderlab.checks import check_split_density, random_poset
    records = []
    for s in range(200):
        rng = random.Random(s)
        ground = random_poset(rng, rng.randint(1, 5))
        p = random_condition(rng, ground, 5)
        extra = [e for e in ground.elements if e not in p.domain and rng.random() < 0.5]
        q = random_extension(rng, ground, p, extra)
        r = random_extension(rng, ground, q)
        fam_ground, parts, root = random_root_family(rng)
        records.append([ground.to_json_dict(), p.to_json_dict(), q.to_json_dict(),
                        r.to_json_dict(), fam_ground.to_json_dict(),
                        [part.to_json_dict() for part in parts], sorted(root),
                        rng.random()])
    reports = [check_split_density(seed=s, trials=40) for s in range(20)]
    reports += [check_dense_entries(0, trials=1000), check_reduction(0, trials=1000)]
    return records + reports


# sha256 of generator_records(), recorded before the random generators were
# rebuilt on one per-element draw rule (and re-recorded, with the same draws,
# when the reports lost their name and wall time); any change to the order
# or range of a single draw moves it
GENERATOR_DIGEST = "2bc26937269ce95a47cce096b6b09b4f9d6ec07008ed1b81d9e9045971c0d3f4"


def test_generator_draws_are_pinned():
    blob = json.dumps(generator_records(), separators=(",", ":"), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GENERATOR_DIGEST


# --- reference oracles: the per-coordinate chain reading and the pairwise
# --- chain rule that lifted-value comparison and pair_rows replaced

class RefIntegerChain:
    """An implicit chain 0 < 1 < ... < length-1; elements are positions."""

    def __init__(self, length):
        self.length = length

    def element(self, position):
        assert 0 <= position < self.length
        return position

    def phi_holds(self, u, v):
        return u < v


class RefExplicitChain:
    """A designated chain read element by element through eval_pair."""

    def __init__(self, structure, formula, chain):
        self.structure, self.formula = structure, formula
        self.chain = [tuple(t) for t in chain]

    def element(self, position):
        assert 0 <= position < len(self.chain)
        return self.chain[position]

    def phi_holds(self, u, v):
        return (eval_pair(self.structure, self.formula, u, v)
                and not eval_pair(self.structure, self.formula, v, u))


def ref_pipeline_embed(ground, budget, factors, build=generic_build):
    """The report read coordinate by coordinate: each position is mapped to
    its chain element and every verdict evaluates the factor's formula."""
    ge = build(ground, budget)
    lifted = {a: phi(ge.values[a]) for a in ground.elements}
    width = len(next(iter(lifted.values()))) if lifted else 0
    positions = {a: lifted[a].vals for a in ground.elements}
    xi = {a: [factors[j].element(positions[a][j]) for j in range(width)]
          for a in ground.elements}

    def strict(j, u, v):
        return factors[j].phi_holds(u, v) and not factors[j].phi_holds(v, u)

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
                good = all(strict(j, xi[a][j], xi[b][j]) for j in range(start, width))
                pair_reports.append({"pair": [a, b], "kind": "forward",
                                     "threshold": start, "ok": good})
                ok = ok and good
            elif not ground.lt(b, a):
                rev = [w for w in ge.strict_witnesses[(b, a)] if w >= m0]
                j = rev[0] + 1 if rev else None
                good = (j is not None and j < width
                        and strict(j, xi[b][j], xi[a][j]))
                pair_reports.append({"pair": [a, b], "kind": "violation",
                                     "coordinate": j, "ok": good})
                ok = ok and good
    return {"ok": ok, "width": width,
            "positions": {str(a): list(positions[a]) for a in ground.elements},
            "pairs": pair_reports}


LEX = parse_formula("(or (R x0 y0) (and (E x0 y0) (R x1 y1)))")


def lex_chain(length):
    """The first ``length`` pairs of m x m in lexicographic order, a linear
    order of pairs whose structure has about m^2 / 2 tuples rather than
    length^2 / 2."""
    m = 1
    while m * m < length:
        m += 1
    lo = linear_order_structure(m)
    s = FiniteStructure(range(m), {"R": lo.relations["R"],
                                   "E": (2, [(i, i) for i in range(m)])})
    chain = [(i, j) for i in range(m) for j in range(m)][:length]
    return s, chain


@pytest.fixture(scope="module")
def explicit():
    """Per extra in (0, 1) and coordinate j < 8, a lexicographic chain of
    length eta(j) + extra, as a factor and as its reference reading.
    Lengths stop at eta(7) + 1 = 5041 elements, so these cover the builds of
    width at most 8."""
    out = {}
    for extra in (0, 1):
        out[extra] = []
        for j in range(8):
            s, chain = lex_chain(eta(j) + extra)
            out[extra].append((ExplicitChainFactor(s, LEX, chain),
                               RefExplicitChain(s, LEX, chain)))
    return out


def assert_pipeline_matches_reference(explicit, ground, budget, build=generic_build):
    """pipeline_embed against the per-coordinate reading, with integer
    chains and, where the width allows, explicit chains of lengths eta(j)
    and eta(j) + 1; returns the report and whether explicit chains ran."""
    rep = pipeline_embed(ground, budget)
    width = rep["width"]
    ints = [RefIntegerChain(eta(j)) for j in range(width)]
    assert rep == ref_pipeline_embed(ground, budget, ints, build)
    if width > 8:
        return rep, False
    for extra in (0, 1):
        pairs = explicit[extra][:width]
        assert pipeline_embed(ground, budget, [f for f, _ in pairs]) == rep
        assert ref_pipeline_embed(ground, budget, [r for _, r in pairs], build) == rep
    return rep, True


def test_pipeline_matches_the_per_coordinate_reading(explicit):
    compared = 0
    for n in range(1, 5):
        for ground in enumerate_poset_isotypes(n):
            for budget in range(4):
                rep, both = assert_pipeline_matches_reference(explicit, ground, budget)
                assert rep["ok"]
                compared += both
    assert compared == 32


def test_pipeline_matches_the_per_coordinate_reading_on_corrupted_builds(
        explicit, monkeypatch):
    # one value changed inside its coordinate bound, so that verdicts fail
    # and the two readings must agree on failures too
    rng = random.Random(11)
    failed = 0
    for n in range(2, 5):
        for ground in enumerate_poset_isotypes(n):
            for budget in range(3):
                ge = generic_build(ground, budget)
                depth = len(ge.values[ground.elements[0]])
                for _ in range(8):
                    a = rng.choice(ground.elements)
                    k = rng.randrange(2, depth)
                    vals = list(ge.values[a].vals)
                    vals[k] = rng.randrange(k)
                    bad = dataclasses.replace(
                        ge, values={**ge.values, a: position_seq(vals)})
                    monkeypatch.setattr(forcing, "generic_build", lambda g, b: bad)
                    rep, _ = assert_pipeline_matches_reference(
                        explicit, ground, budget, forcing.generic_build)
                    failed += not rep["ok"]
    assert failed > 150, failed


def ref_is_chain(structure, formula, chain):
    """The pairwise rule: the formula holds of (chain[i], chain[j]) exactly
    when i < j, one eval_pair per ordered pair."""
    n = len(chain)
    return all(eval_pair(structure, formula, chain[i], chain[j]) == (i < j)
               for i in range(n) for j in range(n) if i != j)


def random_pair_formula(rng, k, arities, depth):
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(sorted(arities))
        pool = [f"{side}{i}" for side in "xy" for i in range(k)]
        return Atom(name, tuple(rng.choice(pool) for _ in range(arities[name])))
    op = rng.choice([Not, And, Or])
    if op is Not:
        return Not(random_pair_formula(rng, k, arities, depth - 1))
    return op(tuple(random_pair_formula(rng, k, arities, depth - 1)
                    for _ in range(rng.randint(1, 3))))


def test_chain_rule_matches_the_pairwise_rule():
    rng = random.Random(12)
    arities = {"R": 2, "P": 1, "T": 3}
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        s = FiniteStructure(range(n), {
            name: (arity, [t for t in itertools.product(range(n), repeat=arity)
                           if rng.random() < 0.4])
            for name, arity in arities.items()})
        formula = random_pair_formula(rng, rng.randint(1, 2), arities, 3)
        try:
            k = len(pair_sorts(formula)[0])
        except FormulaError:  # a variable skips a coordinate: no sort
            continue
        best = longest_op_chain(s, formula)
        every = list(itertools.product(range(n), repeat=k))
        chains = [best, best[::-1], rng.sample(best, len(best)),
                  [best[i] for i in sorted(rng.sample(range(len(best)),
                                                      rng.randint(0, len(best))))],
                  best + best[:1],
                  [rng.choice(every) for _ in range(rng.randint(0, 4))]]
        for chain in chains:
            want = ref_is_chain(s, formula, chain)
            try:
                ExplicitChainFactor(s, formula, chain)
                got = True
            except ChainTooShortError:
                got = False
            assert got == want, (s.to_json_dict(), formula, chain)
            verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500, verdicts
