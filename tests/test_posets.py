import collections
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from orderlab import checks, schema
from orderlab.checks import (chain_length_brute, check_poset_invariants,
                             random_poset)
from orderlab.errors import CycleError, DomainError, InputError
from orderlab.posets import (Poset, RelStructure, elements_of,
                             enumerate_poset_isotypes, is_transitive,
                             linear_extension, list_pairs, load_pairs,
                             longest_chain, longest_chain_indices, make_poset,
                             reach, transpose)

from oracles import longest_chain_of_a_strict_order, ref_random_poset


def test_make_poset_closure_of_chain():
    p = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    assert sorted(p.pairs()) == [(0, 1), (0, 2), (1, 2)]


def test_make_poset_antichain():
    p = make_poset({0, 1}, set())
    assert p.pairs() == []


def test_make_poset_two_cycle_raises():
    with pytest.raises(CycleError):
        make_poset({0, 1}, {(0, 1), (1, 0)})


def test_make_poset_unknown_element_raises():
    with pytest.raises(DomainError):
        make_poset({0, 1}, {(0, 7)})


@pytest.mark.parametrize("carrier,bad", [([0, "a"], "'a'"),
                                         ([0, True, 2.5], "True"),
                                         ([1, 2.5], "2.5")])
def test_non_integer_ids_raise_domain_error(carrier, bad):
    for build in (lambda: load_pairs(carrier, []),
                  lambda: make_poset(carrier, []),
                  lambda: RelStructure.from_pairs(carrier, [])):
        with pytest.raises(DomainError, match=f"element id {re.escape(bad)} "):
            build()


def random_dag_edges(rng, n, density=0.4):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


def test_closure_invariants_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 9)
        p = make_poset(range(n), random_dag_edges(rng, n))
        m = p.matrix()
        for i in range(n):
            assert not m[i][i]
            for j in range(n):
                assert not (m[i][j] and m[j][i])
                for k in range(n):
                    if m[i][j] and m[j][k]:
                        assert m[i][k]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 6), st.integers(0, 2 ** 15 - 1))
def test_converse_involution(n, mask):
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pool[b] for b in range(len(pool)) if mask >> b & 1]
    p = make_poset(range(n), edges)
    assert p.converse().converse() == p
    for a, b in p.pairs():
        assert p.converse().lt(b, a)


def brute_longest_chain_len(p):
    best = 0
    elems = list(p.elements)
    for r in range(len(elems) + 1):
        for seq in itertools.permutations(elems, r):
            if all(p.lt(seq[i], seq[i + 1]) for i in range(r - 1)):
                best = max(best, r)
    return best


def test_longest_chain_examples():
    chain3 = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    assert longest_chain(chain3) == [0, 1, 2]
    anti = make_poset({0, 1, 2}, set())
    assert len(longest_chain(anti)) == 1


def test_longest_chain_vs_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        p = make_poset(range(n), random_dag_edges(rng, n))
        got = longest_chain(p)
        assert len(got) == brute_longest_chain_len(p)
        assert all(p.lt(a, b) for a, b in zip(got, got[1:]))
    for n in (7, 8):
        p = make_poset(range(n), random_dag_edges(rng, n, 0.5))
        assert len(longest_chain(p)) == brute_longest_chain_len(p)


def test_chain_dfs_matches_permutation_scan_on_isotypes():
    for n in range(6):
        for p in enumerate_poset_isotypes(n):
            assert chain_length_brute(p) == brute_longest_chain_len(p)


def test_poset_invariants_catches_a_short_chain(monkeypatch):
    assert check_poset_invariants(trials=60)["ok"]
    import orderlab.checks
    real = orderlab.checks.longest_chain
    monkeypatch.setattr(orderlab.checks, "longest_chain",
                        lambda p: real(p)[:-1])
    result = check_poset_invariants(trials=60)
    assert not result["ok"]
    assert result["failures"][0]["kind"] == "chain-length"


def test_poset_invariants_catches_a_wrong_direct_closure(monkeypatch):
    # the generator's order cut down to its covering pairs, as a pass that
    # never ORs in a successor's row leaves it: make_poset's closure of the
    # same draws differs wherever a chain has three elements
    real = checks.random_poset

    def unclosed(rng, n, density):
        rows = real(rng, n, density)._rows
        return Poset(range(n), [r & ~reach(rows, r) for r in rows], _validated=True)

    monkeypatch.setattr(checks, "random_poset", unclosed)
    result = check_poset_invariants(trials=60)
    assert not result["ok"] and result["cases"] == 60
    assert {f["kind"] for f in result["failures"]} == {"direct-closure"}


def test_random_poset_matches_the_edge_list_closure_draw_for_draw():
    # the same Poset, and the same generator state after every draw, so the
    # draw stream of every seeded suite stays where it was
    drive = random.Random(3)
    rng, ref = random.Random(4), random.Random(4)
    for _ in range(2400):
        n, density = drive.randint(0, 10), drive.uniform(0.1, 0.6)
        assert random_poset(rng, n, density) == ref_random_poset(ref, n, density)
        assert rng.getstate() == ref.getstate()


def test_longest_chain_lex_tiebreak():
    # two maximum chains: [0, 2] and [1, 2]; the lexicographically least wins
    p = make_poset({0, 1, 2}, {(0, 2), (1, 2)})
    assert longest_chain(p) == [0, 2]
    # the tie after the first element: [0, 1] and [0, 2]
    q = make_poset({0, 1, 2}, {(0, 1), (0, 2)})
    assert longest_chain(q) == [0, 1]


def test_longest_chain_beyond_recursion_limit():
    n = 1500
    p = make_poset(range(n), [(i, i + 1) for i in range(n - 1)])
    assert longest_chain(p) == list(range(n))


def is_order_embedding(images, p, q):
    """True iff the map a -> images[a] is injective and a <= b in p exactly
    when images[a] <= images[b] in q."""
    for a in p.elements:
        if a not in images:
            raise DomainError(f"map undefined at {a!r}")
        if images[a] not in q:
            raise DomainError(f"image {images[a]!r} not in codomain")
    if len({images[a] for a in p.elements}) != len(p):
        return False
    return all(p.leq(a, b) == q.leq(images[a], images[b])
               for a in p.elements for b in p.elements)


def test_is_order_embedding_identity_and_failures():
    p = make_poset({0, 1}, {(0, 1)})
    assert is_order_embedding({0: 0, 1: 1}, p, p)
    anti = make_poset({0, 1}, set())
    assert not is_order_embedding({0: 0, 1: 0}, anti, anti)
    assert not is_order_embedding({0: 0, 1: 1}, p, anti)
    with pytest.raises(DomainError):
        is_order_embedding({0: 0}, p, p)


def test_rel_structure_asymmetry():
    from orderlab.errors import AsymmetryError
    with pytest.raises(AsymmetryError):
        RelStructure.from_pairs([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(AsymmetryError):
        RelStructure.from_pairs([0], [(0, 0)])
    s = RelStructure.from_pairs([0, 1, 2], [(0, 1), (2, 1)])
    assert s.related(0, 1) and not s.related(1, 0)


def test_linear_extension_respects_forced_pair():
    p = make_poset(range(4), {(0, 1)})
    order = linear_extension(p, before=(3, 2))
    assert order.index(3) < order.index(2)
    assert order.index(0) < order.index(1)
    with pytest.raises(CycleError):
        linear_extension(p, before=(1, 0))


def test_isotype_counts_match_known_sequence():
    # OEIS A000112
    assert [len(enumerate_poset_isotypes(n)) for n in range(8)] == \
        [1, 1, 2, 5, 16, 63, 318, 2045]


# --- reference oracle: the mask scan the one-point extension replaced ---------

def ref_enumerate_poset_isotypes(n):
    """Scan the upper-triangular relations in ascending mask order, keep the
    transitive ones and drop each one isomorphic to one kept before."""
    if n == 0:
        return [Poset((), ())]
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets = {}
    out = []
    for mask in range(1 << len(uppers)):
        rows = [0] * n
        for b, (i, j) in enumerate(uppers):
            if mask >> b & 1:
                rows[i] |= 1 << j
        if not is_transitive(rows):
            continue
        profs = ref_node_profiles(rows, n)
        bucket = buckets.setdefault(tuple(sorted(profs)), [])
        if not any(ref_isomorphic(rows, other, profs, oprofs, n)
                   for other, oprofs in bucket):
            bucket.append((rows, profs))
            out.append(Poset(range(n), rows))
    return out


def ref_node_profiles(rows, n):
    down = [r.bit_count() for r in transpose(rows)]
    up = [r.bit_count() for r in rows]
    profs = []
    for i in range(n):
        succ_up = tuple(sorted(up[j] for j in range(n) if rows[i] >> j & 1))
        pred_down = tuple(sorted(down[j] for j in range(n) if rows[j] >> i & 1))
        profs.append((down[i], up[i], succ_up, pred_down))
    return profs


def ref_isomorphic(rows_a, rows_b, prof_a, prof_b, n):
    # backtracking vertex matching constrained by node profiles
    cand = [[j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)]
    if any(not c for c in cand):
        return False
    assign = [-1] * n
    used = [False] * n

    def rec(i):
        if i == n:
            return True
        for j in cand[i]:
            if used[j]:
                continue
            ok = all((rows_a[i] >> k & 1) == (rows_b[j] >> assign[k] & 1)
                     and (rows_a[k] >> i & 1) == (rows_b[assign[k]] >> j & 1)
                     for k in range(i))
            if ok:
                assign[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                used[j] = False
        return False

    return rec(0)


def test_isotypes_match_the_mask_scan_in_order():
    for n in range(7):
        assert enumerate_poset_isotypes(n) == ref_enumerate_poset_isotypes(n)


def mask(rows, n):
    """The relation as a bitmask over (0, 1), (0, 2), ..., (n-2, n-1)."""
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(1 << b for b, (i, j) in enumerate(uppers) if rows[i] >> j & 1)


def test_each_isotype_is_its_least_mask_natural_labelling():
    for n in range(6):
        for p in enumerate_poset_isotypes(n):
            rows = p._rows
            natural = []
            for perm in itertools.permutations(range(n)):
                # perm[i] is the new label of index i
                new = [0] * n
                for i, r in enumerate(rows):
                    for j in range(n):
                        if r >> j & 1:
                            new[perm[i]] |= 1 << perm[j]
                if not any(new[i] & ((2 << i) - 1) for i in range(n)):
                    natural.append(mask(new, n))
            assert mask(rows, n) == min(natural)


def test_isotypes_pairwise_nonisomorphic_small():
    types = enumerate_poset_isotypes(4)
    mats = set()
    for p in types:
        canon = min(
            tuple(tuple(p.matrix()[i][j] for j in perm) for i in perm)
            for perm in itertools.permutations(range(4)))
        mats.add(canon)
    assert len(mats) == len(types)


def test_json_round_trip():
    p = make_poset(range(5), {(0, 3), (3, 4), (1, 2)})
    again = schema.load("poset", p.to_json_dict())
    assert again == p


# --- reference oracles: the dict-based queries the bitset code replaced ------

def ref_lt(p, a, b):
    return bool(p._rows[p.index_of(a)] >> p.index_of(b) & 1)


def ref_leq(p, a, b):
    return a == b or ref_lt(p, a, b)


def ref_up_set(p, a):
    row = p._rows[p.index_of(a)]
    return frozenset(e for j, e in enumerate(p.elements) if row >> j & 1)


def ref_linear_extension(p, subset=None, before=None):
    elems = sorted(subset) if subset is not None else list(p.elements)
    succ = {a: set() for a in elems}
    indeg = {a: 0 for a in elems}
    eset = set(elems)
    for a in elems:
        for b in ref_up_set(p, a):
            if b in eset:
                succ[a].add(b)
                indeg[b] += 1
    if before is not None:
        a, b = before
        if ref_lt(p, b, a) or a == b:
            raise CycleError("requested pair contradicts the order")
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    out = []
    avail = sorted(a for a in elems if indeg[a] == 0)
    while avail:
        a = avail.pop(0)
        out.append(a)
        changed = False
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                avail.append(b)
                changed = True
        if changed:
            avail.sort()
    if len(out) != len(elems):
        raise CycleError("no linear extension exists")
    return out


def relabelled_isotypes(max_n):
    """Every isotype up to max_n, once as is and once over the sparse ids
    3, 7, 11, ... so that element ids differ from row indices."""
    for n in range(max_n + 1):
        for p in enumerate_poset_isotypes(n):
            yield p
            ids = [3 + 4 * i for i in range(n)][::-1]
            yield make_poset(ids, [(ids[a], ids[b]) for a, b in p.pairs()])


def test_queries_match_reference():
    for p in relabelled_isotypes(4):
        for a in p.elements:
            for b in p.elements:
                assert p.lt(a, b) == ref_lt(p, a, b)
                assert p.leq(a, b) == ref_leq(p, a, b)
        assert p.strict_pairs() == tuple(
            (a, b) for a in p.elements for b in p.elements if ref_lt(p, a, b))


def test_linear_extension_matches_reference():
    checked = 0
    for p in relabelled_isotypes(4):
        assert linear_extension(p) == ref_linear_extension(p)
        for r in range(len(p) + 1):
            for sub in itertools.combinations(p.elements, r):
                assert linear_extension(p, sub) == ref_linear_extension(p, sub)
                for a in sub:
                    for b in sub:
                        if a == b or p.lt(b, a):
                            continue
                        got = linear_extension(p, sub, before=(a, b))
                        assert got == ref_linear_extension(p, sub, before=(a, b))
                        checked += 1
    assert checked > 1000


def test_linear_extension_memo_returns_fresh_correct_lists():
    for p in relabelled_isotypes(4):
        for r in range(len(p) + 1):
            for sub in itertools.combinations(p.elements, r):
                befores = [None] + [(a, b) for a in sub for b in sub
                                    if a != b and not p.lt(b, a)]
                for before in befores:
                    want = ref_linear_extension(p, sub, before=before)
                    first = linear_extension(p, sub, before=before)
                    assert first == want
                    first.reverse()
                    first.append("junk")
                    # a second call, the subset in another order, is served
                    # from the cache and is unaffected by the mutation
                    assert linear_extension(p, sub[::-1], before=before) == want


def test_linear_extension_memo_is_per_instance():
    # equal but distinct posets, and posets of other shapes built and dropped
    # in between (so object ids get reused), each answer from their own order
    shapes = [p.pairs() for n in range(5) for p in enumerate_poset_isotypes(n)
              if len(p) == 4]
    for _ in range(3):
        for pairs in shapes:
            p = make_poset(range(4), pairs)
            q = make_poset(range(4), pairs)
            assert p == q and p is not q
            for before in (None, (3, 0)):
                if before and p.lt(0, 3):
                    continue
                want = ref_linear_extension(p, before=before)
                assert linear_extension(p, before=before) == want
                assert linear_extension(q, before=before) == want
                assert linear_extension(p, before=before) == want
        for pairs in shapes:
            flipped = make_poset(range(4), [(3 - a, 3 - b) for a, b in pairs])
            assert linear_extension(flipped) == ref_linear_extension(flipped)


def test_linear_extension_caches_no_error():
    p = make_poset(range(3), {(0, 1)})
    for _ in range(2):
        with pytest.raises(CycleError):
            linear_extension(p, before=(1, 0))
        with pytest.raises(DomainError):
            linear_extension(p, [0, 1], before=(0, 2))
    assert linear_extension(p, [0, 1, 2], before=(2, 0)) == [2, 0, 1]


def test_caches_fill_on_first_use():
    p = make_poset(range(4), {(0, 1), (1, 3)})
    assert not any(hasattr(p, s) for s in ("_pairs", "_downs", "_linext"))
    assert p.strict_pairs() is p.strict_pairs()


def test_out_of_poset_elements_raise_domain_error():
    p = make_poset(range(3), {(0, 1)})
    for call in (lambda: p.lt(0, 9), lambda: p.lt(9, 0),
                 lambda: p.leq(0, 9), lambda: p.leq(9, 0),
                 lambda: linear_extension(p, [0, 9]),
                 lambda: linear_extension(p, [0, 1], before=(0, 2))):
        with pytest.raises(DomainError):
            call()


# --- the shared bitset-relation primitives against their definitions ----------

def ref_check_strict_order(rows, n):
    """The three-clause rule the Poset constructor used before it became
    "irreflexive and transitive": loops, closure and 2-cycles separately."""
    for i in range(n):
        if rows[i] >> i & 1:
            raise CycleError(f"element index {i} related to itself")
        r = rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            if rows[j] & ~rows[i] & ~(1 << i):
                raise CycleError("relation is not transitively closed")
            if rows[j] >> i & 1:
                raise CycleError("relation contains a 2-cycle")
            r &= r - 1


def accepts(check):
    try:
        check()
    except CycleError:
        return False
    return True


def test_strict_order_rule_matches_three_clause_oracle_exhaustively():
    accepted = []
    for n in range(5):
        count = 0
        for mask in range(1 << (n * n)):
            rows = [mask >> (n * i) & ((1 << n) - 1) for i in range(n)]
            ok = accepts(lambda: ref_check_strict_order(rows, n))
            assert accepts(lambda: Poset(range(n), rows)) == ok, (n, rows)
            count += ok
        accepted.append(count)
    # labelled posets on 0..4 elements (OEIS A001035)
    assert accepted == [1, 1, 3, 19, 219]


def relation_rows(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


@settings(deadline=None, max_examples=200)
@given(relation_rows())
def test_transpose_and_transitivity_match_the_matrix(rows):
    n = len(rows)
    m = [[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)]
    assert transpose(rows) == [sum(m[i][j] << i for i in range(n)) for j in range(n)]
    assert is_transitive(rows) == all(
        m[i][k] for i in range(n) for j in range(n) for k in range(n)
        if m[i][j] and m[j][k])
    labels = [3 + 4 * i for i in range(n)]
    pairs = list_pairs(labels, rows)
    assert pairs == [(labels[i], labels[j]) for i in range(n) for j in range(n)
                     if m[i][j]]
    assert load_pairs(reversed(labels), pairs) == (labels, rows)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    st.integers(0, (1 << n) - 1))))
@example(([6, 5], 0))
@example(([6, 5], 1))
@example(([0] * 70 + [9], 1 << 70))
def test_elements_of_and_reach_match_the_bit_list(case):
    rows, mask = case
    bits = [i for i in range(len(rows)) if mask >> i & 1]
    labels = [3 + 4 * i for i in range(len(rows))]
    assert elements_of(labels, mask) == [labels[i] for i in bits]
    union = 0
    for i in bits:
        union |= rows[i]
    assert reach(rows, mask) == union


@pytest.mark.parametrize("build", [
    lambda: Poset([0, 1], [0]),
    lambda: Poset([0, 1], [0, 0, 0]),
    lambda: Poset([0, 1], [0b100, 0]),
    lambda: Poset([0, 1], [-2, 0]),
    lambda: RelStructure([0, 1], [0]),
    lambda: RelStructure([0, 1], [0b100, 0]),
    lambda: RelStructure([0, 1], [0, -1]),
])
def test_malformed_rows_raise_domain_error(build):
    # one row per element, each a bitset over the elements; without the
    # check these built, or raised IndexError from transpose
    with pytest.raises(DomainError):
        build()


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 7), st.integers(0, 2 ** 21 - 1), st.integers(0, 2 ** 7 - 1))
def test_restrict_is_the_sliced_matrix(n, mask, keep):
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = make_poset(range(n), [pool[b] for b in range(len(pool)) if mask >> b & 1])
    idx = [i for i in range(n) if keep >> i & 1]
    m = p.matrix()
    sub = p.restrict(reversed(idx))
    assert sub.elements == tuple(idx)
    assert sub.matrix() == [[m[i][j] for j in idx] for i in idx]


def test_malformed_pairs_raise_domain_error():
    for bad in ([0], [0, 1, 2], 5, [[0], 1]):
        calls = [lambda: make_poset(range(3), [(0, 1), bad]),
                 lambda: RelStructure.from_pairs(range(3), [bad])]
        if isinstance(bad, list):  # the schema refuses a pair that is no array
            calls += [lambda: schema.load("poset", {"elements": [0, 1, 2],
                                                    "edges": [bad]}),
                      lambda: schema.load("relation structure", {
                          "universe": [0, 1, 2], "pairs": [bad]})]
        for call in calls:
            with pytest.raises(DomainError, match=re.escape(repr(bad))):
                call()
    with pytest.raises(InputError, match=re.escape("poset: $.edges[0]: not a JSON array")):
        schema.load("poset", {"elements": [0, 1, 2], "edges": [5]})


def strict_digraphs(rng, n):
    """Irreflexive rows over n indices: a random digraph, the closure of a
    random DAG (a strict order), and that order with one pair dropped or
    one pair added against a chain, each of random density."""
    p = rng.random()
    digraph = [sum(1 << j for j in range(n) if j != i and rng.random() < p)
               for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    closed = list(make_poset(range(n), pairs)._rows) if n else []
    out = [digraph, closed]
    related = [(i, j) for i in range(n) for j in range(n) if closed[i] >> j & 1]
    if related:
        i, j = rng.choice(related)
        out.append([r ^ (1 << j) if k == i else r for k, r in enumerate(closed)])
    if n >= 3:
        a, b = rng.sample(range(n), 2)
        out.append([r | (1 << b) if k == a and not closed[b] >> a & 1 else r
                    for k, r in enumerate(closed)])
    return out


def test_the_chain_sweep_tests_transitivity_as_it_goes():
    rng = random.Random(15)
    verdicts = collections.Counter()
    for n in range(41):
        for _ in range(12):
            for rows in strict_digraphs(rng, n):
                want = (longest_chain_of_a_strict_order(rows) if is_transitive(rows)
                        else None)
                assert longest_chain_indices(rows) == want, rows
                verdicts[want is None] += 1
    assert min(verdicts[True], verdicts[False]) > 400, verdicts
    chain = [((1 << 1200) - 1) ^ ((1 << (i + 1)) - 1) for i in range(1200)]
    assert longest_chain_indices(chain) == list(range(1200))
    assert longest_chain_indices(chain[:-2] + [1 << 3, 0]) is None
