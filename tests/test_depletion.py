import hashlib
import itertools
import json
import random
import re

import pytest

from orderlab import checks, schema
from orderlab.checks import (REM0_FIXTURE, check_depletion_monotone,
                             check_depletion_poset, random_depletion_instance)
from orderlab.depletion import (DepletionInstance, Walk, depletion_order,
                                depletion_rel, find_walk, maximal_star_set,
                                star_condition)
from orderlab.errors import (DomainError, IndexLabelError, LevelError,
                             MembershipError, OrderlabError)
from orderlab.posets import Poset, make_poset

from oracles import ref_depletion_order


def restrict_walk(walk, s):
    """The walk restricted to a label subset with the same extremes."""
    s = tuple(sorted(s))
    if not s or {s[0], s[-1]} != {walk.s[0], walk.s[-1]}:
        raise LevelError("restriction must keep the extreme labels")
    return Walk(s, {xi: walk.steps[xi] for xi in s}, walk.direction)


def domain(inst, s):
    """Core plus the fibers of the labels in s."""
    out = set(inst.core)
    for xi in s:
        out |= inst.fibers[xi]
    return frozenset(out)


def verify_walk(inst, walk):
    """One element per label of walk.s, each in its fiber, monotone along
    consecutive levels in the walk's direction."""
    s = walk.s
    if len(s) < 2 or set(walk.steps) != set(s):
        return False
    for xi in s:
        if walk.steps[xi] not in inst.fibers[xi]:
            return False
    leq = inst.order.leq
    for a, b in zip(s, s[1:]):
        lo, hi = walk.steps[a], walk.steps[b]
        if walk.direction == "ascending":
            if not leq(lo, hi):
                return False
        else:
            if not leq(hi, lo):
                return False
    return True


def search_strictness_witness(max_per_part=2, max_labels=3):
    """Exhaustive hunt for an instance where the depleted relation over a
    subset properly extends the restriction of the full one; it found
    REM0_FIXTURE."""
    labels = list(range(max_labels))
    for core_size in range(0, 2):
        for sizes in itertools.product(range(max_per_part + 1), repeat=max_labels):
            if any(sz == 0 for sz in sizes[:1] + sizes[-1:]):
                continue
            ids = list(range(core_size + sum(sizes)))
            core = ids[:core_size]
            fibers = {}
            at = core_size
            for lab, sz in zip(labels, sizes):
                fibers[lab] = ids[at:at + sz]
                at += sz
            pool = [(a, b) for a in ids for b in ids if a != b]
            for mask in range(1 << len(pool)):
                edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
                try:
                    order = make_poset(ids, edges)
                    inst = DepletionInstance(labels, core, fibers, order)
                except OrderlabError:
                    continue
                sub = (labels[0], labels[-1])
                for x in fibers[labels[0]]:
                    for y in fibers[labels[-1]]:
                        if depletion_rel(inst, sub, x, y) and \
                                not depletion_rel(inst, tuple(labels), x, y):
                            return inst, sub, (x, y)
    return None


def chain_instance():
    order = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    return DepletionInstance([0, 1, 2], [], {0: [0], 1: [1], 2: [2]}, order)


def blocked_instance():
    # ambient 0 <= 2, middle fiber unrelated to both
    order = make_poset({0, 1, 2}, {(0, 2)})
    return DepletionInstance([0, 1, 2], [], {0: [0], 1: [1], 2: [2]}, order)


def test_instance_validation():
    order = make_poset({0, 1}, set())
    with pytest.raises(IndexLabelError):
        DepletionInstance([0], [], {0: [0, 1]}, order)
    with pytest.raises(MembershipError):
        DepletionInstance([0, 1], [0], {0: [0], 1: [1]}, order)  # 0 twice
    with pytest.raises(MembershipError):
        DepletionInstance([0, 1], [], {0: [0], 1: []}, order)  # 1 uncovered


def test_find_walk_two_levels_is_the_pair():
    inst = blocked_instance()
    w = find_walk(inst, (0, 2), 0, 2)
    assert w is not None and w.steps == {0: 0, 2: 2}
    assert verify_walk(inst, w)


def test_find_walk_three_levels_and_blocked_middle():
    inst = chain_instance()
    w = find_walk(inst, (0, 1, 2), 0, 2)
    assert w is not None and w.direction == "ascending"
    assert [w.steps[l] for l in (0, 1, 2)] == [0, 1, 2]
    assert find_walk(blocked_instance(), (0, 1, 2), 0, 2) is None


def test_find_walk_unreachable_pair():
    order = make_poset({0, 1}, set())
    inst = DepletionInstance([0, 1], [], {0: [0], 1: [1]}, order)
    assert find_walk(inst, (0, 1), 0, 1) is None


def test_find_walk_level_error():
    inst = chain_instance()
    with pytest.raises(LevelError):
        find_walk(inst, (0, 1, 2), 1, 2)  # x not in the extreme fiber


def test_descending_walk():
    order = make_poset({0, 1, 2}, {(2, 1), (1, 0)})  # decreasing up the levels
    inst = DepletionInstance([0, 1, 2], [], {0: [0], 1: [1], 2: [2]}, order)
    w = find_walk(inst, (0, 1, 2), 2, 0)
    assert w is not None and w.direction == "descending"
    assert verify_walk(inst, w)
    assert depletion_rel(inst, (0, 1, 2), 2, 0)


def test_depletion_rel_reflexive_and_membership():
    inst = chain_instance()
    for x in (0, 1, 2):
        assert depletion_rel(inst, (0, 1, 2), x, x)
    with pytest.raises(MembershipError):
        depletion_rel(inst, (0, 1), 2, 0)  # 2 sits in a fiber outside s
    with pytest.raises(MembershipError):
        depletion_rel(inst, (0, 1), 0, 99)  # not in the instance at all
    with pytest.raises(IndexLabelError):
        depletion_rel(inst, (0,), 0, 0)
    with pytest.raises(IndexLabelError):
        depletion_rel(inst, (0, 7), 0, 0)


def test_label_subset_is_a_set_and_needs_two_labels():
    inst = chain_instance()
    assert depletion_order(inst, (0, 0, 1, 2, 2)) == depletion_order(inst, (0, 1, 2))
    w = find_walk(inst, (2, 0, 1, 0), 0, 2)
    assert w.s == (0, 1, 2) and w.steps == {0: 0, 1: 1, 2: 2}
    for s in ((0,), (0, 0)):
        with pytest.raises(IndexLabelError):
            depletion_order(inst, s)


def test_two_label_depletion_is_the_restriction():
    rng = random.Random(2)
    for _ in range(200):
        inst = random_depletion_instance(rng, 8, 4)
        s = tuple(sorted(rng.sample(inst.labels, 2)))
        dom = sorted(domain(inst, s))
        for x in dom:
            for y in dom:
                assert depletion_rel(inst, s, x, y) == inst.order.leq(x, y)


def test_core_interpolant():
    order = make_poset({0, 1, 9}, {(0, 9), (9, 1)})
    inst = DepletionInstance([0, 5], [9], {0: [0], 5: [1]}, order)
    assert depletion_rel(inst, (0, 5), 0, 1)


def test_singleton_chain_through_every_level():
    # singleton fibers forming a chain hitting each level: the depleted
    # order equals the ambient one on the chain
    inst = chain_instance()
    dep = depletion_order(inst, (0, 1, 2))
    assert sorted(dep.pairs()) == sorted(inst.order.pairs())


def test_strictness_fixture_and_search_agree():
    inst = schema.load("depletion instance", REM0_FIXTURE)
    assert depletion_rel(inst, (0, 2), 0, 2)
    assert not depletion_rel(inst, (0, 1, 2), 0, 2)
    found = search_strictness_witness()
    assert found is not None
    inst2, sub, (x, y) = found
    assert depletion_rel(inst2, sub, x, y)
    assert not depletion_rel(inst2, tuple(inst2.labels), x, y)


def test_depletion_order_contained_and_valid():
    rng = random.Random(4)
    for _ in range(300):
        inst = random_depletion_instance(rng, 10, 5)
        k = rng.randint(2, len(inst.labels))
        s = tuple(sorted(rng.sample(inst.labels, k)))
        dep = depletion_order(inst, s)  # constructor validates order axioms
        for a, b in dep.pairs():
            assert inst.order.leq(a, b)


def test_shrink_monotonicity_and_convex_agreement():
    rng = random.Random(6)
    for _ in range(300):
        inst = random_depletion_instance(rng, 9, 5)
        kt = rng.randint(2, len(inst.labels))
        t = tuple(sorted(rng.sample(inst.labels, kt)))
        ks = rng.randint(2, kt)
        s = tuple(sorted(rng.sample(t, ks)))
        dom = sorted(domain(inst, s))
        for x in dom:
            for y in dom:
                if depletion_rel(inst, t, x, y):
                    assert depletion_rel(inst, s, x, y)
        lo = rng.randrange(len(t))
        hi = rng.randrange(lo, len(t))
        conv = t[lo:hi + 1]
        if len(conv) >= 2:
            for x in sorted(domain(inst, conv)):
                for y in sorted(domain(inst, conv)):
                    assert depletion_rel(inst, conv, x, y) == \
                        depletion_rel(inst, t, x, y)


def test_monotone_suite_reports_a_dropped_pair(monkeypatch):
    assert check_depletion_monotone(trials=300, seed=1)["ok"]
    real = checks.depletion_order
    dropped = set()

    def lossy(inst, s):
        # the two-label depletions lose their first pair
        dep = real(inst, s)
        if len(s) > 2 or not dep.pairs():
            return dep
        a, b = dep.pairs()[0]
        rows = list(dep._rows)
        rows[dep.index_of(a)] &= ~(1 << dep.index_of(b))
        dropped.add((a, b))
        return Poset(dep.elements, rows, _validated=True)

    monkeypatch.setattr(checks, "depletion_order", lossy)
    result = check_depletion_monotone(trials=300, seed=1)
    assert not result["ok"] and result["cases"] == 300
    kinds = set()
    for f in result["failures"]:
        assert tuple(f["pair"]) in dropped
        kinds.add(f["kind"])
    assert kinds <= {"shrink-monotonicity", "convex-agreement"}


def test_depletion_order_matches_the_oracle_on_the_suite_draws(monkeypatch):
    # every instance and label subset that the partial-order suite draws at
    # its budget-small count and seed 0
    real = checks.depletion_order
    seen = []

    def compared(inst, s):
        dep = real(inst, s)
        assert dep == ref_depletion_order(inst, s), (inst.to_json_dict(), s)
        seen.append(s)
        return dep

    monkeypatch.setattr(checks, "depletion_order", compared)
    assert check_depletion_poset(10000, 0)["ok"]
    assert len(seen) == 10000


def test_partial_order_suite_reports_an_added_pair(monkeypatch):
    assert check_depletion_poset(trials=300, seed=0)["ok"]
    real = checks.depletion_order
    added = set()

    def loose(inst, s):
        # one pair that the ambient order lacks, where there is one
        dep = real(inst, s)
        els = dep.elements
        for a, b in itertools.permutations(els, 2):
            if not inst.order.leq(a, b):
                rows = list(dep._rows)
                rows[dep.index_of(a)] |= 1 << dep.index_of(b)
                added.add((a, b))
                return Poset(els, rows, _validated=True)
        return dep

    monkeypatch.setattr(checks, "depletion_order", loose)
    result = check_depletion_poset(trials=300, seed=0)
    assert not result["ok"] and result["cases"] == 300
    assert result["failures"]
    for f in result["failures"]:
        assert tuple(f["pair"]) in added


def test_walk_restriction_stays_a_walk():
    rng = random.Random(8)
    done = 0
    # a fixed number of instances, so a find_walk that finds nothing fails
    # the count below instead of looping forever
    for _ in range(166):
        inst = random_depletion_instance(rng, 10, 5)
        t = tuple(inst.labels)
        lows = sorted(inst.fibers[t[0]])
        highs = sorted(inst.fibers[t[-1]])
        for x in lows:
            for y in highs:
                try:
                    w = find_walk(inst, t, x, y)
                except LevelError:
                    continue
                if w is None:
                    continue
                done += 1
                for ks in range(2, len(t)):
                    for mid in itertools.combinations(t[1:-1], ks - 2):
                        s = (t[0],) + mid + (t[-1],)
                        assert verify_walk(inst, restrict_walk(w, s))
    assert done >= 60


def test_star_condition_examples():
    # adjacent labels with a related pair: the pair is itself a walk
    order = make_poset({0, 1}, {(0, 1)})
    inst = DepletionInstance([3, 7], [], {3: [0], 7: [1]}, order)
    holds, wit = star_condition(inst, 3, 7)
    assert not holds and wit is None
    holds2, wit2 = star_condition(blocked_instance(), 0, 2)
    assert holds2 and wit2 == (0, 1, 2)
    with pytest.raises(IndexLabelError):
        star_condition(inst, 3, 3)


def test_star_full_interval_equals_exhaustive():
    rng = random.Random(10)
    for _ in range(150):
        inst = random_depletion_instance(rng, 9, 6)
        for i, a in enumerate(inst.labels):
            for b in inst.labels[i + 1:]:
                fast, _ = star_condition(inst, a, b)
                slow, _ = star_condition(inst, a, b, exhaustive=True)
                assert fast == slow


def test_maximal_star_set_is_maximal():
    rng = random.Random(12)
    for _ in range(150):
        inst = random_depletion_instance(rng, 9, 5)
        chosen = maximal_star_set(inst)
        assert chosen[0] == inst.labels[0]
        for a in chosen:
            for b in chosen:
                if a != b:
                    assert star_condition(inst, a, b)[0]
        for lab in inst.labels:
            if lab in chosen:
                continue
            assert any(not star_condition(inst, lab, c)[0]
                       for c in chosen)


def test_maximal_star_set_extremes():
    # everything unrelated: no walks at all, every label joins
    order = make_poset({0, 1, 2}, set())
    inst = DepletionInstance([0, 1, 2], [], {0: [0], 1: [1], 2: [2]}, order)
    assert maximal_star_set(inst) == (0, 1, 2)
    # adjacent fibers all linked: nothing beyond the first label
    order2 = make_poset({0, 1, 2}, {(0, 1), (1, 2)})
    inst2 = DepletionInstance([0, 1, 2], [], {0: [0], 1: [1], 2: [2]}, order2)
    assert maximal_star_set(inst2) == (0,)


def test_json_round_trip():
    inst = schema.load("depletion instance", REM0_FIXTURE)
    assert inst.to_json_dict() == {
        "I": [0, 1, 2], "A": [], "F": {"0": [0], "1": [1], "2": [2]},
        "edges": [[0, 2]]}
    for bad in ([0], [0, 1, 2]):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            schema.load("depletion instance", dict(REM0_FIXTURE, edges=[bad]))


# --- the per-pair walk search the bitset layer replaced, kept as an oracle --

def oracle_frontier_sweep(inst, levels, starts, ascending):
    leq = inst.order.leq
    reach = [dict.fromkeys(starts)]  # element -> parent in previous level
    for xi in levels[1:]:
        nxt = {}
        for y in inst.fibers[xi]:
            for x in reach[-1]:
                ok = leq(x, y) if ascending else leq(y, x)
                if ok:
                    nxt[y] = x
                    break
        reach.append(nxt)
    return reach


def oracle_walk_between(inst, levels, x, y, ascending):
    reach = oracle_frontier_sweep(inst, levels, [x], ascending)
    if y not in reach[-1]:
        return None
    steps = {levels[-1]: y}
    cur = y
    for pos in range(len(levels) - 1, 0, -1):
        cur = reach[pos][cur]
        steps[levels[pos - 1]] = cur
    steps[levels[0]] = cur
    return steps


def oracle_walk_exists(inst, levels, ascending):
    starts = inst.fibers[levels[0]]
    if not starts:
        return False
    reach = set(starts)
    leq = inst.order.leq
    for xi in levels[1:]:
        nxt = set()
        for y in inst.fibers[xi]:
            for x in reach:
                ok = leq(x, y) if ascending else leq(y, x)
                if ok:
                    nxt.add(y)
                    break
        reach = nxt
        if not reach:
            return False
    return True


def oracle_rel(inst, s, x, y):
    """depletion_rel for a sorted label tuple s and x, y in its domain."""
    if not inst.order.leq(x, y):
        return False
    lx, ly = inst.level(x), inst.level(y)
    if lx is None or ly is None or lx == ly:
        return True
    for a in inst.core:
        if inst.order.leq(x, a) and inst.order.leq(a, y):
            return True
    i, j = s.index(lx), s.index(ly)
    lo, hi = min(i, j), max(i, j)
    levels = list(s[lo:hi + 1])
    if i < j:
        return oracle_walk_between(inst, levels, x, y, ascending=True) is not None
    return oracle_walk_between(inst, levels, y, x, ascending=False) is not None


def oracle_find_walk_steps(inst, s, x, y):
    if inst.level(x) == s[0]:
        return "ascending", oracle_walk_between(inst, list(s), x, y, True)
    return "descending", oracle_walk_between(inst, list(s), y, x, False)


def oracle_star(inst, xi, eta_label, exhaustive):
    lo, hi = min(xi, eta_label), max(xi, eta_label)
    interval = [l for l in inst.labels if lo <= l <= hi]
    if exhaustive:
        middle = [l for l in interval if l not in (lo, hi)]
        for mask in range(1 << len(middle)):
            sub = [lo] + [m for b, m in enumerate(middle) if mask >> b & 1] + [hi]
            if not (oracle_walk_exists(inst, sub, True)
                    or oracle_walk_exists(inst, sub, False)):
                return True, tuple(sub)
        return False, None
    if oracle_walk_exists(inst, interval, True) or \
            oracle_walk_exists(inst, interval, False):
        return False, None
    return True, tuple(interval)


def label_subsets(labels):
    return [s for r in range(2, len(labels) + 1)
            for s in itertools.combinations(labels, r)]


def test_bitset_layer_matches_per_pair_oracle():
    rng = random.Random(20)
    walks = found = 0
    for _ in range(1000):
        inst = random_depletion_instance(rng, 10, 5)
        for s in label_subsets(inst.labels):
            dom = sorted(domain(inst, s))
            expected = {(x, y) for x in dom for y in dom
                        if x != y and oracle_rel(inst, s, x, y)}
            got = {(x, y) for x in dom for y in dom
                   if x != y and depletion_rel(inst, s, x, y)}
            assert got == expected, (inst.to_json_dict(), s)
            dep = depletion_order(inst, s)
            assert dep.elements == tuple(dom)
            assert set(dep.pairs()) == expected, (inst.to_json_dict(), s)
            for x in inst.fibers[s[0]]:
                for y in inst.fibers[s[-1]]:
                    for a, b in ((x, y), (y, x)):
                        walks += 1
                        direction, steps = oracle_find_walk_steps(inst, s, a, b)
                        w = find_walk(inst, s, a, b)
                        if steps is None:
                            assert w is None
                            continue
                        found += 1
                        assert w.direction == direction
                        assert list(w.steps.items()) == list(steps.items())
        for i, a in enumerate(inst.labels):
            for b in inst.labels[i + 1:]:
                for exhaustive in (False, True):
                    assert star_condition(inst, a, b, exhaustive) == \
                        oracle_star(inst, a, b, exhaustive)
                    assert star_condition(inst, b, a, exhaustive) == \
                        oracle_star(inst, b, a, exhaustive)
    assert walks > 5000 and 0 < found < walks


def cli_transcript_digest(tmp_path, monkeypatch, capsys):
    """sha256 over exit codes and stdout of depletion, walk and star
    requests on fixed seeded instances (file names relative to tmp_path,
    so the input digests in the reports do not depend on it)."""
    from orderlab.cli import main
    monkeypatch.chdir(tmp_path)
    rng = random.Random(77)
    digest = hashlib.sha256()
    for k in range(60):
        inst = random_depletion_instance(rng, 10, 5)
        name = f"inst{k}.json"
        (tmp_path / name).write_text(json.dumps(inst.to_json_dict()))
        subsets = label_subsets(inst.labels)
        argvs = []
        for s in rng.sample(subsets, min(3, len(subsets))):
            arg = ",".join(map(str, s))
            argvs.append(["depletion", "--in", name, "--s", arg])
            for x in sorted(inst.fibers[s[0]])[:2]:
                for y in sorted(inst.fibers[s[-1]])[:2]:
                    for a, b in ((x, y), (y, x)):
                        argvs.append(["walk", "--in", name, "--s", arg,
                                      "--x", str(a), "--y", str(b)])
        argvs.append(["star", "--in", name])
        argvs.append(["star", "--in", name, "--exhaustive"])
        a, b = inst.labels[0], inst.labels[-1]
        argvs.append(["star", "--in", name, "--xi", str(b), "--eta", str(a)])
        for argv in argvs:
            code = main(argv)
            digest.update(f"{' '.join(argv)} -> {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_cli_depletion_walk_star_golden(tmp_path, monkeypatch, capsys):
    assert cli_transcript_digest(tmp_path, monkeypatch, capsys) == \
        "925a54463cedeca4c0f8e1387c740b70ab14fb565cf320b90fdcf86ac6eb32b4"
