import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import canonical_antichain_by_restarts, check_antichain_pairwise
from orderlab import _kernels, checks
from orderlab.checks import check_clopen_ops
from orderlab.errors import BudgetError, CanonicalityError, DepthError
from orderlab.tiepoint import (Clopen, EMPTY, FULL, Point, bulk_probe_check,
                               canonical_antichain, clopen_to_mask, complement,
                               contains, decomposition_invariant_failures,
                               expansion_axiom_check, join, leq, mask_to_clopen,
                               meet, parse_point, tie_decompose,
                               true_tie_check, TieDecomposition)


# --- independent oracle: clopens of depth <= d as sets of depth-d cells -----

def cells_oracle(u, d):
    out = set()
    for w in u.antichain:
        assert len(w) <= d
        span = d - len(w)
        for i in range(1 << span):
            out.add(w + format(i, f"0{span}b") if span else w)
    return out


# --- literal oracles: the cell enumeration and the fragment-mask sweep ------

def ref_tie_decompose(x, d):
    """List the depth-i cells and merge those below / above the prefix."""
    below, above = [], []
    for i in range(1, d + 1):
        pref = x.expand(i)
        cells = [format(c, f"0{i}b") for c in range(1 << i)]
        below.append(Clopen.from_strings([c for c in cells if c < pref]))
        above.append(Clopen.from_strings([c for c in cells if c > pref]))
    return TieDecomposition(x, d, tuple(below), tuple(above))


def ref_expansion_axiom_check(td, fragment_depth):
    """Chain linearity, orthogonality, then every one of the 2^(2^d)
    fragment elements tested for lying (or its complement lying) under the
    cover, a fragment cell counting as covered when all its refinements are."""
    assert fragment_depth <= min(td.depth, 4)
    for chain in (td.below_chain, td.above_chain):
        for u in chain:
            for v in chain:
                if not (leq(u, v) or leq(v, u)):
                    return False
    for u in td.below_chain:
        for v in td.above_chain:
            if not meet(u, v).is_empty:
                return False
    d = fragment_depth
    fine = clopen_to_mask(join(td.below, td.above), td.depth)
    span = 1 << (td.depth - d)
    block = (1 << span) - 1
    cover = 0
    for i in range(1 << d):
        if (fine >> (i * span)) & block == block:
            cover |= 1 << i
    full = (1 << (1 << d)) - 1
    for mask in range(1 << (1 << d)):
        if mask & ~cover and (full ^ mask) & ~cover:
            return False
    return True


def random_point(rng, max_prefix=5, max_period=3):
    return Point("".join(rng.choice("01") for _ in range(rng.randint(0, max_prefix))),
                 "".join(rng.choice("01") for _ in range(rng.randint(1, max_period))))


def test_canonicalization():
    assert canonical_antichain(["00", "01"]) == frozenset({"0"})
    assert canonical_antichain(["0", "00"]) == frozenset({"0"})
    assert canonical_antichain(["0", "1"]) == frozenset({""})
    assert canonical_antichain(["010", "011", "00", "1"]) == frozenset({""})
    assert canonical_antichain([]) == frozenset()
    with pytest.raises(CanonicalityError):
        Clopen.from_strings(["02"])
    with pytest.raises(CanonicalityError):
        Clopen(frozenset({"0", "00"}))
    with pytest.raises(CanonicalityError):
        Clopen(frozenset({"00", "01"}))


def test_ba_ops_examples():
    u = Clopen.from_strings(["01"])
    assert meet(u, complement(u)) == EMPTY
    assert join(Clopen.from_strings(["0"]), Clopen.from_strings(["1"])) == FULL
    assert leq(Clopen.from_strings(["00"]), Clopen.from_strings(["0"]))
    assert not leq(Clopen.from_strings(["0"]), Clopen.from_strings(["00"]))
    assert complement(EMPTY) == FULL and complement(FULL) == EMPTY


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 255), st.integers(0, 255))
def test_ops_match_cell_oracle(mu, mv):
    d = 3
    u, v = mask_to_clopen(mu, d), mask_to_clopen(mv, d)
    cu, cv = cells_oracle(u, d), cells_oracle(v, d)
    assert cells_oracle(meet(u, v), d) == cu & cv
    assert cells_oracle(join(u, v), d) == cu | cv
    assert cells_oracle(complement(u), d) == cells_oracle(FULL, d) - cu
    assert leq(u, v) == (cu <= cv)
    # canonical-form uniqueness: same cells, same antichain
    assert mask_to_clopen(clopen_to_mask(u, d), d) == u


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 255))
def test_atomlessness(mask):
    d = 3
    u = mask_to_clopen(mask, d)
    w = sorted(u.antichain)[0]
    smaller = Clopen.from_strings([w + "0"])
    assert not smaller.is_empty
    assert leq(smaller, u) and smaller != u


def test_presentation_independence():
    rng = random.Random(4)
    for _ in range(200):
        mask = rng.getrandbits(16)
        u = mask_to_clopen(mask, 4)
        words = list(u.antichain)
        # split random words into their two children; same clopen
        blown = []
        for w in words:
            if rng.random() < 0.5 and len(w) < 6:
                blown += [w + "0", w + "1"]
            else:
                blown.append(w)
        assert Clopen.from_strings(blown) == u


def _outcome(fn, arg):
    """fn(arg), or the type and message of what it raised."""
    try:
        return "value", fn(arg)
    except Exception as e:
        return type(e), str(e)


def _faults(words, canonical=False):
    """The faults in a set of words, by brute force: its non-binary words
    and, unless the words are only to be canonicalized (which takes prefix
    and sibling pairs in its stride), its prefix and sibling pairs."""
    bad = [w for w in words if any(c not in "01" for c in w)]
    if canonical:
        return len(bad)
    prefix = [(v, w) for v in words for w in words if v != w and w.startswith(v)]
    sibling = [w for w in words if w not in bad and w.endswith("0")
               and w[:-1] + "1" in words]
    return len(bad) + len(prefix) + len(sibling)


def _random_word(rng, max_len):
    n = rng.randint(0, max_len)
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def _validate(words):
    Clopen(words)


def _assert_same(fn, oracle, arg, faults):
    got, want = _outcome(fn, arg), _outcome(oracle, arg)
    if faults > 1:  # which fault is reported first follows the set's order
        assert got[0] is want[0] and got[0] != "value", arg
    else:
        assert got == want, arg


def test_canonicalization_matches_the_restarting_scan():
    rng = random.Random(19)
    inputs = [[format(b, f"0{d}b") if d else "" for b in range(1 << d) if mask >> b & 1]
              for d in range(4) for mask in range(1 << (1 << d))]
    inputs += [[format(b, f"0{d}b") for b in range(1 << d) if mask >> b & 1]
               for d in (4, 5) for mask in (rng.getrandbits(1 << d) for _ in range(600))]
    for _ in range(4000):
        words = [_random_word(rng, 5) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.choice([0, 0, 0, 0, 0, 0, 0, 1, 1, 2])):
            words.insert(rng.randint(0, len(words)), rng.choice(["2", "0x", "1a0"]))
        inputs.append(words)
    antichains = []
    for words in inputs:
        faults = _faults(set(words), canonical=True)
        _assert_same(canonical_antichain, canonical_antichain_by_restarts, words, faults)
        if not faults:
            antichains.append(canonical_antichain(words))
    # validation: canonical antichains, each also with one word added, and
    # the raw word sets
    for ac in antichains:
        extra = rng.choice([_random_word(rng, 6), "2", "01x"])
        for words in (ac, ac | {extra}):
            _assert_same(_validate, check_antichain_pairwise, words, _faults(words))
    for words in inputs:
        words = frozenset(words)
        _assert_same(_validate, check_antichain_pairwise, words, _faults(words))


def test_points_and_contains():
    x = parse_point("01^omega")
    assert x.expand(5) == "01010"
    y = parse_point("1(10)^omega")
    assert y.expand(4) == "1101"
    z = parse_point("0^omega")
    assert parse_point(str(z)) == z
    with pytest.raises(CanonicalityError):
        parse_point("0101")
    assert contains(FULL, x) and not contains(EMPTY, x)
    u = Clopen.from_strings(["01"])
    assert contains(u, x)
    assert not contains(u, parse_point("00^omega"))


def test_decompose_frozen_examples():
    td = tie_decompose(parse_point("0^omega"), 2)
    assert td.below == EMPTY
    assert td.above == complement(Clopen.from_strings(["00"]))
    td2 = tie_decompose(parse_point("1^omega"), 2)
    assert td2.above == EMPTY
    assert td2.below == complement(Clopen.from_strings(["11"]))
    td3 = tie_decompose(parse_point("01(0)^omega"), 2)
    assert td3.below == Clopen.from_strings(["00"])
    assert td3.above == Clopen.from_strings(["1"])
    assert join(join(td3.below, td3.above), Clopen.from_strings(["01"])) == FULL
    assert not decomposition_invariant_failures(td3)


def test_chains_increase_and_tightness():
    x = parse_point("0110^omega")
    td = tie_decompose(x, 4)
    for i in range(3):
        assert leq(td.below_chain[i], td.below_chain[i + 1])
        assert leq(td.above_chain[i], td.above_chain[i + 1])
    # the below chain grows strictly exactly where the expansion shows a 1,
    # the above chain where it shows a 0
    bits = x.expand(4)
    for i in range(1, 4):
        strictly_below = td.below_chain[i] != td.below_chain[i - 1]
        strictly_above = td.above_chain[i] != td.above_chain[i - 1]
        assert strictly_below == (bits[i] == "1")
        assert strictly_above == (bits[i] == "0")


def test_true_tie_check_exhaustive_small():
    x = parse_point("010^omega")
    td = tie_decompose(x, 3)
    probes = [mask_to_clopen(m, 3) for m in range(256)]
    rep = true_tie_check(td, probes)
    assert rep["ok"]
    assert rep["checked"] == 128  # exactly the probes missing the point
    with pytest.raises(DepthError):
        true_tie_check(td, [mask_to_clopen(5, 4)])


def test_true_tie_check_detects_corruption():
    x = parse_point("010^omega")
    td = tie_decompose(x, 3)
    # swap a chain element for a clopen containing the point
    bad = TieDecomposition(x, 3, td.below_chain[:-1] + (Clopen.from_strings(["01"]),),
                           td.above_chain)
    probes = [mask_to_clopen(m, 3) for m in range(256)]
    rep = true_tie_check(bad, probes)
    assert not rep["ok"]


def test_bulk_probe_check_matches_operation_route():
    rng = random.Random(9)
    for _ in range(6):
        x = Point("".join(rng.choice("01") for _ in range(4)), "0")
        td = tie_decompose(x, 4)
        checked, bad = bulk_probe_check(td)
        assert (checked, bad) == (32768, 0)
        probes = [mask_to_clopen(rng.getrandbits(16), 4) for _ in range(200)]
        assert true_tie_check(td, probes)["ok"]


def literal_sweep(x, d, below, above):
    """The kernel's count over all 2^(2^d) probe masks, the literal oracle."""
    return _kernels.probe_sweep(1 << (1 << d), int(x.expand(d), 2),
                                clopen_to_mask(below, d), clopen_to_mask(above, d))


def top_only(x, d, below, above):
    """A decomposition whose chains are empty up to the given top elements."""
    return TieDecomposition(x, d, (EMPTY,) * (d - 1) + (below,),
                            (EMPTY,) * (d - 1) + (above,))


def probe_failures(rep):
    return [f for f in rep["failures"] if f["kind"].startswith("probe-")]


def test_true_tie_check_fails_probes_inside_both_sides():
    # every probe through 10 or 11 lies inside below & above
    x = parse_point("0^omega")
    below, above = Clopen.from_strings(["1"]), Clopen.from_strings(["01", "1"])
    td = TieDecomposition(x, 2, (below, below), (above, above))
    assert bulk_probe_check(td) == (8, 6)
    rep = true_tie_check(td, [mask_to_clopen(m, 2) for m in range(16)])
    assert rep["checked"] == 8
    assert [f["kind"] for f in probe_failures(rep)] == ["probe-overlap"] * 6
    assert rep["failures"][0]["kind"] == "orthogonality"


def test_true_tie_check_counts_the_kernel_violations_on_random_triples():
    # half the triples cover every cell but x's, so their violations come
    # from the overlap alone; half are arbitrary masks
    rng = random.Random(47)
    violating = overlap_only = 0
    for k in range(300):
        d = k % 3 + 1
        x = random_point(rng)
        cells, x_bit = 1 << d, int(x.expand(d), 2)
        low, high = rng.getrandbits(cells), rng.getrandbits(cells)
        if k % 2:
            rest = ((1 << cells) - 1) & ~(1 << x_bit)
            low |= rest & ~high
        below, above = mask_to_clopen(low, d), mask_to_clopen(high, d)
        rep = true_tie_check(top_only(x, d, below, above),
                             [mask_to_clopen(m, d) for m in range(1 << cells)])
        kinds = [f["kind"] for f in probe_failures(rep)]
        checked, bad = literal_sweep(x, d, below, above)
        assert (rep["checked"], len(kinds)) == (checked, bad), (str(x), d, low, high)
        violating += bad > 0
        overlap_only += bad > 0 and "probe-cover" not in kinds
    assert violating >= 100 and overlap_only >= 50


def test_probe_certificate_matches_the_literal_sweep_on_every_point():
    # at depth d <= 4 the prefixes of length <= 3 and these periods reach
    # every cell
    for d in range(1, 5):
        for n in range(4):
            for bits in itertools.product("01", repeat=n):
                for period in ("0", "1", "01", "110"):
                    td = tie_decompose(Point("".join(bits), period), d)
                    assert bulk_probe_check(td) == \
                        literal_sweep(td.point, d, td.below, td.above) == \
                        (1 << ((1 << d) - 1), 0)


def test_probe_certificate_matches_the_literal_sweep_on_random_triples():
    # half the triples split the cells other than x's between below and
    # above and flip at most one cell, half are arbitrary masks; overlaps
    # (the meet term) and x's cell inside either set are both common
    rng = random.Random(41)
    failing = passing = x_uncovered = x_in_meet = overlapping = 0
    for k in range(1200):
        d = rng.randint(1, 4)
        x = random_point(rng)
        cells, x_bit = 1 << d, int(x.expand(d), 2)
        full = (1 << cells) - 1
        if k % 2:
            low, high = rng.getrandbits(cells), rng.getrandbits(cells)
        else:
            low = rng.getrandbits(cells) & ~(1 << x_bit)
            high = full & ~low & ~(1 << x_bit)
            if rng.random() < 0.6:
                flip = 1 << rng.randrange(cells)
                low, high = (low ^ flip, high) if rng.random() < 0.5 else (low, high ^ flip)
        below, above = mask_to_clopen(low, d), mask_to_clopen(high, d)
        got = bulk_probe_check(top_only(x, d, below, above))
        assert got == literal_sweep(x, d, below, above), (str(x), d, low, high)
        failing += got[1] > 0
        passing += got[1] == 0
        x_uncovered += not (low | high) >> x_bit & 1
        x_in_meet += (low & high) >> x_bit & 1
        overlapping += (low & high) != 0
    assert failing >= 400 and passing >= 200
    assert min(x_uncovered, x_in_meet, overlapping) >= 100


def test_probe_certificate_past_the_kernel_depth():
    # |B| a second time, as a popcount over the depth-d cell masks; then
    # explicit probes checked by the antichain operations
    rng = random.Random(43)
    verdicts = set()  # (depth, literal rule) over the probes missing x
    for d in range(5, 9):
        cells = 1 << d
        full = (1 << cells) - 1
        for k in range(6):
            td = tie_decompose(random_point(rng, max_prefix=d), d)
            x, x_bit = td.point, int(td.point.expand(d), 2)
            below, above = td.below, td.above
            if k:  # corrupted: flip one cell, or a run of cells, on one side
                start = rng.randrange(cells)
                span = 1 if k % 2 else rng.randint(2, cells - start + 1)
                flip = ((1 << span) - 1) << start & full
                if k < 3:
                    below = mask_to_clopen(clopen_to_mask(below, d) ^ flip, d)
                else:
                    above = mask_to_clopen(clopen_to_mask(above, d) ^ flip, d)
            low, high = clopen_to_mask(below, d), clopen_to_mask(above, d)
            b_mask = (full & ~(low | high) | low & high) & ~(1 << x_bit)
            size = bin(b_mask).count("1")
            half = 1 << (cells - 1)
            assert bulk_probe_check(top_only(x, d, below, above)) == \
                (half, half - (half >> size))
            if not k:
                assert size == 0
                assert bulk_probe_check(td) == (half, 0)
            cover, both = join(below, above), meet(below, above)
            for _ in range(200):
                # a union of one to four cylinders, at most one of them
                # through a cell of B
                words = [format(rng.randrange(cells), f"0{d}b")[:rng.randint(1, d)]
                         for _ in range(rng.randint(1, 4))]
                if b_mask and rng.random() < 0.5:
                    words[0] = format(rng.choice(
                        [i for i in range(cells) if b_mask >> i & 1]), f"0{d}b")
                u = Clopen.from_strings(words)
                if contains(u, x):
                    continue
                rule = leq(u, cover) and meet(u, both).is_empty
                assert (not rule) == (clopen_to_mask(u, d) & b_mask != 0)
                verdicts.add((d, rule))
    assert verdicts == set(itertools.product(range(5, 9), (True, False)))


def test_probe_certificate_refuses_a_chain_deeper_than_the_decomposition():
    x = parse_point("010^omega")
    with pytest.raises(DepthError):
        bulk_probe_check(top_only(x, 2, Clopen.from_strings(["110"]), EMPTY))


def test_tie_point_suite_holds_the_certificate_to_the_literal_sweep(monkeypatch):
    assert checks.check_tie_points(depth=3, seed=8)["ok"]

    def one_more_violation(td):
        checked, bad = bulk_probe_check(td)
        return checked, bad + 1

    monkeypatch.setattr(checks, "bulk_probe_check", one_more_violation)
    r = checks.check_tie_points(depth=3, seed=8)
    assert not r["ok"] and r["cases"] == 8 and len(r["failures"]) == 5  # capped
    assert r["failures"][0]["swept"] == (128, 0)
    assert r["failures"][0]["certificate"] == (128, 1)
    with pytest.raises(BudgetError):
        checks.check_tie_points(depth=6)


def test_expansion_axiom_check_and_mutation():
    td = tie_decompose(parse_point("010^omega"), 3)
    assert expansion_axiom_check(td, 3)
    assert expansion_axiom_check(td, 1)
    # breaking the top chain element leaves uncovered fragment elements
    bad = TieDecomposition(td.point, 3, td.below_chain,
                           td.above_chain[:-1] + (EMPTY,))
    assert not expansion_axiom_check(bad, 3)
    # breaking chain linearity fails the first clause
    scrambled = TieDecomposition(
        td.point, 3,
        (td.below_chain[1], Clopen.from_strings(["10"]), td.below_chain[2]),
        td.above_chain)
    assert not expansion_axiom_check(scrambled, 3)
    for t in (td, bad, scrambled):
        for f in range(4):
            assert expansion_axiom_check(t, f) == ref_expansion_axiom_check(t, f)


def test_expansion_cover_fact_matches_fragment_sweep_on_contract_points():
    for bits in itertools.product("01", repeat=4):
        td = tie_decompose(Point("".join(bits), "0"), 4)
        for f in range(5):
            assert expansion_axiom_check(td, f) == ref_expansion_axiom_check(td, f)


def test_expansion_cover_fact_matches_fragment_sweep_on_random_chains():
    # increasing chains inside two disjoint random cell sets are linear and
    # orthogonal, so the verdict turns on the cover clause alone
    rng = random.Random(13)
    verdicts = set()  # (depth, verdict) at the full fragment depth
    for _ in range(300):
        depth = rng.randint(1, 4)
        cells = (1 << (1 << depth)) - 1
        low = rng.getrandbits(1 << depth)
        high = rng.getrandbits(1 << depth) & ~low & cells
        chains = []
        for region in (low, high):
            chain, mask = [], 0
            for _ in range(depth):
                mask |= region & rng.getrandbits(1 << depth)
                chain.append(mask_to_clopen(mask, depth))
            chains.append(tuple(chain))
        td = TieDecomposition(random_point(rng), depth, *chains)
        for f in range(depth + 1):
            assert expansion_axiom_check(td, f) == ref_expansion_axiom_check(td, f)
        verdicts.add((depth, expansion_axiom_check(td, depth)))
    assert verdicts == set(itertools.product(range(1, 5), (True, False)))


def test_expansion_cover_fact_past_the_sweep_depth():
    rng = random.Random(31)
    for d in range(5, 9):
        for _ in range(8):
            td = tie_decompose(random_point(rng, max_prefix=d), d)
            assert all(expansion_axiom_check(td, f) for f in range(d + 1))
            for side in range(2):
                chains = [td.below_chain, td.above_chain]
                if chains[side][-1].is_empty:
                    continue
                chains[side] = chains[side][:-1] + (EMPTY,)
                assert not expansion_axiom_check(TieDecomposition(td.point, d, *chains), d)


def test_decomposition_matches_cell_enumeration():
    for n in range(7):
        for bits in itertools.product("01", repeat=n):
            for period in ("0", "1"):
                x = Point("".join(bits), period)
                for d in range(max(n, 1), 7):
                    assert tie_decompose(x, d) == ref_tie_decompose(x, d)
    rng = random.Random(17)
    for _ in range(200):
        x, d = random_point(rng), rng.randint(1, 8)
        assert tie_decompose(x, d) == ref_tie_decompose(x, d)


def test_decomposition_invariants_random_deep_points():
    rng = random.Random(21)
    for _ in range(30):
        x, d = random_point(rng), rng.randint(1, 8)
        td = tie_decompose(x, d)
        assert not decomposition_invariant_failures(td)


def test_clopen_operations_suite_at_contract_count():
    # the suite that holds the antichain operations to the cell-mask view
    r = check_clopen_ops(trials=600, seed=12)
    assert r["ok"] and r["cases"] == 600
