import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import checks
from orderlab.checks import check_embed_roundtrip
from orderlab.errors import AsymmetryError, DisjointnessError
from orderlab.posets import RelStructure
from orderlab.universal import _INT_POSITIONS as INT_POSITIONS
from orderlab.universal import (Rel, SparseNat, as_nat, embed_structure, rel,
                                ternary_digit, verify_embedding, witness,
                                witness_above)

from oracles import universal_witness_failures


def test_rel_frozen_examples():
    assert rel(5, 5) is Rel.UNRELATED
    # 16 = 1 + 2*3 + 9: digits 1, 2, 1
    assert rel(0, 16) is Rel.FORWARD
    assert rel(1, 16) is Rel.BACKWARD
    assert rel(2, 16) is Rel.FORWARD
    assert rel(1, 9) is Rel.UNRELATED
    assert rel(16, 0) is Rel.BACKWARD  # swapped arguments flip the direction


def test_rel_asymmetric_irreflexive_sampled():
    rng = random.Random(5)
    for _ in range(3000):
        m = rng.randrange(3 ** 12)
        n = rng.randrange(3 ** 12)
        r = rel(m, n)
        back = rel(n, m)
        if m == n:
            assert r is Rel.UNRELATED
        elif r is Rel.FORWARD:
            assert back is Rel.BACKWARD
        elif r is Rel.BACKWARD:
            assert back is Rel.FORWARD
        else:
            assert back is Rel.UNRELATED


def test_witness_frozen_examples():
    assert witness({0, 2}, {1}) == 16
    assert witness({0}, set()) == 1
    assert witness(set(), {0}) == 2
    with pytest.raises(DisjointnessError):
        witness({1, 2}, {2})


def test_witness_above_frozen_examples():
    assert witness_above({0}, set(), 9) == 1 + 3 ** 10
    assert witness_above({0, 2}, {1}, 0) == 16 + 3 ** 3
    n = witness_above({0, 2}, {1}, 0)
    assert rel(0, n) is Rel.FORWARD
    assert rel(1, n) is Rel.BACKWARD
    assert rel(2, n) is Rel.FORWARD
    assert n > 0


def test_witness_property_small_sweep():
    base = range(9)
    for k in range(1, 4):
        for members in itertools.combinations(base, k):
            for pick in range(1 << k):
                f_set = {m for i, m in enumerate(members) if pick >> i & 1}
                g_set = set(members) - f_set
                n = witness(f_set, g_set)
                for m in base:
                    if m in f_set:
                        assert rel(m, n) is Rel.FORWARD
                    elif m in g_set:
                        assert rel(m, n) is Rel.BACKWARD
                    elif m < n:
                        assert rel(m, n) is Rel.UNRELATED


def drop_one_g_digit(f_set, g_set):
    return witness(f_set, sorted(g_set)[1:])


def misreport_position_2(m, n):
    r = rel(m, n)
    return Rel.BACKWARD if m == 2 and r is Rel.UNRELATED else r


@pytest.mark.parametrize("wit, rl, ok", [
    (witness, rel, True),
    (drop_one_g_digit, rel, False),
    (witness, misreport_position_2, False),
])
def test_universal_witness_suite_matches_member_loop(monkeypatch, wit, rl, ok):
    calls = []

    def counted(m, n):
        calls.append((m, n))
        return rl(m, n)

    monkeypatch.setattr(checks, "witness", wit)
    monkeypatch.setattr(checks, "rel", counted)
    got = checks.check_universal_witness(6, 3)
    suite_calls = list(calls)
    calls.clear()
    cases, failures = universal_witness_failures(6, 3, wit, counted)
    assert got["ok"] is ok and got["cases"] == cases == 232
    assert got.get("failures", []) == failures[:5]
    assert suite_calls == calls  # the same rel calls, in the same order


def test_rel_and_witness_beyond_the_power_table():
    # a plain int above 2^64 has digit positions past the 3^m table
    assert rel(100, 3 ** 200 + 3 ** 100) is Rel.FORWARD
    assert rel(3 ** 200 + 2 * 3 ** 100, 100) is Rel.FORWARD
    assert rel(64, 3 ** 64) is Rel.FORWARD and rel(63, 2 * 3 ** 63) is Rel.BACKWARD
    # what the int lane refuses, it refuses as before
    for args, error, message in (
            (([True], []), ValueError, "naturals only"),
            (([1.0], []), ValueError, "naturals only"),
            (([-1], []), ValueError, "naturals only"),
            (([1], [1]), DisjointnessError, "overlap"),
            (([1, 1], []), ValueError, "duplicate positions"),
            (([], [2, 2]), ValueError, "duplicate positions"),
            # a bool or float equal to an int position is refused as such,
            # not read as a duplicate of it or an overlap with it
            (([1, True], []), ValueError, "naturals only"),
            (([0], [False]), ValueError, "naturals only"),
            (([2], [2.0]), ValueError, "naturals only"),
            (([3, 3.0], [1]), ValueError, "naturals only")):
        with pytest.raises(error, match=message):
            witness(*args)


def rel_by_digits(m, n):
    """rel by its definition: the base-3 digit of the larger number at the
    position of the smaller."""
    if m < n:
        return (Rel.UNRELATED, Rel.FORWARD, Rel.BACKWARD)[n // 3 ** m % 3]
    if n < m:
        return (Rel.UNRELATED, Rel.BACKWARD, Rel.FORWARD)[m // 3 ** n % 3]
    return Rel.UNRELATED


def test_rel_matches_the_digit_definition_around_powers_of_three():
    # m + 1 and 2^m - 1 put m at or above n.bit_length(); m runs past the
    # 3^m table, which ends at 63
    for m in range(71):
        for n in (3 ** m - 1, 3 ** m, 2 * 3 ** m, 3 ** (m + 1) - 1,
                  m + 1, 2 ** m - 1):
            assert rel(m, n) is rel_by_digits(m, n), (m, n)
            assert rel(n, m) is rel_by_digits(n, m), (n, m)


def test_witness_lanes_agree_around_the_int_positions():
    edge = [0, INT_POSITIONS - 2, INT_POSITIONS - 1, INT_POSITIONS, INT_POSITIONS + 1]
    for k in range(1, 4):
        for members in itertools.combinations(edge, k):
            for pick in range(1 << k):
                f_set = [m for i, m in enumerate(members) if pick >> i & 1]
                g_set = [m for m in members if m not in f_set]
                want = witness([SparseNat.from_int(x) for x in f_set],
                               [SparseNat.from_int(x) for x in g_set])
                assert witness(f_set, g_set) == want, (f_set, g_set)


def test_sparse_nat_agrees_with_ints():
    rng = random.Random(9)
    for _ in range(500):
        a = rng.randrange(3 ** 10)
        b = rng.randrange(3 ** 10)
        sa, sb = as_nat(a), as_nat(b)
        assert (sa < sb) == (a < b)
        assert (sa == sb) == (a == b)
        assert int(sa) == a
        for pos in range(11):
            assert sa.digit_at(pos) == (a // 3 ** pos) % 3
        assert int(sa.successor()) == a + 1
        assert int(sa.add_power(12)) == a + 3 ** 12


def test_ternary_digit_large_position():
    assert ternary_digit(10, 100) == 0
    assert ternary_digit(3 ** 40 + 2 * 3 ** 5, 40) == 1
    assert ternary_digit(3 ** 40 + 2 * 3 ** 5, 5) == 2


def random_asym_structure(rng, n, density=0.3):
    pairs = []
    seen = set()
    for i in range(n):
        for j in range(n):
            if i != j and (j, i) not in seen and rng.random() < density:
                pairs.append((i, j))
                seen.add((i, j))
    return RelStructure.from_pairs(range(n), pairs)


def test_embed_singleton_and_two_chain():
    s = RelStructure.from_pairs([0], [])
    images = embed_structure(s)
    assert verify_embedding(s, images)
    s2 = RelStructure.from_pairs([0, 1], [(0, 1)])
    images2 = embed_structure(s2)
    assert rel(images2[0], images2[1]) is Rel.FORWARD
    assert verify_embedding(s2, images2)


def test_embed_random_roundtrip_thousand_trials():
    rng = random.Random(17)
    for _ in range(1000):
        s = random_asym_structure(rng, rng.randint(1, 8))
        assert verify_embedding(s, embed_structure(s))


def test_embed_full_chain_tower_values():
    # a chain forces digit positions at the previous images, so the values
    # grow like a tower of 3; the sparse support keeps them exact
    s = RelStructure.from_pairs(range(8), [(i, j) for i in range(8)
                                           for j in range(i + 1, 8)])
    images = embed_structure(s)
    assert verify_embedding(s, images)
    assert isinstance(images[7], SparseNat)
    with pytest.raises(OverflowError):
        int(images[7])


def test_images_strictly_increasing():
    rng = random.Random(23)
    for _ in range(50):
        s = random_asym_structure(rng, 6)
        images = embed_structure(s)
        imgs = [as_nat(images[x]) for x in s.universe]
        assert all(a < b for a, b in zip(imgs, imgs[1:]))


def test_structure_asymmetry_error():
    with pytest.raises(AsymmetryError):
        RelStructure.from_pairs([0, 1], [(0, 1), (1, 0)])


# --- the plain-int lane against the sparse lane ----------------------------------

def test_negative_inputs_rejected():
    for call in (lambda: witness([-1], []), lambda: witness([], [3, -2]),
                 lambda: rel(-1, 3), lambda: rel(3, -1), lambda: rel(-1, -1),
                 lambda: rel(-1, as_nat(3)), lambda: ternary_digit(-1, 3),
                 lambda: ternary_digit(5, -1), lambda: ternary_digit(as_nat(5), -1),
                 lambda: witness_above([], [], -3)):
        with pytest.raises(ValueError, match="naturals only"):
            call()


def test_non_integer_inputs_rejected():
    for call in (lambda: witness([1.5], []), lambda: witness([], [2, 0.5]),
                 lambda: witness([1.5], [1.5]), lambda: witness(["1"], []),
                 lambda: rel(1.0, 4), lambda: rel(4, 1.0), lambda: rel(2.5, 2.5),
                 lambda: rel(1.5, as_nat(3)), lambda: witness_above([1.5], [], 3),
                 lambda: witness_above([], [], 2.0), lambda: ternary_digit(5.0, 1),
                 lambda: SparseNat([(0.5, 1)]), lambda: SparseNat.from_int(1.5),
                 # bool is an int subclass; as in every id list, not a natural
                 lambda: rel(True, 3), lambda: rel(3, False), lambda: rel(True, as_nat(3)),
                 lambda: witness([True], []), lambda: witness([], [0, False]),
                 lambda: witness_above([0], [1], True), lambda: ternary_digit(3, True),
                 lambda: ternary_digit(True, 0), lambda: SparseNat([(True, 1)]),
                 lambda: SparseNat.from_int(True)):
        with pytest.raises(ValueError, match="naturals only"):
            call()
    # a digit must be an int, even when it equals 1 or 2
    for call in (lambda: SparseNat([(2, 2.0)]), lambda: SparseNat([(0, True)]),
                 lambda: SparseNat([(0, False)]), lambda: SparseNat([(1, 0.0)]),
                 lambda: SparseNat([(0, None)]), lambda: SparseNat([(0, 3)])):
        with pytest.raises(ValueError, match="digits must be 1 or 2"):
            call()
    assert SparseNat([(4, 0), (1, 2)]).support == ((1, 2),)  # int 0 is dropped


def test_witness_duplicates_and_overlap_on_both_lanes():
    for wrap in (int, SparseNat.from_int):
        with pytest.raises(ValueError, match="duplicate"):
            witness([wrap(1), wrap(1)], [wrap(2)])
        with pytest.raises(ValueError, match="duplicate"):
            witness([wrap(1)], [wrap(2), wrap(2)])
        with pytest.raises(DisjointnessError):
            witness([wrap(1), wrap(2)], [wrap(2)])


def ternary_digits(v):
    f_set, g_set, pos = [], [], 0
    while v:
        v, d = divmod(v, 3)
        (f_set if d == 1 else g_set if d == 2 else []).append(pos)
        pos += 1
    return f_set, g_set


def test_int_lane_boundary():
    # positions below 40 take the int lane; the value decides the type
    assert type(witness([39], [])) is int
    assert type(witness([], [39])) is int  # 2 * 3^39 < 2^63
    assert isinstance(witness([40], []), SparseNat)
    below = witness(*ternary_digits(2 ** 63 - 1))
    at = witness(*ternary_digits(2 ** 63))
    assert type(below) is int and below == 2 ** 63 - 1
    assert isinstance(at, SparseNat) and at == 2 ** 63 and at.small() is None
    assert SparseNat.from_int(2 ** 63 - 1).small() == 2 ** 63 - 1
    assert SparseNat.from_int(2 ** 63).small() is None
    assert type(witness_above([], [], 38)) is int  # 3^39
    assert witness_above([], [], 39) == 3 ** 40
    assert isinstance(witness_above([], [], 39), SparseNat)


def test_witness_int_lane_matches_sparse_lane():
    # SparseNat positions force the sparse construction
    checked = 0
    for k in range(1, 5):
        for members in itertools.combinations(range(10), k):
            for pick in range(1 << k):
                f_set = [m for i, m in enumerate(members) if pick >> i & 1]
                g_set = [m for m in members if m not in f_set]
                got = witness(f_set, g_set)
                want = witness([SparseNat.from_int(x) for x in f_set],
                               [SparseNat.from_int(x) for x in g_set])
                assert type(got) is int and type(want) is int
                assert got == want
                checked += 1
    assert checked == sum(len(list(itertools.combinations(range(10), k))) << k
                          for k in range(1, 5))


def test_rel_int_lane_matches_sparse_lane():
    dirs_up = (Rel.UNRELATED, Rel.FORWARD, Rel.BACKWARD)
    for m in range(3 ** 5):
        sm = SparseNat.from_int(m)
        for n in range(3 ** 5):
            sn = SparseNat.from_int(n)
            got = rel(m, n)
            assert got is rel(sm, sn) is rel(m, sn) is rel(sm, n)
            if m < n:  # read the digit off the sparse support itself
                assert got is dirs_up[sn.digit_at(m)]


# values at the edges of the int lane and of the small form
EDGES = [0, 1, 2, 3 ** 39, 3 ** 40, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
         2 * 3 ** 39, 3 ** 40 - 1, 2 ** 64, 3 ** 41 + 7]
values = st.one_of(st.sampled_from(EDGES), st.integers(0, 3 ** 12),
                   st.integers(2 ** 63 - 3 ** 6, 2 ** 63 + 3 ** 6),
                   st.integers(2 ** 63, 3 ** 60))


def lifted(v):
    """v as a SparseNat whose positions are SparseNats too."""
    return SparseNat([(SparseNat.from_int(p), d)
                      for p, d in SparseNat.from_int(v).support])


def wrapped(v, how):
    return (v, SparseNat.from_int(v), lifted(v))[how]


@settings(max_examples=400, deadline=None)
@given(values, values, st.integers(0, 2), st.integers(0, 2))
def test_mixed_comparisons_match_ints(va, vb, how_a, how_b):
    a, b = wrapped(va, how_a), wrapped(vb, how_b)
    assert (a == b) == (va == vb)
    assert (a != b) == (va != vb)
    assert (a < b) == (va < vb)
    assert (a <= b) == (va <= vb)
    assert (a > b) == (va > vb)
    assert hash(a) == hash(va)
    assert (a in {vb}) == (va == vb)


def chain_images(perm):
    """embed_structure on the 5-element chain perm[0] < ... < perm[4]."""
    s = RelStructure.from_pairs(range(5), [(perm[i], perm[j]) for i in range(5)
                                           for j in range(i + 1, 5)])
    images = embed_structure(s)
    assert verify_embedding(s, images)
    return [images[x] for x in s.universe]


def materialised(x):
    """The plain int value of x, or None for a tower."""
    if not isinstance(x, SparseNat):
        return x
    total = 0
    for p, d in x.support:
        p = materialised(p)
        if p is None or p > 10 ** 4:
            return None
        total += d * 3 ** p
    return total


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(5)), values, st.integers(0, 2))
def test_tower_comparisons(perm, v, how):
    images = chain_images(perm)
    assert any(materialised(x) is None for x in images)
    other = wrapped(v, how)
    for i, x in enumerate(images):
        rebuilt = SparseNat(as_nat(x).support)
        assert rebuilt == x and hash(rebuilt) == hash(x)
        xv = materialised(x)
        if xv is None:
            assert x != other and other < x and not x < other
        else:
            assert (x == other) == (xv == v) and (x < other) == (xv < v)
            assert hash(x) == hash(xv)
        for j, y in enumerate(images):  # images increase with the id
            assert (x < y) == (i < j) and (x == y) == (i == j)


def test_embed_images_golden_digest():
    # recorded before the int lane: exact images of 200 seeded structures
    # from check_embed_roundtrip's generator, 370 of them SparseNats
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        s = random_asym_structure(rng, rng.randint(1, 8))
        images = embed_structure(s)
        images = [images[x] for x in s.universe]
        h.update(json.dumps([x.describe() if isinstance(x, SparseNat) else x
                             for x in images], sort_keys=True,
                            separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == (
        "495e682d2449c26792513b171d8a97571b124f62c7e26424cbc96b674e6b7b4a")


def test_embed_roundtrip_suite_at_contract_count():
    r = check_embed_roundtrip(trials=1000, seed=11)
    assert r["ok"] and r["cases"] == 1000
