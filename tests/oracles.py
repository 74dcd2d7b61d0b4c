"""Fixtures and reference loops for the tests; nothing under src/ uses them."""

import itertools

from orderlab.errors import CanonicalityError
from orderlab.fol import FiniteStructure
from orderlab.universal import Rel


def linear_order_structure(n, name="R"):
    """The strict linear order 0 < 1 < ... < n-1 as a structure."""
    tuples = [(i, j) for i in range(n) for j in range(n) if i < j]
    return FiniteStructure(range(n), {name: (2, tuples)})


def universal_witness_failures(universe, max_size, witness, rel):
    """The case count and the failures of check_universal_witness, with the
    expected direction decided member by member through frozenset tests:
    the suite's loop before it compared whole direction lists."""
    failures = []
    cases = 0
    base = list(range(universe))
    for k in range(1, max_size + 1):
        for members in itertools.combinations(base, k):
            for pick in range(1 << k):
                f_set = frozenset(m for i, m in enumerate(members) if pick >> i & 1)
                g_set = frozenset(members) - f_set
                n = witness(f_set, g_set)
                cases += 1
                ok = n < 3 ** universe
                for m in base:
                    if m in f_set:
                        want = Rel.FORWARD
                    elif m in g_set:
                        want = Rel.BACKWARD
                    elif m < n:
                        want = Rel.UNRELATED
                    else:
                        continue  # nothing is prescribed about larger numbers
                    if rel(m, n) is not want:
                        ok = False
                for m in (universe, universe + 5, n - 1):
                    if universe <= m < n and rel(m, n) is not Rel.UNRELATED:
                        ok = False
                if not ok:
                    failures.append({"F": sorted(f_set), "G": sorted(g_set), "n": n})
    return cases, failures


def _check_word(w):
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise CanonicalityError(f"not a binary word: {w!r}")


def _sibling(w):
    return w[:-1] + ("1" if w[-1] == "0" else "0")


def canonical_antichain_by_restarts(words):
    """canonical_antichain as a scan that restarts after every sibling merge
    (quadratic in the antichain): the body before it became one pass over
    the sorted words."""
    words = set(words)
    for w in words:
        _check_word(w)
    words = {w for w in words
             if not any(w[:k] in words for k in range(len(w)))}
    merged = True
    while merged:
        merged = False
        for w in words:
            if w and _sibling(w) in words:
                words.discard(w)
                words.discard(_sibling(w))
                words.add(w[:-1])
                merged = True
                break
    return frozenset(words)


def check_antichain_pairwise(antichain):
    """Clopen's validation comparing every pair of words: the body before it
    compared neighbours in sorted order."""
    for w in antichain:
        _check_word(w)
        for v in antichain:
            if w != v and v.startswith(w):
                raise CanonicalityError("antichain contains a prefix pair")
        if w and _sibling(w) in antichain:
            raise CanonicalityError("antichain contains a sibling pair")
