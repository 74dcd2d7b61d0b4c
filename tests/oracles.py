"""Fixtures and reference loops for the tests; nothing under src/ uses them."""

import itertools

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
