"""Acceptance gate: every contract criterion at its stated budget.

Each criterion runs its suite at its defaults, the contract arguments, and
holds it to its pin in `checks.SUITES`.  Each test prints one pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see them.  Criteria with
stated wall-clock budgets assert them too, timed around the call.
"""

import math
import time

from orderlab import checks
from orderlab.seqspace import eta

PINS = {suite: cases for _, suite, cases in checks.SUITES}


def _gate(number, title, suite, max_seconds=None):
    t0 = time.perf_counter()
    result = suite()
    seconds = time.perf_counter() - t0
    in_budget = max_seconds is None or seconds < max_seconds
    pinned = result["cases"] == PINS[suite]
    status = "PASS" if result["ok"] and in_budget and pinned else "FAIL"
    print(f"{status} criterion {number}: {title} ({seconds:.3f}s)")
    assert result["ok"], result.get("failures")
    assert pinned, f"criterion {number} reported {result['cases']} cases"
    assert in_budget, f"criterion {number} exceeded {max_seconds}s: {seconds:.3f}s"
    return result


def test_criterion_01_strict_increase_exhaustive():
    result = _gate(1, "weighted-digit lift strictly increases (exhaustive, 6 coords)",
                   checks.check_phi_strict_increase, max_seconds=1.0)
    assert result["cases"] == 35970


def test_criterion_02_inequality_all_coefficients():
    result = _gate(2, "recursion inequality for all m <= eta(n), n <= 12",
                   checks.check_salient, max_seconds=5.0)
    assert result["cases"] == sum(eta(n) + 1 for n in range(1, 13))


def test_criterion_03_universal_witness_exhaustive():
    result = _gate(3, "universal-relation witnesses over {0..12}, up to 5 members",
                   checks.check_universal_witness, max_seconds=10.0)
    assert result["cases"] == sum(
        math.comb(13, k) * 2 ** k for k in range(1, 6))


def test_criterion_04_depletion_is_partial_order():
    _gate(4, "10000 random depletions are strict orders inside the ambient one",
          checks.check_depletion_poset, max_seconds=60.0)


def test_criterion_05_monotone_and_convex():
    _gate(5, "index-subset monotonicity and convex agreement",
          checks.check_depletion_monotone)


def test_criterion_06_strictness_fixture():
    _gate(6, "frozen fixture: relation over a subset, not over the full set",
          checks.check_strictness_fixture)


def test_criterion_07_star_equivalence():
    _gate(7, "full-interval criterion matches exhaustive subset search "
             "(500 instances)", checks.check_star_equivalence, max_seconds=120.0)


def test_criterion_08_amalgamation():
    _gate(8, "1000 random valid families amalgamate below every part",
          checks.check_amalgamation)


def test_criterion_09_dense_entry_and_reduction():
    _gate("9a", "dense-set entry, exhaustive to 4 elements / depth 4 "
                "plus 1000 random trials", checks.check_dense_entries)
    _gate("9b", "projection reduction, exhaustive small scale plus 1000 "
                "random trials", checks.check_reduction)


def test_criterion_10_generic_embedding_all_isotypes():
    result = _gate(10, "certified embeddings for all poset types up to 6 elements, "
                       "witnesses past depth 16",
                   checks.check_generic_embedding, max_seconds=60.0)
    assert result["cases"] == 1 + 1 + 2 + 5 + 16 + 63 + 318


def test_criterion_11_pipeline():
    _gate(11, "50 random posets compose through exact-length chain factors",
          checks.check_pipeline)


def test_criterion_12_atomic_double_evaluation():
    _gate(12, "literal double evaluation over 1000 random reduced products",
          checks.check_atomic_los)


def test_criterion_13_true_tie_points():
    _gate(13, "all 16 depth-4 points: orthogonal chain ideals cover every "
              "probe, expansion facts hold", checks.check_tie_points,
          max_seconds=10.0)
