"""Acceptance gate: every contract criterion at its stated budget.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  Criteria with stated wall-clock budgets assert them too.
"""

import math

from orderlab import checks
from orderlab.seqspace import eta


def _gate(number, title, result, max_seconds=None):
    in_budget = max_seconds is None or result["elapsed_s"] < max_seconds
    status = "PASS" if result["ok"] and in_budget else "FAIL"
    timing = f" ({result['elapsed_s']}s)"
    print(f"{status} criterion {number}: {title}{timing}")
    assert result["ok"], result.get("failures")
    if max_seconds is not None:
        assert result["elapsed_s"] < max_seconds, \
            f"criterion {number} exceeded {max_seconds}s: {result['elapsed_s']}s"


def test_criterion_01_strict_increase_exhaustive():
    result = checks.check_phi_strict_increase(n_coords=6)
    assert result["cases"] == 35970
    _gate(1, "weighted-digit lift strictly increases (exhaustive, 6 coords)",
          result, max_seconds=1.0)


def test_criterion_02_inequality_all_coefficients():
    result = checks.check_salient(n_max=12)
    assert result["cases"] == sum(eta(n) + 1 for n in range(1, 13))
    _gate(2, "recursion inequality for all m <= eta(n), n <= 12",
          result, max_seconds=5.0)


def test_criterion_03_universal_witness_exhaustive():
    result = checks.check_universal_witness(universe=13, max_size=5)
    assert result["cases"] == sum(
        math.comb(13, k) * 2 ** k for k in range(1, 6))
    _gate(3, "universal-relation witnesses over {0..12}, up to 5 members",
          result, max_seconds=10.0)


def test_criterion_04_depletion_is_partial_order():
    result = checks.check_depletion_poset(trials=10000, seed=0)
    assert result["cases"] == 10000
    _gate(4, "10000 random depletions are strict orders inside the ambient one",
          result, max_seconds=60.0)


def test_criterion_05_monotone_and_convex():
    result = checks.check_depletion_monotone(trials=4000, seed=1)
    assert result["cases"] == 4000
    _gate(5, "index-subset monotonicity and convex agreement", result)


def test_criterion_06_strictness_fixture():
    result = checks.check_strictness_fixture()
    assert result["cases"] == 2  # the fixture's two relation checks
    _gate(6, "frozen fixture: relation over a subset, not over the full set",
          result)


def test_criterion_07_star_equivalence():
    result = checks.check_star_equivalence(trials=500, seed=2, max_labels=6)
    assert result["cases"] == 3482
    _gate(7, "full-interval criterion matches exhaustive subset search "
             "(500 instances)", result, max_seconds=120.0)


def test_criterion_08_amalgamation():
    result = checks.check_amalgamation(trials=1000, seed=3)
    assert result["cases"] == 1000
    _gate(8, "1000 random valid families amalgamate below every part", result)


def test_criterion_09_dense_entry_and_reduction():
    entry = checks.check_dense_entries(exhaustive_n=4, max_depth=4,
                                       trials=1000, seed=4)
    assert entry["cases"] == 2657486
    _gate("9a", "dense-set entry, exhaustive to 4 elements / depth 4 "
                "plus 1000 random trials", entry)
    reduction = checks.check_reduction(exhaustive_n=4, max_depth=3,
                                       trials=1000, seed=5)
    assert reduction["cases"] == 247228
    _gate("9b", "projection reduction, exhaustive small scale plus 1000 "
                "random trials", reduction)


def test_criterion_10_generic_embedding_all_isotypes():
    result = checks.check_generic_embedding(max_n=6, budget=16)
    assert result["cases"] == 1 + 1 + 2 + 5 + 16 + 63 + 318
    _gate(10, "certified embeddings for all poset types up to 6 elements, "
              "witnesses past depth 16", result, max_seconds=60.0)


def test_criterion_11_pipeline():
    result = checks.check_pipeline(trials=50, seed=6, max_n=5)
    assert result["cases"] == 50
    _gate(11, "50 random posets compose through exact-length chain factors",
          result)


def test_criterion_12_atomic_double_evaluation():
    result = checks.check_atomic_los(trials=1000, seed=7)
    assert result["cases"] == 20463
    _gate(12, "literal double evaluation over 1000 random reduced products",
          result)


def test_criterion_13_true_tie_points():
    result = checks.check_tie_points(depth=4, seed=8)
    assert result["cases"] == 16
    _gate(13, "all 16 depth-4 points: orthogonal chain ideals cover every "
              "probe, expansion facts hold", result, max_seconds=10.0)
