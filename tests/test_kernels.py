"""The blocked numpy inequality sweep against the plain-integer oracle.

With e <= s every coefficient violates, so a coefficient dropped or
counted twice at a block edge, or a block constant ((start+1)*e or
start*e + s) off by one coefficient, changes the count.
"""

import pytest

from orderlab import _kernels, checks
from orderlab.errors import BudgetError
from orderlab.seqspace import eta

BLOCK = _kernels.SWEEP_BLOCK


@pytest.mark.parametrize("width", [
    1, BLOCK - 1,          # less than one block
    BLOCK,                 # exactly one block
    3 * BLOCK,             # a multiple of the block
    3 * BLOCK + 1,         # a multiple plus one
])
@pytest.mark.parametrize("e, s, all_violate", [
    (7, 6, False),   # e > s: every m passes
    (7, 7, True),    # e == s: every m violates
    (3, 11, True),   # e < s: every m violates
    (eta(12), sum(j * eta(j) for j in range(12)), False),  # the n = 12 term
    (2 ** 40 + 1, 2 ** 40, False),  # e = s + 1 at a large e
    (2 ** 40, 2 ** 40, True),
])
def test_blocked_sweep_matches_bigint(width, e, s, all_violate):
    m_max = width - 1
    got = _kernels.salient_violations(e, s, m_max)
    assert got == _kernels.salient_violations_bigint(e, s, m_max)
    assert got == (width if all_violate else 0)


def test_salient_sweep_beyond_int64_is_refused_up_front(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep ran before the refusal")

    monkeypatch.setattr(_kernels, "salient_violations", no_sweep)
    with pytest.raises(BudgetError, match="n = 13"):
        checks.check_salient(13)
