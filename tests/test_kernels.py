"""The blocked numpy inequality sweep against the plain-integer oracle.

With e <= s every coefficient violates, so a coefficient dropped or
counted twice at a block edge changes the count.
"""

import pytest

from orderlab import _kernels

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
])
def test_blocked_sweep_matches_bigint(width, e, s, all_violate):
    m_max = width - 1
    got = _kernels.salient_violations(e, s, m_max)
    assert got == _kernels.salient_violations_bigint(e, s, m_max)
    assert got == (width if all_violate else 0)
