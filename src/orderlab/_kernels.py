"""Hot numeric kernels as vectorised numpy loops.

Two sweeps dominate the exhaustive verification suites: the inequality scan
over every coefficient m up to a factorially large bound, and the
probe-mask scan over all depth-d clopens.  Both are flat integer loops over
int64/uint32 arrays.  The benchmark's sweep workload times both kernels.

Each kernel imports numpy when it runs, not when this module loads: numpy
costs a process 60-110 ms and about 14 MB (2 vCPU, numpy 2.4.6), and no
request outside the two sweeps uses it.
"""

from __future__ import annotations


# --- inequality sweep ---------------------------------------------------------
#
# Count m in [0, m_max] violating (m+1)*e > s + m*e, i.e. e <= s would make
# every m fail while e > s makes every m pass; the sweep still evaluates each
# m literally.
#
# The sweep walks the range in blocks of SWEEP_BLOCK coefficients and reuses
# preallocated block-sized work arrays, so the working set (about 1 MB)
# stays in cache.  The sweep is memory-bound: with blocks of 2^24 values it
# runs about four times slower and peaks above 500 MB, and blocks of 2^14 or
# 2^16 are slower than 2^15.  Each block makes four array passes: (m+1)*e as
# the precomputed row i*e plus the block constant (start+1)*e, s + m*e as the
# same row plus the block constant start*e + s, the comparison and the count.
#
# The int64 arithmetic is exact as long as (m_max+1)*e and s + m_max*e fit,
# since every value formed, the two block constants included, is at most one
# of the two (start <= m_max): check_salient refuses any term where (e+1)*e
# or s + e*e reaches 2^62 before it sweeps m up to m_max = e.

SWEEP_BLOCK = 1 << 15


def salient_violations(e, s, m_max):
    import numpy as np

    width = min(SWEEP_BLOCK, m_max + 1)
    row = np.arange(width, dtype=np.int64) * np.int64(e)  # i*e for i < width
    lhs = np.empty(width, dtype=np.int64)
    rhs = np.empty(width, dtype=np.int64)
    hit = np.empty(width, dtype=np.bool_)
    bad = 0
    for start in range(0, m_max + 1, SWEEP_BLOCK):
        k = min(SWEEP_BLOCK, m_max + 1 - start)
        i_e = row[:k]
        left = np.add(i_e, np.int64((start + 1) * e), out=lhs[:k])  # (m+1)*e
        right = np.add(i_e, np.int64(start * e + s), out=rhs[:k])  # s + m*e
        bad += int(np.count_nonzero(np.less_equal(left, right, out=hit[:k])))
    return bad


def salient_violations_bigint(e, s, m_max):
    """Plain-integer reference for the blocked sweep, used by the tests;
    exact but slow."""
    return sum(1 for m in range(m_max + 1) if (m + 1) * e <= s + m * e)


# --- probe-mask sweep -----------------------------------------------------------
#
# Probes are bitmasks over the 2^d cells.  A probe u that avoids the point's
# cell must lie under below|above and miss below&above.  Returns (number
# checked, number violating).

def probe_sweep(num_probes, x_bit, below, above):
    import numpy as np

    chunk = 1 << 20
    checked = 0
    bad = 0
    start = 0
    while start < num_probes:
        stop = min(num_probes, start + chunk)
        u = np.arange(start, stop, dtype=np.uint32)
        misses_x = (u >> np.uint32(x_bit)) & np.uint32(1) == 0
        checked += int(np.count_nonzero(misses_x))
        outside = (u & np.uint32(~(below | above) & 0xFFFFFFFF)) != 0
        overlap = (u & np.uint32(below & above)) != 0
        bad += int(np.count_nonzero(misses_x & (outside | overlap)))
        start = stop
    return checked, bad
