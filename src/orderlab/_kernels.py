"""Hot numeric kernels as vectorised numpy loops.

Two sweeps dominate the exhaustive verification suites: the inequality scan
over every coefficient m up to a factorially large bound, and the
probe-mask scan over all depth-d clopens.  Both are flat integer loops over
int64/uint32 arrays.  The benchmark's sweep workload times both kernels.
"""

from __future__ import annotations

import numpy as np


# --- inequality sweep ---------------------------------------------------------
#
# Count m in [0, m_max] violating (m+1)*e > s + m*e, i.e. e <= s would make
# every m fail while e > s makes every m pass; the sweep still evaluates each
# m literally.  Caller guarantees (m_max+1)*e fits int64.
#
# The sweep walks the range in blocks of SWEEP_BLOCK coefficients and reuses
# preallocated block-sized work arrays, so the working set (about 1 MB)
# stays in cache.  The sweep is memory-bound: with blocks of 2^24 values it
# runs about four times slower and peaks above 500 MB.

SWEEP_BLOCK = 1 << 15


def salient_violations(e, s, m_max):
    e64 = np.int64(e)
    s64 = np.int64(s)
    width = min(SWEEP_BLOCK, m_max + 1)
    offsets = np.arange(width, dtype=np.int64)
    m = np.empty(width, dtype=np.int64)
    prod = np.empty(width, dtype=np.int64)
    lhs = np.empty(width, dtype=np.int64)
    hit = np.empty(width, dtype=np.bool_)
    bad = 0
    for start in range(0, m_max + 1, SWEEP_BLOCK):
        k = min(SWEEP_BLOCK, m_max + 1 - start)
        mk = np.add(offsets[:k], np.int64(start), out=m[:k])
        t = np.multiply(mk, e64, out=prod[:k])
        left = np.add(t, e64, out=lhs[:k])
        right = np.add(t, s64, out=mk)
        bad += int(np.count_nonzero(np.less_equal(left, right, out=hit[:k])))
    return bad


def salient_violations_bigint(e, s, m_max):
    """Plain-integer fallback for values beyond int64; exact but slow."""
    return sum(1 for m in range(m_max + 1) if (m + 1) * e <= s + m * e)


# --- probe-mask sweep -----------------------------------------------------------
#
# Probes are bitmasks over the 2^d cells.  For each probe u that avoids the
# point's cell: u must lie under cover = below|above, split exactly into
# u&below and u&above, and the parts must avoid each other.  Returns
# (number checked, number violating).

def probe_sweep(num_probes, x_bit, below, above):
    chunk = 1 << 20
    cover = below | above
    checked = 0
    bad = 0
    start = 0
    while start < num_probes:
        stop = min(num_probes, start + chunk)
        u = np.arange(start, stop, dtype=np.uint32)
        misses_x = (u >> np.uint32(x_bit)) & np.uint32(1) == 0
        checked += int(np.count_nonzero(misses_x))
        outside = (u & np.uint32(~cover & 0xFFFFFFFF)) != 0
        lo = u & np.uint32(below)
        hi = u & np.uint32(above)
        bad_split = (lo | hi) != u
        bad_orth = (lo & hi) != 0
        bad += int(np.count_nonzero(misses_x & (outside | bad_split | bad_orth)))
        start = stop
    return checked, bad
