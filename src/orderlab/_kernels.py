"""Hot numeric kernels: numba-jitted loops with a pure-numpy fallback.

Two sweeps dominate the exhaustive verification suites: the inequality scan
over every coefficient m up to a factorially large bound, and the
probe-mask scan over all depth-d clopens.  Both are flat integer loops, so
they carry @njit kernels; setting ORDERLAB_PURE_NUMPY=1 (or a failed numba
import) selects the vectorised numpy path instead.  The benchmark's sweep
workload times both kernels.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("ORDERLAB_PURE_NUMPY", "") not in ("", "0")

if not _FORCE_NUMPY:
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - environment dependent
        HAS_NUMBA = False
else:
    HAS_NUMBA = False

ACTIVE_LANE = "numba" if HAS_NUMBA else "numpy"


# --- inequality sweep ---------------------------------------------------------
#
# Count m in [0, m_max] violating (m+1)*e > s + m*e, i.e. e <= s would make
# every m fail while e > s makes every m pass; the sweep still evaluates each
# m literally.  Caller guarantees (m_max+1)*e fits int64.
#
# The numpy lane walks the range in blocks of SWEEP_BLOCK coefficients and
# reuses preallocated block-sized work arrays, so the working set (about
# 1 MB) stays in cache.  The sweep is memory-bound: with blocks of 2^24
# values it runs about four times slower and peaks above 500 MB.

SWEEP_BLOCK = 1 << 15


def _salient_violations_numpy(e, s, m_max):
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


if HAS_NUMBA:
    @njit(cache=True)
    def _salient_violations_numba(e, s, m_max):  # pragma: no cover - jitted
        bad = 0
        for m in range(m_max + 1):
            if (m + 1) * e <= s + m * e:
                bad += 1
        return bad

    def salient_violations(e, s, m_max):
        return int(_salient_violations_numba(np.int64(e), np.int64(s), np.int64(m_max)))
else:
    def salient_violations(e, s, m_max):
        return _salient_violations_numpy(e, s, m_max)


def salient_violations_bigint(e, s, m_max):
    """Plain-integer fallback for values beyond int64; exact but slow."""
    return sum(1 for m in range(m_max + 1) if (m + 1) * e <= s + m * e)


# --- probe-mask sweep -----------------------------------------------------------
#
# Probes are bitmasks over the 2^d cells.  For each probe u that avoids the
# point's cell: u must lie under cover = below|above, split exactly into
# u&below and u&above, and the parts must avoid each other.  Returns
# (number checked, number violating).

def _probe_sweep_numpy_impl(num_probes, x_bit, below, above, chunk=1 << 20):
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


if HAS_NUMBA:
    @njit(cache=True)
    def _probe_sweep_numba(num_probes, x_bit, below, above):  # pragma: no cover
        cover = below | above
        checked = 0
        bad = 0
        for u in range(num_probes):
            if (u >> x_bit) & 1:
                continue
            checked += 1
            lo = u & below
            hi = u & above
            if (u & ~cover) != 0 or (lo | hi) != u or (lo & hi) != 0:
                bad += 1
        return checked, bad

    def probe_sweep(num_probes, x_bit, below, above):
        checked, bad = _probe_sweep_numba(
            np.int64(num_probes), np.int64(x_bit), np.int64(below), np.int64(above))
        return int(checked), int(bad)
else:
    def probe_sweep(num_probes, x_bit, below, above):
        return _probe_sweep_numpy_impl(num_probes, x_bit, below, above)


def probe_sweep_numpy(num_probes, x_bit, below, above):
    """The numpy lane, exposed for the lane-comparison benchmark and tests."""
    return _probe_sweep_numpy_impl(num_probes, x_bit, below, above)


def salient_violations_numpy(e, s, m_max):
    """The numpy lane, exposed for the lane-comparison benchmark and tests."""
    return _salient_violations_numpy(e, s, m_max)
