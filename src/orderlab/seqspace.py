"""Truncated bounded sequence spaces and threshold dominance.

A SeqFun is an element of a finite product of initial segments: coordinate k
carries values 0..b(k)-1.  Two bound profiles matter here: the "position"
profile b(k) = max(k, 1), and the fast-growing profile produced by eta, the
target of the weighted-digit map phi.  Coordinate 0 is degenerate in the
position profile; giving it bound 1 (forced value 0) keeps every sequence
total without affecting any dominance comparison.

"For all but finitely many coordinates" is modelled by an explicit threshold
m: a comparison holds from m iff it holds at every coordinate m <= j < N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ProfileError, brief


def position_profile(n):
    """Bounds max(k, 1) for k < n."""
    return tuple(max(k, 1) for k in range(n))


def eta_profile(n):
    """Bounds eta(k) for k < n."""
    return tuple(eta(k) for k in range(n))


@dataclass(frozen=True)
class SeqFun:
    """A sequence respecting a bound profile, a tuple of per-coordinate
    bounds: 0 <= vals[k] < profile[k]."""
    profile: tuple
    vals: tuple

    def __post_init__(self):
        for what, seq in (("bound", self.profile), ("value", self.vals)):
            for k, x in enumerate(seq):
                if type(x) is not int:
                    raise ProfileError(
                        f"{what} {brief(x)} at coordinate {k} is not an integer")
        if any(b < 1 for b in self.profile):
            raise ProfileError("all coordinate bounds must be >= 1")
        if len(self.vals) != len(self.profile):
            raise ProfileError("value count differs from profile length")
        for k, v in enumerate(self.vals):
            if not 0 <= v < self.profile[k]:
                raise ProfileError(f"value {brief(v)} out of bounds at coordinate {k}")

    def __len__(self):
        return len(self.vals)

    def __getitem__(self, k):
        return self.vals[k]

    def to_json_dict(self):
        return {"bounds": list(self.profile), "vals": list(self.vals)}


def position_seq(vals):
    """SeqFun over the position profile max(k, 1)."""
    return SeqFun(position_profile(len(vals)), tuple(vals))


def eta(n):
    """The recursion eta(0) = 1, eta(n+1) = sum_{j<=n} j*eta(j) + 1.

    Consecutive terms differ by n*eta(n), so eta(n+1) = (n+1)*eta(n) and
    eta(n) = n!; the factorial is exact on plain Python integers.
    """
    if n < 0:
        raise ValueError("eta is defined on n >= 0")
    return math.factorial(n)


def phi(f: SeqFun) -> SeqFun:
    """The weighted-digit map: phi(f)(0) = 0 and
    phi(f)(n+1) = sum_{j<=n} f(j)*eta(j).

    Input must live over the position profile; the output lives over the eta
    profile and is one coordinate longer.
    """
    n = len(f)
    if f.profile != position_profile(n):
        raise ProfileError("phi expects the position bound profile max(k, 1)")
    out = [0]
    acc = 0
    for j in range(n):
        acc += f[j] * eta(j)
        out.append(acc)
    return SeqFun(eta_profile(n + 1), tuple(out))


def _shared_length(f: SeqFun, g: SeqFun):
    if f.profile != g.profile:
        raise ProfileError("threshold comparison requires a shared profile")
    return len(f)


def leq_from(f: SeqFun, g: SeqFun, m: int) -> bool:
    """True iff f(j) <= g(j) for all m <= j < N (vacuous when m >= N)."""
    n = _shared_length(f, g)
    return all(f.vals[j] <= g.vals[j] for j in range(max(m, 0), n))


def lt_from(f: SeqFun, g: SeqFun, m: int) -> bool:
    """True iff f(j) < g(j) for all m <= j < N (vacuous when m >= N)."""
    n = _shared_length(f, g)
    return all(f.vals[j] < g.vals[j] for j in range(max(m, 0), n))
