import itertools
import math
import random

import pytest

from orderlab.errors import ProfileError
from orderlab.seqspace import (BoundProfile, SeqFun, eta, eta_profile,
                               eta_table, leq_from, lt_from, phi,
                               position_profile, position_seq, salient_check)


def eta_recursion(n_max):
    # the defining recursion eta(0) = 1, eta(n+1) = sum_{j<=n} j*eta(j) + 1,
    # independent of the closed form the package uses
    vals = [1]
    for n in range(n_max - 1):
        vals.append(sum(j * v for j, v in enumerate(vals)) + 1)
    return vals


def test_eta_frozen_values():
    assert eta(0) == 1
    assert eta(2) == 2
    assert eta(4) == 24
    assert eta_table(5) == [1, 1, 2, 6, 24]
    with pytest.raises(ValueError):
        eta(-1)


def test_eta_matches_independent_oracle():
    # the salient inequality then reads n! > n! - 1
    for n, want in enumerate(eta_recursion(60)):
        assert eta(n) == want == math.factorial(n)
        assert sum(j * eta(j) for j in range(n)) == math.factorial(n) - 1


def test_salient_examples_and_small_exhaustion():
    assert salient_check(0, 1)
    assert salient_check(3, 4)  # 4*24 = 96 > (1+4+18) + 3*24 = 95
    for n in range(1, 13):
        for m in itertools.chain(range(200), [eta(n) - 1, eta(n), eta(n) ** 2]):
            assert salient_check(m, n)
    with pytest.raises(ValueError):
        salient_check(0, 0)


def test_phi_zero_and_frozen_example():
    z = position_seq((0,) * 5)
    assert phi(z).vals == (0,) * 6
    f = position_seq((0, 0, 1, 2))
    assert phi(f).vals == (0, 0, 0, 2, 14)
    assert phi(f).profile == eta_profile(5)


def phi_oracle(vals):
    # direct evaluation of the prefix-weighted sums
    out = [0]
    for n in range(len(vals)):
        out.append(sum(vals[j] * eta(j) for j in range(n + 1)))
    return tuple(out)


def test_phi_maximal_input_stays_under_bounds():
    # the pointwise-maximal sequence: each prefix sum is
    # sum_{2<=j<=n} (j-1)*eta(j), strictly below eta(n+1)
    for n_coords in range(1, 9):
        f = position_seq(tuple(max(k, 1) - 1 for k in range(n_coords)))
        lifted = phi(f)
        assert lifted.vals == phi_oracle(f.vals)
        for k, v in enumerate(lifted.vals):
            assert v < eta(k)


def test_phi_requires_position_profile():
    with pytest.raises(ProfileError):
        phi(SeqFun(BoundProfile((2, 2)), (1, 1)))


def test_bounds_validation():
    with pytest.raises(ProfileError):
        SeqFun(position_profile(3), (0, 1, 0))  # coordinate 1 has bound 1
    with pytest.raises(ProfileError):
        BoundProfile((1, 0))
    assert SeqFun(position_profile(3), (0, 0, 1)).vals == (0, 0, 1)


def test_threshold_comparisons():
    f = position_seq((0, 0, 1))
    g = position_seq((0, 0, 1))
    assert leq_from(f, f, 0)
    assert not lt_from(f, f, 0)
    assert lt_from(f, f, 3)  # vacuous past the end
    g = position_seq((0, 0, 0))
    assert leq_from(g, f, 2) and lt_from(g, f, 2)
    with pytest.raises(ProfileError):
        leq_from(f, position_seq((0, 0)), 0)


def all_position_seqs(n_coords):
    return [tuple(v) for v in itertools.product(
        *[range(max(k, 1)) for k in range(n_coords)])]


def test_strict_increase_exhaustive_small():
    for n_coords in range(1, 7):
        space = all_position_seqs(n_coords)
        lifted = {v: phi_oracle(v) for v in space}
        for fv, gv in itertools.product(space, repeat=2):
            pf, pg = lifted[fv], lifted[gv]
            for n in range(1, n_coords):
                if fv[n] < gv[n]:
                    assert pf[n + 1] < pg[n + 1]
            for m in range(n_coords + 1):
                if all(fv[j] <= gv[j] for j in range(m, n_coords)):
                    for n in range(max(m, 1), n_coords):
                        if fv[n] < gv[n]:
                            assert all(pf[j] < pg[j]
                                       for j in range(n + 1, n_coords + 1))


def test_strict_increase_randomized_wider():
    rng = random.Random(3)
    for _ in range(4000):
        n_coords = rng.randint(2, 10)
        fv = tuple(rng.randrange(max(k, 1)) for k in range(n_coords))
        gv = tuple(rng.randrange(max(k, 1)) for k in range(n_coords))
        m = rng.randint(0, n_coords)
        if not all(fv[j] <= gv[j] for j in range(m, n_coords)):
            continue
        pf = phi(position_seq(fv))
        pg = phi(position_seq(gv))
        for n in range(max(m, 1), n_coords):
            if fv[n] < gv[n]:
                assert lt_from(pf, pg, n + 1)
                break


def test_json_round_trip():
    f = position_seq((0, 0, 1, 2))
    assert SeqFun.from_json_dict(f.to_json_dict()) == f
