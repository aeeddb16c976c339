"""The benchmark's verdict checker against the library's brute-force oracles."""

import numpy as np
import pytest

from coverpierce import core
from coverpierce.coverage import oracle_coverage
from coverpierce.piercing import gen_staircase_minimal, oracle_piercing
from perfbench.checker import (
    check_coverage,
    check_piercing,
    check_verdict,
    covers,
    piercing_point,
)
from perfbench.workloads import to_arrays


def _arm(rng, lo, hi):
    a, b = sorted(rng.randint(lo, hi + 1, size=2))
    return core.Interval(int(a), int(b))


def random_piercing(rng):
    n = rng.randint(0, 8)
    xd = core.Interval(0, int(rng.randint(0, 7)))
    yd = core.Interval(0, int(rng.randint(0, 7)))
    crosses = [core.Cross(_arm(rng, xd.lo, xd.hi), _arm(rng, yd.lo, yd.hi)) for _ in range(n)]
    return core.PiercingInstance(xd, yd, crosses)


def random_coverage(rng):
    n = rng.randint(0, 7)
    dom = core.Interval(0, int(rng.randint(0, 8)))
    return core.CoverageInstance(dom, [_arm(rng, dom.lo, dom.hi) for _ in range(n)])


def test_piercing_agrees_with_oracle():
    rng = np.random.RandomState(20261017)
    for _ in range(3000):
        inst = random_piercing(rng)
        arrays = to_arrays(inst, fractional=False)
        truth = oracle_piercing(inst)
        point = piercing_point(arrays)
        assert (point is not None) == truth.pierceable, inst
        if truth.pierceable:
            assert check_piercing(arrays, True, truth.witness) is None
            assert check_piercing(arrays, True, point) is None
            assert check_piercing(arrays, False, None) is not None
        else:
            assert check_piercing(arrays, False, None) is None
            assert check_piercing(arrays, True, (arrays.x0, arrays.y0)) is not None


@pytest.mark.parametrize("n", range(3, 40))
def test_staircases_are_minimal_nonpierceable(n):
    arrays = to_arrays(gen_staircase_minimal(n, verify=False), fractional=False)
    assert piercing_point(arrays) is None
    for i in range(n):
        assert piercing_point(arrays.without(i)) is not None


def test_coverage_agrees_with_oracle():
    rng = np.random.RandomState(1109)
    for _ in range(3000):
        inst = random_coverage(rng)
        arrays = to_arrays(inst, fractional=False)
        truth = oracle_coverage(inst)
        assert covers(arrays) == truth.covered, inst
        if truth.covered:
            assert check_coverage(arrays, True, None) is None
            assert check_coverage(arrays, False, (arrays.lo0, arrays.hi0)) is not None
        else:
            assert check_coverage(arrays, False, truth.gap_witness) is None
            assert check_coverage(arrays, True, None) is not None


def test_malformed_verdicts_are_rejected_not_raised():
    arrays = to_arrays(core.PiercingInstance(core.Interval(0, 3), core.Interval(0, 3), [
        core.Cross(core.Interval(0, 1), core.Interval(0, 1))]), fractional=False)
    for verdict in ({}, {"queries": "7", "pierceable": True},
                    {"queries": 3, "pierceable": "yes"},
                    {"queries": 3, "pierceable": True, "witness": [1]},
                    {"queries": 3, "pierceable": True, "witness": ["x", None]},
                    {"queries": 3, "pierceable": True, "witness": [3, 3]}):
        assert check_verdict(arrays, verdict) is not None
    assert check_verdict(arrays, {"queries": 3, "pierceable": True, "witness": [1, 3]}) is None


def test_fractional_files_are_checked_in_rank_space():
    inst = core.CoverageInstance(core.Interval(0, 10), [core.Interval(0, 4), core.Interval(6, 10)])
    arrays = to_arrays(inst, fractional=True)
    assert (arrays.lo0, arrays.hi0) == (0, 3)
    assert check_coverage(arrays, False, (1, 2)) is None
