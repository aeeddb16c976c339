import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coverpierce.core import (
    ContainmentViolation,
    CoverageInstance,
    Cross,
    DegenerateInterval,
    InstanceError,
    Interval,
    Permutation,
    PiercingInstance,
    QueryCounter,
    dumps_instance,
    instance_to_dict,
    loads_instance,
    normalize_ranks,
    validate,
)


class TestCountedCompare:
    def test_less(self):
        c = QueryCounter()
        assert c.compare(3, 5) == "<"
        assert c.comparisons == 1

    def test_equal(self):
        c = QueryCounter()
        assert c.compare(4, 4) == "="
        assert c.comparisons == 1

    def test_greater(self):
        c = QueryCounter()
        assert c.compare(7, 2) == ">"
        assert c.comparisons == 1

    def test_histogram_sums_to_comparisons(self):
        c = QueryCounter()
        for x, y in [(1, 2), (2, 2), (3, 2), (0, 9)]:
            c.compare(x, y)
        assert sum(c.outcome_histogram.values()) == c.comparisons == 4
        assert c.outcome_histogram == {"<": 2, "=": 1, ">": 1}

    @given(st.integers(), st.integers())
    def test_never_misreports_order(self, x, y):
        c = QueryCounter()
        outcome = c.compare(x, y)
        expected = "<" if x < y else (">" if x > y else "=")
        assert outcome == expected
        assert c.comparisons == 1


class TestNormalizeRanks:
    def test_dense_ranking(self):
        rank_map, k = normalize_ranks([10.5, 3, 3, 7])
        assert rank_map == {3: 0, 7: 1, 10.5: 2}
        assert k == 2

    def test_identity(self):
        rank_map, k = normalize_ranks([0, 1, 2])
        assert rank_map == {0: 0, 1: 1, 2: 2}
        assert k == 2

    def test_singleton(self):
        assert normalize_ranks([5]) == ({5: 0}, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normalize_ranks([1.0, float("inf")])
        with pytest.raises(ValueError):
            normalize_ranks([float("nan")])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1))
    def test_order_preserved_and_idempotent(self, raw):
        rank_map, k = normalize_ranks(raw)
        ranks = [rank_map[v] for v in raw]
        for i in range(len(raw)):
            for j in range(len(raw)):
                assert (raw[i] < raw[j]) == (ranks[i] < ranks[j])
                assert (raw[i] == raw[j]) == (ranks[i] == ranks[j])
        again, k2 = normalize_ranks(ranks)
        assert k2 == k
        assert all(again[r] == r for r in ranks)


class TestValidate:
    def test_accepts_contained(self):
        inst = CoverageInstance(Interval(0, 5), [Interval(0, 2), Interval(1, 4)])
        assert validate(inst) is inst

    def test_containment_violation(self):
        inst = CoverageInstance(Interval(0, 5), [Interval(0, 6)])
        with pytest.raises(ContainmentViolation):
            validate(inst)

    def test_strict_rejects_degenerate_only(self):
        inst = CoverageInstance(Interval(0, 5), [Interval(2, 2)])
        assert validate(inst) is inst
        with pytest.raises(DegenerateInterval):
            validate(inst, strict=True)

    def test_piercing_validation(self):
        dom = Interval(0, 3)
        good = PiercingInstance(dom, dom, [Cross(Interval(0, 1), Interval(0, 1))])
        assert validate(good) is good
        bad = PiercingInstance(dom, dom, [Cross(Interval(0, 4), Interval(0, 1))])
        with pytest.raises(ContainmentViolation):
            validate(bad)

    def test_interval_orientation_rejected(self):
        with pytest.raises(InstanceError):
            Interval(3, 1)

    @pytest.mark.parametrize("lo,hi", [(0.5, 1), (0, 3.0), (0.0, 3.0),
                                       (True, 5), (0, True), (False, False)])
    def test_float_and_bool_bounds_rejected(self, lo, hi):
        with pytest.raises(InstanceError):
            Interval(lo, hi)


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(4).order == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))

    @pytest.mark.parametrize("order", [(1.9, 2.2, 3), (1.0, 2.0), (True, 2), (2, False)])
    def test_rejects_floats_and_bools(self, order):
        # int() once truncated (1.9, 2.2, 3) to the permutation (1, 2, 3)
        with pytest.raises(InstanceError):
            Permutation(order)

    def test_accepts_numpy_integers(self):
        perm = Permutation(tuple(np.array([2, 1, 3])))
        assert perm.order == (2, 1, 3)
        assert all(type(i) is int for i in perm.order)

    def test_parity(self):
        assert Permutation((3, 2, 1, 4)).preserves_parity()
        assert not Permutation((2, 1, 3, 4)).preserves_parity()


class TestInstanceJson:
    def test_coverage_round_trip_is_byte_stable(self):
        text = '{"problem":"coverage","domain":[0,5],"intervals":[[0,2],[1,4],[3,5]]}\n'
        inst = loads_instance(text)
        assert dumps_instance(inst) == text

    def test_piercing_round_trip_is_byte_stable(self):
        text = ('{"problem":"piercing","xdomain":[0,3],"ydomain":[0,3],'
                '"crosses":[{"h":[0,1],"v":[0,1]},{"h":[2,3],"v":[2,3]}]}\n')
        inst = loads_instance(text)
        assert dumps_instance(inst) == text

    def test_decimals_are_rank_normalized(self):
        inst = loads_instance(
            '{"problem":"coverage","domain":[0,2.5],"intervals":[[0,1.25],[1.25,2.5]]}')
        assert inst.domain == Interval(0, 2)
        assert inst.intervals == (Interval(0, 1), Interval(1, 2))

    def test_integral_floats_become_ints(self):
        inst = loads_instance(
            '{"problem":"coverage","domain":[0.0,5.0],"intervals":[[1.0,4.0]]}')
        assert instance_to_dict(inst) == {
            "problem": "coverage", "domain": [0, 5], "intervals": [[1, 4]]}

    def test_huge_integers_are_ranked_exactly(self):
        # float(10**400) once raised OverflowError, beside a fraction or not
        big = 10**400
        inst = loads_instance(json.dumps({
            "problem": "piercing", "xdomain": [0.5, big], "ydomain": [0, big],
            "crosses": [{"h": [big - 1, big], "v": [0, big - 1]}]}))
        assert inst.xdomain == Interval(0, 2)
        assert inst.crosses[0].h == Interval(1, 2)
        assert inst.ydomain == Interval(0, big)
        assert inst.crosses[0].v == Interval(0, big - 1)

    def test_malformed_object_rejected(self):
        with pytest.raises(InstanceError):
            loads_instance('{"problem":"coverage","domain":[0,5]}')
        with pytest.raises(InstanceError):
            loads_instance('{"problem":"sudoku"}')
        with pytest.raises(json.JSONDecodeError):
            loads_instance('{"problem":')
