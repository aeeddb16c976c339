import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import normalize_ranks, reference_instance_from_dict

from coverpierce import bounds, core, coverage, piercing
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
    dump_chunks,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
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
                                       (True, 5), (0, True), (False, False),
                                       (np.float64(0), 3), (0, np.True_), (np.False_, 1)])
    def test_float_and_bool_bounds_rejected(self, lo, hi):
        with pytest.raises(InstanceError):
            Interval(lo, hi)

    def test_numpy_integer_bounds_become_python_ints(self):
        iv = Interval(np.int64(0), np.uint8(3))
        assert iv == Interval(0, 3)
        assert type(iv.lo) is int and type(iv.hi) is int


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(4).order == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation((2**64 + 1, 1))

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
        assert "".join(dump_chunks(inst)) == text

    def test_piercing_round_trip_is_byte_stable(self):
        text = ('{"problem":"piercing","xdomain":[0,3],"ydomain":[0,3],'
                '"crosses":[{"h":[0,1],"v":[0,1]},{"h":[2,3],"v":[2,3]}]}\n')
        inst = loads_instance(text)
        assert "".join(dump_chunks(inst)) == text

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
        with pytest.raises(InstanceError):
            loads_instance('{"problem":')
        for members in ('"intervals":{}', '"intervals":""'):  # once loaded as no members
            with pytest.raises(InstanceError, match="must be an array"):
                loads_instance('{"problem":"coverage","domain":[0,5],%s}' % members)
        with pytest.raises(InstanceError, match="must be an array"):
            loads_instance('{"problem":"piercing","xdomain":[0,5],"ydomain":[0,5],"crosses":{}}')

    @pytest.mark.parametrize("text", [
        "[" * 100_000, '{"problem":', "", '{"problem": "coverage",}',
    ], ids=["deep", "cut", "empty", "trailing-comma"])
    def test_undecodable_text_raises_instance_error_with_the_decoders_text(self, text):
        # once a RecursionError or a JSONDecodeError
        with pytest.raises((ValueError, RecursionError)) as decoded:
            json.loads(text)
        with pytest.raises(InstanceError) as loaded:
            loads_instance(text)
        assert str(loaded.value) == str(decoded.value)

    @pytest.mark.parametrize("text", [
        '{"problem":"coverage","domain":[0,NaN],"intervals":[]}',
        '{"problem":"coverage","domain":[0,9],"intervals":[[0.5,Infinity]]}',
        '{"problem":"piercing","xdomain":[0,9],"ydomain":[0,9],'
        '"crosses":[{"h":[0,1],"v":[-Infinity,0.5]}]}',
    ])
    def test_non_finite_coordinates_raise_instance_error(self, text):
        # once a bare ValueError from normalize_ranks
        with pytest.raises(InstanceError, match="non-finite coordinate"):
            loads_instance(text)


# --- the columnar loader against the object-by-object reference --------------

EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30, -(10**30), 2**53 + 1,
         -(2**53) - 1, 0.5, -0.5, -0.0, 2.0**53, 2.0**53 + 2, 1e300, -1e300]
finite = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),  # integral floats
    st.integers(-12, 24).map(lambda k: k / 4),  # fractions
    st.sampled_from(EDGES),  # beyond int64, at float's integer limit, -0.0
)
numbers = finite | st.sampled_from([float("nan"), float("inf"), float("-inf")])
coordinates = numbers | st.sampled_from([True, False, None, "5", ""])


def pairs_of(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


clean_pairs = pairs_of(finite)
rough_pairs = st.one_of(
    pairs_of(numbers),
    st.lists(coordinates, min_size=2, max_size=2),  # unordered, or not numbers
    st.lists(finite, max_size=3),  # ragged
    st.lists(coordinates, max_size=3),
    st.lists(st.lists(finite, max_size=2), min_size=2, max_size=2),  # nested
    coordinates,
)


def rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 5


@st.composite
def instance_documents(draw):
    """Instance-like JSON documents: mostly loadable ones, some with rough
    pairs, and a key missing from one in eight."""
    pairs = clean_pairs | rough_pairs if rarely(draw) or rarely(draw) else clean_pairs
    members = st.lists(pairs, max_size=6)
    if draw(st.booleans()):
        doc = {"problem": "coverage", "domain": draw(pairs), "intervals": draw(members)}
    else:
        crosses = st.lists(st.fixed_dictionaries({"h": pairs, "v": pairs}), max_size=6)
        doc = {"problem": "piercing", "xdomain": draw(pairs), "ydomain": draw(pairs),
               "crosses": draw(crosses)}
    if rarely(draw):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if doc.get("crosses") and rarely(draw):
        del draw(st.sampled_from(doc["crosses"]))[draw(st.sampled_from(["h", "v"]))]
    return doc


def load(loader, text):
    """``loader``'s instance_to_dict of the parsed text, or its error's class and message."""
    try:
        return instance_to_dict(loader(json.loads(text)))
    except ValueError as exc:  # InstanceError is a ValueError
        return type(exc), str(exc)


class TestColumnarLoader:
    @settings(max_examples=400, deadline=None)
    @given(instance_documents())
    @example({"problem": "coverage", "domain": [0.5, 10**400],
              "intervals": [[0.5, 3], [2, 10**400]]})
    @example({"problem": "coverage", "domain": [-0.0, 2.0], "intervals": [[-0.0, 1.5]]})
    @example({"problem": "piercing", "xdomain": [0, 2**63], "ydomain": [0, 1],
              "crosses": [{"h": [0, 1], "v": [0, 1]}]})
    @example({"problem": "coverage", "domain": [0, 2**53 + 1], "intervals": [[0.5, 2**53]]})
    @example({"problem": "coverage", "domain": [0, 9], "intervals": [[0.5, float("nan")]]})
    @example({"problem": "coverage", "domain": [0, 5], "intervals": [[0, 1, 2], [3]]})
    @example({"problem": "coverage", "domain": [0, 5], "intervals": [[0, 1], [4, 3]]})
    @example({"problem": "piercing", "xdomain": [0, 9], "ydomain": [0, 9],
              "crosses": [{"h": [0, 1], "v": [0, 1]}, {"h": [2, 2.5], "v": [3, 2]}]})
    def test_matches_the_object_by_object_reference(self, doc):
        text = json.dumps(doc)  # NaN and Infinity pass through
        assert load(instance_from_dict, text) == load(reference_instance_from_dict, text)

    def test_bools_are_not_coordinates(self):
        # numpy takes a bool for an int without complaint
        assert np.array([True, 1], dtype=np.int64).tolist() == [1, 1]
        for doc in [
            {"problem": "coverage", "domain": [True, 1], "intervals": []},
            {"problem": "coverage", "domain": [0, 5], "intervals": [[0, True]]},
            {"problem": "coverage", "domain": [0.5, 5], "intervals": [[False, 1.5]]},
            {"problem": "piercing", "xdomain": [0, 5], "ydomain": [0, 5],
             "crosses": [{"h": [0, 1], "v": [False, 1]}]},
        ]:
            with pytest.raises(InstanceError, match="bool"):
                loads_instance(json.dumps(doc))

    def test_axes_beyond_int64_hold_python_ints(self):
        # the largest int64 stays int64; an axis once became Python ints there
        for top, dtype in ((2**63, object), (2**63 - 1, np.int64)):
            inst = loads_instance(json.dumps({
                "problem": "piercing", "xdomain": [0, top], "ydomain": [0, 9],
                "crosses": [{"h": [1, 2], "v": [3, 4]}]}))
            assert inst.h.dtype == dtype and inst.v.dtype == np.int64
            assert [type(v) for v in inst.h.ravel()] == [int if dtype is object else np.int64] * 2
            assert not inst.h.flags.writeable and not inst.v.flags.writeable

    def test_crosses_beyond_int64_on_one_axis_leave_the_other_int64(self):
        # built from Cross objects, both axes once became Python ints
        inst = PiercingInstance(Interval(0, 2**70), Interval(0, 5),
                                [Cross(Interval(0, 2**70), Interval(0, 1))])
        assert inst.h.dtype == object and inst.v.dtype == np.int64
        loaded = loads_instance("".join(dump_chunks(inst)))
        assert loaded == inst and loaded.v.dtype == np.int64

    def test_a_domain_beyond_int64_makes_its_axis_python_ints(self, monkeypatch):
        # the bulk envelopes would seed their int64 aggregates with the y-domain ends
        n = piercing.BULK_MIN_N
        crosses = [Cross(Interval(k, k + 1), Interval(k, k + 1)) for k in range(n)]
        insts = [PiercingInstance(Interval(0, n), Interval(0, top), crosses)
                 for top in (2**63, 2**63 - 1)]
        assert [(inst.h.dtype, inst.v.dtype) for inst in insts] == [
            (np.int64, object), (np.int64, np.int64)]
        verdicts = [piercing.solve_piercing(inst) for inst in insts]
        monkeypatch.setattr(piercing, "BULK_MIN_N", n + 1)
        assert verdicts == [piercing.solve_piercing(inst) for inst in insts]

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 5])
    def test_dump_is_json_dumps_of_the_dict_across_chunks(self, rows, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 2)
        big = 10**30
        dom = Interval(-big, big)
        ivs = [Interval(-k, k * big) for k in range(rows)]
        crosses = [Cross(Interval(-k, k), Interval(k, big)) for k in range(rows)]
        small = [Interval(-k, 2 * k) for k in range(rows)]
        for inst in (CoverageInstance(dom, ivs), CoverageInstance(Interval(-9, 9), small),
                     PiercingInstance(dom, Interval(0, big), crosses),
                     PiercingInstance(Interval(-9, 9), Interval(-9, 9),
                                      [Cross(iv, iv) for iv in small])):
            text = "".join(dump_chunks(inst))
            assert text == json.dumps(instance_to_dict(inst), separators=(",", ":")) + "\n"
            assert instance_to_dict(loads_instance(text)) == instance_to_dict(inst)


class TestColumnConstructors:
    """``ends=``, ``h=`` and ``v=`` take what :class:`Interval` takes: ints only."""

    @pytest.mark.parametrize("column", [
        np.array([[0.0, 1.5], [1.5, 3.0]]),  # was written as [[0,1],[1,3]]
        np.array([[0.0, 1.0]]),
        np.array([[False, True]]),  # was the gap (0, True)
        np.array([[0, 1, 2]]),
        np.array([0, 1]),
        np.zeros((1, 2, 1), dtype=np.int64),
        np.array([[0, True]], dtype=object),
        np.array([[0, 1.0]], dtype=object),
        np.array([[0, np.int64(1)]], dtype=object),
        [[0, 1]],
    ], ids=["fractional", "float", "bool", "three-wide", "1-D", "3-D", "object-bool",
            "object-float", "object-numpy-int", "list"])
    def test_rejects_anything_but_n_by_2_ints(self, column):
        dom, good = Interval(0, 3), np.array([[0, 1]])
        with pytest.raises(InstanceError):
            CoverageInstance(dom, ends=column)
        with pytest.raises(InstanceError):
            PiercingInstance(dom, dom, h=column, v=good)
        with pytest.raises(InstanceError):
            PiercingInstance(dom, dom, h=good, v=column)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_the_instance_owns_its_columns(self, dtype):
        # an int64 column was once frozen and kept: the caller's array became read-only
        e = np.array([[0, 1], [1, 3]], dtype=dtype)
        dom = Interval(0, 3)
        cover, inst = CoverageInstance(dom, ends=e), PiercingInstance(dom, dom, h=e, v=e)
        assert e.flags.writeable
        for column in (cover.ends, inst.h, inst.v):
            assert column is not e and not column.flags.writeable
        e[0] = [2, 3]
        assert cover.ends.tolist() == inst.h.tolist() == inst.v.tolist() == [[0, 1], [1, 3]]

    @pytest.mark.parametrize("top, dtype", [(2**63 - 1, np.int64), (2**63, object)],
                             ids=["2^63-1", "2^63"])
    def test_an_axis_is_int64_exactly_when_its_numbers_fit(self, top, dtype):
        # an axis once became Python ints at 2^63 - 1, where the sweep added 1 to a b
        low = Interval(0, 1)
        # a value or a domain end at top; the last member escapes its domain
        for domain, iv in [(Interval(0, top), Interval(0, top)),
                           (Interval(0, top), low), (low, Interval(0, top))]:
            arm, rest = np.array([[iv.lo, iv.hi]], dtype=dtype), np.array([[0, 1]])
            doc = {"problem": "piercing", "xdomain": [domain.lo, domain.hi], "ydomain": [0, 1],
                   "crosses": [{"h": [iv.lo, iv.hi], "v": [0, 1]}]}
            columns = [CoverageInstance(domain, ends=arm).ends,
                       CoverageInstance(domain, [iv]).ends,
                       PiercingInstance(domain, low, h=arm, v=rest).h,
                       PiercingInstance(low, domain, h=rest, v=arm).v,
                       PiercingInstance(domain, low, [Cross(iv, low)]).h,
                       PiercingInstance(low, domain, [Cross(low, iv)]).v,
                       loads_instance(json.dumps(doc)).h]
            for column in columns:
                assert column.dtype == dtype and column.tolist() == [[iv.lo, iv.hi]]
            assert all(column.dtype == np.int64 for column in (
                PiercingInstance(domain, low, h=arm, v=rest).v,
                PiercingInstance(domain, low, [Cross(iv, low)]).v))

    def test_members_are_given_one_way(self):
        # a lone v= once built an empty instance, which pierces, and members given
        # both ways kept the columns and dropped the objects without a word
        dom, arr = Interval(0, 3), np.array([[0, 1]])
        for members in ([], [Cross(dom, dom)]):
            with pytest.raises(TypeError, match="both"):
                PiercingInstance(dom, dom, members, h=arr, v=arr)
        for members in ([], [dom]):
            with pytest.raises(TypeError, match="both"):
                CoverageInstance(dom, members, ends=arr)
        for lone in ({"h": arr}, {"v": arr}):  # as a missing column does
            with pytest.raises(InstanceError, match="got NoneType"):
                PiercingInstance(dom, dom, **lone)

    def test_rejects_arms_of_different_counts(self):
        dom = Interval(0, 3)
        with pytest.raises(InstanceError):
            PiercingInstance(dom, dom, h=np.zeros((2, 2), dtype=np.int64),
                             v=np.zeros((3, 2), dtype=np.int64))

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 5]], []])
    def test_object_ints_that_fit_become_int64(self, rows):
        # once kept as objects, which took the slower Python-int bulk paths
        dom = Interval(0, 5)
        column = np.array(rows, dtype=object).reshape(-1, 2)
        cover = CoverageInstance(dom, ends=column)
        inst = PiercingInstance(dom, dom, h=column, v=column)
        for ends in (cover.ends, inst.h, inst.v):
            assert ends.dtype == np.int64 and ends.shape == (len(rows), 2)
            assert ends.tolist() == column.tolist()

    def test_object_ints_beyond_int64_stay_exact(self):
        big = 10**30
        wide = np.array([[0, big - 1], [big - 1, big]], dtype=object)
        narrow = np.array([[0, 1], [1, 5]], dtype=object)
        cover = CoverageInstance(Interval(0, big), ends=wide)
        inst = PiercingInstance(Interval(0, big), Interval(0, 5), h=wide, v=narrow)
        for ends in (cover.ends, inst.h):
            assert ends.dtype == object and ends.tolist() == [[0, big - 1], [big - 1, big]]
            assert all(type(e) is int for e in ends.ravel().tolist())
        assert inst.v.dtype == np.int64 and inst.v.tolist() == narrow.tolist()

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32, np.uint64])
    def test_other_integer_widths_become_int64_or_python_ints(self, dtype, monkeypatch):
        # a cast to int64 would wrap a uint64 beyond int64 silently
        top = int(np.iinfo(dtype).max)
        column = np.array([[0, top], [top - 1, top], [1, 1]], dtype=dtype)
        dom = Interval(0, top)
        inst = PiercingInstance(dom, dom, h=column, v=column[::-1])
        cover = CoverageInstance(dom, ends=column)
        for ends in (inst.h, inst.v, cover.ends):
            assert ends.dtype == (np.int64 if top < 2**63 else object)
            assert all(type(e) is int for e in ends.ravel().tolist())
        assert inst.h.tolist() == cover.ends.tolist() == column.tolist()
        monkeypatch.setattr(piercing, "BULK_MIN_N", 0)
        crosses = [Cross(Interval(*h), Interval(*v))
                   for h, v in zip(column.tolist(), column[::-1].tolist())]
        assert (piercing.solve_piercing(inst)
                == piercing.solve_piercing(PiercingInstance(dom, dom, crosses)))


@pytest.mark.parametrize("call, expected", [
    (lambda: bounds.lb_union(-1), ValueError("negative size")),
    (lambda: next(bounds.run_bench(["disjoint"], [1], trials=-1)),
     ValueError("negative trial count -1")),
    (lambda: validate("x"), TypeError("not an instance: 'x'")),
    (lambda: instance_to_dict(Interval(0, 1)), TypeError("not an instance")),
    (lambda: next(dump_chunks(None)), TypeError("not an instance: None")),
    (lambda: coverage.gen_disjoint(0), ValueError("disjoint family needs N >= 1")),
    (lambda: coverage.gen_random_coverage(-1, np.random.RandomState(0)),
     ValueError("negative size")),
    (lambda: piercing.gen_staircase_literal(8, Permutation.identity(9)),
     ValueError("permutation size 9 != 8")),
    (lambda: repr(CoverageInstance(Interval(0, 2), [Interval(0, 1)])),
     "CoverageInstance(domain=Interval(lo=0, hi=2), intervals=(Interval(lo=0, hi=1),))"),
], ids=["lb_union", "run_bench", "validate", "instance_to_dict", "dump_chunks",
        "gen_disjoint", "gen_random_coverage", "gen_staircase_literal", "coverage-repr"])
def test_rejected_arguments_and_repr(call, expected):
    """Each call raises the expected error, with its message, or returns the value."""
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(type(expected), match=re.escape(str(expected))):
        call()


@pytest.mark.parametrize("call, size", [
    (lambda: coverage.gen_random_coverage(2.5, np.random.RandomState(0)), 2.5),
    (lambda: piercing.gen_random_piercing(2.0, np.random.RandomState(0)), 2.0),
    (lambda: piercing.gen_staircase_minimal(5.0), 5.0),
    (lambda: piercing.gen_staircase_literal(8.0), 8.0),
    (lambda: bounds.lb_union(2.5), 2.5),
    (lambda: bounds.lb_piercing(4.0), 4.0),
    (lambda: bounds.lb_union_ceil(3.0), 3.0),
    (lambda: bounds.generate_instance("chain", 4.0, 1), 4.0),
    (lambda: coverage.gen_disjoint(2.5), 2.5),
    (lambda: coverage.gen_disjoint(True), True),
], ids=["gen_random_coverage", "gen_random_piercing", "gen_staircase_minimal",
        "gen_staircase_literal", "lb_union", "lb_piercing", "lb_union_ceil",
        "generate_instance-chain", "gen_disjoint-float", "gen_disjoint-bool"])
def test_a_size_must_be_an_integer(call, size):
    # each once reached range() or numpy: TypeError, IndexError, or for
    # gen_disjoint(2.5) an InstanceError about 5.0, a value never passed
    with pytest.raises(InstanceError, match=re.escape(f"expected an integer, got {size!r}")):
        call()
