import itertools
import random

import numpy as np
from hypothesis import given, strategies as st

from coverpierce import sorting
from coverpierce.core import QueryCounter, _dense_ranks, _int_array
from coverpierce.coverage import BULK_MIN_N
from coverpierce.sorting import (
    _merge_sort_bulk,
    _merge_sort_scalar,
    merge_sort_counted,
    merge_unique_counted,
)


def apply_order(items, order):
    return [items[i] for i in order]


def test_two_elements_one_comparison():
    c = QueryCounter()
    assert merge_sort_counted([2, 1], c) == (1, 0)
    assert c.comparisons == 1


def test_sorted_four_within_budget():
    c = QueryCounter()
    assert merge_sort_counted([1, 2, 3, 4], c) == (0, 1, 2, 3)
    assert c.comparisons <= 8  # n*N with N=4, n=2


def test_random_1024_within_ten_n():
    rng = random.Random(7)
    items = [rng.randrange(10**6) for _ in range(1024)]
    c = QueryCounter()
    assert apply_order(items, merge_sort_counted(items, c)) == sorted(items)
    assert c.comparisons <= 10 * 1024


def test_exhaustive_small_permutations():
    for n in range(0, 7):
        for perm in itertools.permutations(range(n)):
            order = merge_sort_counted(list(perm), QueryCounter())
            assert apply_order(list(perm), order) == sorted(perm)


def test_stability_on_equal_keys():
    items = [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e")]
    keys = [k for k, _ in items]
    tags = [items[i][1] for i in merge_sort_counted(keys, QueryCounter())]
    assert tags == ["b", "d", "a", "c", "e"]


@given(st.lists(st.integers(min_value=0, max_value=9)))
def test_matches_reference_sort_and_is_stable(items):
    order = merge_sort_counted(items, QueryCounter())
    # stable sort of positions is the unique answer for (key, position) pairs
    expected = sorted(range(len(items)), key=lambda i: (items[i], i))
    assert list(order) == expected


def test_budget_at_powers_of_two():
    rng = random.Random(13)
    for n in range(1, 13):
        N = 2**n
        for items in ([rng.randrange(N) for _ in range(N)],
                      list(range(N)), list(range(N, 0, -1))):
            c = QueryCounter()
            merge_sort_counted(items, c)
            assert c.comparisons <= n * N


def test_counter_accumulates_across_sorts():
    c = QueryCounter()
    merge_sort_counted([3, 1, 2], c)
    first = c.comparisons
    merge_sort_counted([5, 4], c)
    assert c.comparisons == first + 1


def sort_and_tally(sort, keys):
    c = QueryCounter()
    order = sort(keys, c)
    return tuple(int(i) for i in order), (c.lt, c.eq, c.gt)


def column(keys):
    """``keys`` as the bulk sort takes them: an int64 column when they fit it,
    else an object column of the keys themselves."""
    if all(type(k) is int for k in keys):
        return _int_array(keys)
    return np.array(keys, dtype=object)


small_keys = st.integers(min_value=0, max_value=5)
wide_keys = st.integers(min_value=-(10**30), max_value=10**30)
key_lists = st.one_of(
    st.lists(small_keys, max_size=300),  # heavy ties
    st.lists(wide_keys, max_size=300),  # ints beyond int64
    st.lists(st.integers(min_value=2**63 - 3, max_value=2**63 + 3), max_size=300),
    st.builds(lambda k, n: [k] * n, wide_keys, st.integers(0, 300)),  # all equal
    st.lists(small_keys, max_size=300).map(sorted),
    st.lists(wide_keys, max_size=300).map(lambda v: sorted(v, reverse=True)),
    st.lists(st.text(max_size=2), max_size=300),  # not ints at all
)


@given(key_lists)
def test_bulk_matches_scalar_merge(keys):
    # the bulk routine is called directly, so its tiny columns are covered too
    expected = sort_and_tally(_merge_sort_scalar, keys)
    assert sort_and_tally(_merge_sort_bulk, column(keys)) == expected
    assert sort_and_tally(_merge_sort_bulk, np.array(keys, dtype=object)) == expected


def test_bulk_matches_scalar_merge_on_edge_lists():
    for n in range(0, 70):
        for keys in ([0] * n, list(range(n)), list(range(n, 0, -1)),
                     [i % 3 for i in range(n)], [10**30 - i % 2 for i in range(n)],
                     [-(2**63) + i % 4 for i in range(n)]):
            assert sort_and_tally(_merge_sort_bulk, column(keys)) == sort_and_tally(_merge_sort_scalar, keys)


def boundary_columns():
    """Int64 columns for the bulk sort: ties, full-range keys, and spans on
    both sides of the packing limit."""
    sizes = sorted({1, 2} | {(1 << k) + d for k in range(1, 11) for d in (-1, 0, 1)})
    rng = np.random.RandomState(11)
    columns = [keys for n in sizes
               for keys in (np.zeros(n, dtype=np.int64), rng.randint(0, 3, size=n),
                            rng.randint(-(2**63), 2**63 - 1, size=n, dtype=np.int64),
                            np.arange(n)[::-1].copy())]

    def spanning(span, n):  # n keys from 0 to span - 1 last, ties among them
        inner = rng.randint(0, span, size=n - 2, dtype=np.int64)
        return np.concatenate(([0], inner[:n // 2], inner[:n - 2 - n // 2], [span - 1]))

    # (max - min + 1) * n at 2^63 - 1 = 7 * 1317624576693539401 (packed), at 2^63
    # and 2^63 + 6, where (max - min) * n + n - 1 passes the largest int64
    # (ranked), from 0 and from the least int64, whose keys are all negative
    ends = [-(2**63), 2**63 - 1]
    for keys in (spanning((2**63 - 1) // 7, 7), spanning((2**63 - 1) // 7 + 1, 7),
                 spanning(2**63 // 8, 8), spanning(2**63 // 1024, 1024)):
        columns += [keys, keys + ends[0]]
    columns += [np.array(ends * 3 + [0, -1, 1], dtype=np.int64), np.array([-5]),
                np.array([-3] * 5), np.array(ends[:1] * 4), np.array(ends[1:] * 9)]
    return columns


def test_bulk_order_is_numpys_stable_argsort():
    # an int64 column of a narrow span is sorted as packed codes, any other
    # as the packed codes of its dense ranks
    for keys in boundary_columns():
        for col in (keys, np.array([int(k) + 10**30 for k in keys], dtype=object)):
            order, tallies = sort_and_tally(_merge_sort_bulk, col)
            assert order == tuple(np.argsort(keys, kind="stable").tolist())
            assert (order, tallies) == sort_and_tally(_merge_sort_scalar, col.tolist())


def test_only_columns_too_wide_to_pack_are_ranked(monkeypatch):
    ranked = []

    def spy(values):
        ranked.append(values)
        return _dense_ranks(values)

    monkeypatch.setattr(sorting, "_dense_ranks", spy)
    spans = set()
    for keys in boundary_columns():
        span = (int(keys.max()) - int(keys.min()) + 1) * len(keys)
        spans.add(span)
        _merge_sort_bulk(keys, QueryCounter())
        assert [r is keys for r in ranked] == ([True] if span >= 2**63 else [])
        ranked.clear()
        col = np.array([int(k) + 10**30 for k in keys], dtype=object)
        _merge_sort_bulk(col, QueryCounter())
        assert [r is col for r in ranked] == [True]
        ranked.clear()
    assert {2**63 - 1, 2**63, 2**63 + 6} <= spans  # the packing limit, and just past it


def test_dense_ranks_are_uniques_inverse():
    rng = np.random.RandomState(3)
    huge = [int(k) * 10**30 + 1 for k in rng.randint(-3, 3, size=100)]
    for values in (rng.randint(-5, 5, size=200), rng.randint(-5, 5, size=200) / 4,
                   np.array(huge, dtype=object),
                   np.array(["b", "a", "ab", "", "b", "a", "ab"], dtype=object),
                   np.zeros(0, dtype=np.int64), np.zeros(0), np.array([], dtype=object),
                   np.full(9, 7), np.full(5, 2.5), np.array([10**30] * 4, dtype=object)):
        ranks = _dense_ranks(values)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == np.unique(values, return_inverse=True)[1].tolist()


def test_crossover_both_sides(monkeypatch):
    # the caller picks the path by N: lists never reach the bulk sort, columns always do
    bulk_sizes = []

    def spy(keys, counter):
        bulk_sizes.append(len(keys))
        return _merge_sort_bulk(keys, counter)

    monkeypatch.setattr(sorting, "_merge_sort_bulk", spy)
    rng = random.Random(5)
    for n in (0, 1, BULK_MIN_N - 1, BULK_MIN_N, BULK_MIN_N + 1, 4 * BULK_MIN_N + 3):
        keys = [rng.randrange(n // 4 + 1) for _ in range(n)]
        expected = sort_and_tally(_merge_sort_scalar, keys)
        assert sort_and_tally(merge_sort_counted, keys) == expected
        assert sort_and_tally(merge_sort_counted, tuple(keys)) == expected
        assert bulk_sizes == []
        for col in (column(keys), np.array([k + 10**30 for k in keys], dtype=object)):
            assert sort_and_tally(merge_sort_counted, col) == expected
        assert bulk_sizes == [n, n]
        bulk_sizes.clear()


def test_merge_unique_counted():
    c = QueryCounter()
    merged = merge_unique_counted([[1, 3, 5], [0, 3, 4], [5]], c)
    assert merged == [0, 1, 3, 4, 5]
    assert merge_unique_counted([[], []], QueryCounter()) == []
