import itertools
import random

import numpy as np
from hypothesis import given, strategies as st

from coverpierce import sorting
from coverpierce.core import QueryCounter, _int_array
from coverpierce.sorting import (
    BULK_MIN_N,
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
