import itertools
import random

from hypothesis import given, strategies as st

from coverpierce.core import QueryCounter
from coverpierce.sorting import merge_sort_counted, merge_unique_counted


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


def test_merge_unique_counted():
    c = QueryCounter()
    merged = merge_unique_counted([[1, 3, 5], [0, 3, 4], [5]], c)
    assert merged == [0, 1, 3, 4, 5]
    assert merge_unique_counted([[], []], QueryCounter()) == []
