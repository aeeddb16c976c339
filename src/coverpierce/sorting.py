"""Comparison-counted bottom-up merge sort.

Every key comparison is routed through a :class:`~coverpierce.core.QueryCounter`,
so the sort doubles as the measuring instrument for the query-cost experiments.
For N = 2^n inputs it performs at most n*N comparisons.
"""

from __future__ import annotations

from .core import GT, QueryCounter


def merge_sort_counted(items, counter: QueryCounter | None = None) -> tuple:
    """Stable merge sort returning positions; odd lengths split into uneven halves."""
    if counter is None:
        counter = QueryCounter()
    keys = list(items)
    n = len(keys)
    order = list(range(n))
    width = 1
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j = lo, mid
            while i < mid and j < hi:
                # take left on ties: stability
                if counter.compare(keys[order[i]], keys[order[j]]) == GT:
                    merged.append(order[j])
                    j += 1
                else:
                    merged.append(order[i])
                    i += 1
            merged.extend(order[i:mid])
            merged.extend(order[j:hi])
        order = merged
        width *= 2
    return tuple(order)


def merge_unique_counted(lists, counter: QueryCounter) -> list:
    """K-way counted merge of ascending lists, dropping duplicates."""
    heads = [0] * len(lists)
    out = []
    while True:
        best = None
        for li, lst in enumerate(lists):
            if heads[li] >= len(lst):
                continue
            cand = lst[heads[li]]
            if best is None or counter.compare(cand, lists[best][heads[best]]) == "<":
                best = li
        if best is None:
            return out
        value = lists[best][heads[best]]
        heads[best] += 1
        if not out or counter.compare(out[-1], value) == "<":
            out.append(value)
