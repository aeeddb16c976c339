"""Comparison-counted bottom-up merge sort.

Every key comparison is counted in a :class:`~coverpierce.core.QueryCounter`,
so the sort doubles as the measuring instrument for the query-cost experiments.
For N = 2^n inputs it performs at most n*N comparisons.  The tallies are
exactly those of the bottom-up merge.  Keys in a list or tuple take the scalar
merge, which makes each comparison in turn; it is the reference.  Keys in a
numpy column, int64 or Python ints in an object array, are sorted in bulk,
with the same order and the same ``lt``, ``eq`` and ``gt`` computed per merge
level with numpy.  Each caller picks the form by N at its own measured
crossover: ``solve_coverage`` passes a column from ``BULK_MIN_N`` keys on,
``build_envelopes`` from ``piercing.BULK_MIN_N`` on.
"""

from __future__ import annotations

import numpy as np

from .core import QueryCounter

# measured crossover: below it numpy's fixed cost per call loses to the scalar merge
BULK_MIN_N = 64


def merge_sort_counted(items, counter: QueryCounter):
    """Stable merge sort returning positions; odd lengths split into uneven halves.

    Keys must be totally ordered.  A numpy column of keys is sorted in bulk
    and its order comes back as an int64 array; the order of any other keys
    comes back as a tuple, from the scalar merge.  Both give the bottom-up
    merge's order and tallies."""
    if isinstance(items, np.ndarray):
        return _merge_sort_bulk(items, counter)
    return _merge_sort_scalar(list(items), counter)


def _merge_sort_scalar(keys: list, counter: QueryCounter) -> tuple:
    n = len(keys)
    order = list(range(n))
    made = lt = gt = 0  # comparisons tallied as counter.compare would, without the call
    width = 1
    while width < n:
        merged = []
        take = merged.append
        for lo in range(0, n, 2 * width):
            mid = lo + width if lo + width < n else n
            hi = mid + width if mid + width < n else n
            i, j = lo, mid
            while i < mid and j < hi:
                left, right = keys[order[i]], keys[order[j]]
                if left > right:
                    gt += 1
                    take(order[j])
                    j += 1
                else:  # take left on ties: stability
                    if left < right:  # a bool added to lt could be a numpy one
                        lt += 1
                    take(order[i])
                    i += 1
            made += i - lo + j - mid
            merged.extend(order[i:mid])
            merged.extend(order[j:hi])
        order = merged
        width *= 2
    counter.lt += lt
    counter.eq += made - lt - gt
    counter.gt += gt
    return tuple(order)


def _merge_sort_bulk(keys: np.ndarray, counter: QueryCounter) -> np.ndarray:
    """The scalar merge's order and tallies, computed level by level from the
    stable order of ``keys`` and the dense rank of each sorted key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    ranks = np.zeros(len(keys), dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=ranks[1:])
    _count_merges(order, ranks, counter)
    return order


def _count_merges(order, ranks, counter: QueryCounter) -> None:
    """Add the merges' tallies to ``counter``, from the stable order of n
    keys and their dense ranks in that order.

    At width w the merge of runs L and R (the keys at index ranges
    [lo, lo+w) and [lo+w, lo+2w)) makes one ``gt`` per key of R below max L
    and one ``lt`` or ``eq`` per key of L at most max R.  It makes an ``eq``
    exactly when the key of L also occurs in R.  So two consecutive equal keys
    i < j in index order meet once, in the merge whose output runs have width
    2^e, e the bit length of i ^ j; there each equal key from the start of
    that output run up to i makes one ``eq``.
    """
    n = len(order)
    # pad to a power of two: -1 never raises a run's maximum, n never falls below one
    size = 1 << (n - 1).bit_length()
    maxima = np.full(size, -1, dtype=np.int64)
    maxima[order] = ranks
    tested = np.full(size, n, dtype=np.int64)
    tested[:n] = maxima[:n]
    at_most = gt = 0
    width = 1
    while width < n:
        runs = tested.reshape(-1, 2, width)
        maxima = maxima.reshape(-1, 2)
        gt += int(np.count_nonzero(runs[:, 1] < maxima[:, :1]))
        at_most += int(np.count_nonzero(runs[:, 0] <= maxima[:, 1:]))
        maxima = maxima.max(axis=1)
        width *= 2
    tie = np.flatnonzero(ranks[1:] == ranks[:-1])
    i, j = order[tie], order[tie + 1]
    # i and j first share a run of width 2^e, e = bit length of i ^ j
    e = np.frexp((i ^ j).astype(np.float64))[1]  # exact below 2^53
    codes = ranks * n + order  # ascending: the sorted order is by (rank, index)
    first = np.searchsorted(codes, ranks[tie] * n + ((i >> e) << e))
    eq = int(np.sum(tie + 1 - first))
    counter.lt += at_most - eq
    counter.eq += eq
    counter.gt += gt


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
