"""Comparison-counted bottom-up merge sort.

Every key comparison is counted in a :class:`~coverpierce.core.QueryCounter`,
so the sort doubles as the measuring instrument for the query-cost experiments.
For N = 2^n inputs it performs at most n*N comparisons.  The tallies are
exactly those of the bottom-up merge.  Below ``BULK_MIN_N`` keys the scalar
merge runs and routes each comparison through ``counter.compare``; it is the
reference.  From ``BULK_MIN_N`` keys on, the same order and the same ``lt``,
``eq`` and ``gt`` are computed per merge level with numpy.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .core import GT, QueryCounter

# measured crossover: below it numpy's fixed cost per call loses to the scalar merge
BULK_MIN_N = 64


def merge_sort_counted(items, counter: QueryCounter | None = None):
    """Stable merge sort returning positions; odd lengths split into uneven halves.

    Keys must be totally ordered.  An int64 array of keys is sorted in bulk as
    it is, and its order comes back as an int64 array.  The order of any other
    keys comes back as a tuple, from the path their count picks.  All paths
    give the bottom-up merge's order and tallies."""
    if counter is None:
        counter = QueryCounter()
    if isinstance(items, np.ndarray) and items.dtype == np.int64:
        return _merge_sort_bulk(items, counter)
    keys = list(items)
    sort = _merge_sort_scalar if len(keys) < BULK_MIN_N else _merge_sort_bulk
    return sort(keys, counter)


def _merge_sort_scalar(keys: list, counter: QueryCounter) -> tuple:
    n = len(keys)
    order = list(range(n))
    compare = counter.compare  # looked up once, not once per comparison
    width = 1
    while width < n:
        merged = []
        take = merged.append
        for lo in range(0, n, 2 * width):
            mid = lo + width if lo + width < n else n
            hi = mid + width if mid + width < n else n
            i, j = lo, mid
            while i < mid and j < hi:
                # take left on ties: stability
                if compare(keys[order[i]], keys[order[j]]) == GT:
                    take(order[j])
                    j += 1
                else:
                    take(order[i])
                    i += 1
            merged.extend(order[i:mid])
            merged.extend(order[j:hi])
        order = merged
        width *= 2
    return tuple(order)


def _stable_ranks(keys) -> tuple:
    """The stable sorting order of ``keys`` (a list or an int64 array) and the
    dense rank of each sorted key."""
    if isinstance(keys, np.ndarray):
        values = keys
    else:
        values = np.array(keys) if set(map(type, keys)) == {int} else None
    if values is not None and values.dtype.kind in "iu":
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        rises = ordered[1:] != ordered[:-1]
    else:
        # ints beyond int64 or keys of other types: Python's stable sort
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ordered = [keys[i] for i in order]
        rises = np.fromiter(map(operator.lt, ordered, itertools.islice(ordered, 1, None)),
                            dtype=bool, count=len(keys) - 1)
        order = np.array(order, dtype=np.int64)
    ranks = np.zeros(len(keys), dtype=np.int64)
    np.cumsum(rises, out=ranks[1:])
    return order, ranks


def _merge_sort_bulk(keys, counter: QueryCounter):
    """The scalar merge's order and tallies, computed level by level; the
    order is an int64 array for an int64 array of keys, else a tuple."""
    order, ranks = _stable_ranks(keys)
    n = len(order)
    if n >= 2:
        _count_merges(order, ranks, counter)
    return order if isinstance(keys, np.ndarray) else tuple(order.tolist())


def _count_merges(order, ranks, counter: QueryCounter) -> None:
    """Add the merges' tallies to ``counter``, from the stable order of n >= 2
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
