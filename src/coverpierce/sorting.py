"""Comparison-counted bottom-up merge sort.

Every key comparison is counted in a :class:`~coverpierce.core.QueryCounter`,
so the sort doubles as the measuring instrument for the query-cost experiments.
For N = 2^n inputs it performs at most n*N comparisons.  The tallies are
exactly those of the bottom-up merge.  Keys in a list or tuple take the scalar
merge, which makes each comparison in turn; it is the reference.  Keys in a
numpy column, int64 or Python ints in an object array, are sorted in bulk:
one ``np.sort`` of packed (key, index) codes, taken of the dense ranks of a
column too wide to pack, gives the same order, and the same ``lt``, ``eq``
and ``gt`` are read per merge level off the sorted codes.  Each caller picks
the form by N at its own measured crossover: ``solve_coverage`` passes a
column from ``coverage.BULK_MIN_N`` keys on, ``build_envelopes`` from
``piercing.BULK_MIN_N`` on.  ``_tally`` counts the comparisons of the bulk
sweeps of both solvers, a column at a time.
"""

from __future__ import annotations

import numpy as np

from .core import QueryCounter, _dense_ranks

_ABOVE = np.iinfo(np.int64).max  # above every packed key


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
    """The scalar merge's order and tallies, from one ``np.sort`` of the
    distinct packed codes (key - min) * n + index.  A column that does not
    pack, one not int64 or one where (max - min + 1) * n reaches 2^63, is
    first replaced by its dense ranks, which keep its order and ties."""
    n = len(keys)
    low = int(keys.min()) if n and keys.dtype == np.int64 else 0
    if keys.dtype != np.int64 or n and (int(keys.max()) - low + 1) * n >= 1 << 63:
        keys, low = _dense_ranks(keys), 0
    # keys - low lies in [0, 2^63), exact in int64
    return _count_merges(np.sort((keys - low) * n + np.arange(n)), counter)


def _count_merges(codes, counter: QueryCounter) -> np.ndarray:
    """Add the merges' tallies to ``counter`` and return the order, from the
    sorted packed codes key * n + index of n keys: the order is each code
    mod n and the key its quotient.

    At width w the merge of runs L and R (the keys at index ranges
    [lo, lo+w) and [lo+w, lo+2w)) makes one ``gt`` per key of R below max L
    and one ``lt`` or ``eq`` per key of L at most max R.  It makes an ``eq``
    exactly when the key of L also occurs in R.  So two consecutive equal keys
    i < j in index order meet once, in the merge whose output runs have width
    2^e, e the bit length of i ^ j; there each equal key from the start of
    that output run up to i makes one ``eq``.
    """
    n = len(codes)
    ordered, order = np.divmod(codes, n)
    # pad to a power of two: -1 never raises a run's maximum, _ABOVE never falls below one
    size = 1 << (n - 1).bit_length()
    maxima = np.full(size, -1, dtype=np.int64)
    maxima[order] = ordered
    tested = np.full(size, _ABOVE, dtype=np.int64)
    tested[:n] = maxima[:n]
    at_most = gt = 0
    width = 1
    while width < n:
        runs = tested.reshape(-1, 2, width)
        left, right = maxima[0::2], maxima[1::2]
        gt += int(np.count_nonzero(runs[:, 1] < left[:, None]))
        at_most += int(np.count_nonzero(runs[:, 0] <= right[:, None]))
        maxima = np.maximum(left, right)
        width *= 2
    tie = np.flatnonzero(ordered[1:] == ordered[:-1])
    i, j = order[tie], order[tie + 1]
    # i and j first share a run of width 2^e, e = bit length of i ^ j
    e = np.frexp((i ^ j).astype(np.float64))[1]  # exact below 2^53
    first = np.searchsorted(codes, ordered[tie] * n + ((i >> e) << e))
    eq = int(np.sum(tie + 1 - first))
    counter.lt += at_most - eq
    counter.eq += eq
    counter.gt += gt
    return order


def _tally(counter: QueryCounter, left, right, made=None) -> None:
    """Count the outcomes of comparing each of ``left`` with ``right`` (or its
    peer in it), only where ``made`` when it is given."""
    lt, gt = np.less(left, right), np.greater(left, right)
    if made is not None:
        lt &= made
        gt &= made
    lt, gt = int(np.count_nonzero(lt)), int(np.count_nonzero(gt))
    counter.lt += lt
    counter.eq += (np.size(left) if made is None else int(np.count_nonzero(made))) - lt - gt
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
