"""Comparison-counted bottom-up merge sort.

Every key comparison is counted in a :class:`~coverpierce.core.QueryCounter`,
so the sort doubles as the measuring instrument for the query-cost experiments.
For N = 2^n inputs it performs at most n*N comparisons.  The tallies are
exactly those of the bottom-up merge.  Keys in a list or tuple take the scalar
merge, which makes each comparison in turn; it is the reference.  Keys in a
numpy column, int64 or Python ints in an object array, are sorted in bulk:
one ``np.sort`` of packed (key, index) codes, taken of the dense ranks of a
column too wide to pack, gives the same order.  Each merge level's ``gt``
and its ``lt`` or ``eq`` are read off each key's rank in that order, an
int32 below 2^31 keys, and the ``eq`` off the runs of equal keys.  Each
caller picks the form by N at its own measured crossover: ``solve_coverage``
passes a column from ``coverage.BULK_MIN_N`` keys on, ``build_envelopes``
from ``piercing.BULK_MIN_N`` on.  ``_tally`` counts the comparisons of the bulk
sweeps of both solvers, a column at a time.
"""

from __future__ import annotations

import numpy as np

from .core import QueryCounter, _dense_ranks


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
    first replaced by its dense ranks, which keep its order and ties.  The
    tallies are read off each key's rank in the sorted order, an int32
    below 2^31 keys."""
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
    and one ``lt`` or ``eq`` per key of L at most max R.  Both are read off
    the keys' ranks in the order, int32 below 2^31 keys: ties rank by index
    and every index of L is below every index of R, so a key of R is below
    max L exactly when its rank is below the rank of max L, and a key of L
    is at most max R exactly when its rank is below the rank of max R.  A
    merge makes an ``eq`` exactly when the key of L also occurs in R.  So two
    consecutive equal keys i < j in index order meet once, in the merge whose
    output runs have width 2^e, e the bit length of i ^ j; there each equal
    key from the start of that output run up to i makes one ``eq``.
    """
    n = len(codes)
    ordered, order = np.divmod(codes, n)
    eq = _ties_met(codes, ordered, order)
    del codes, ordered  # freed before the ranks are built
    # pad to a power of two with -1, which never raises a run's maximum; it is
    # below every maximum of a merge's left run, so the pads that fill out its
    # right run are counted as gt and taken off again
    size = 1 << (n - 1).bit_length()
    rank = np.full(size, -1, dtype=np.int32 if n < 1 << 31 else np.int64)
    rank[order] = np.arange(n, dtype=rank.dtype)
    # numpy loops over runs of 2 to 8 ranks in short inner loops, so from
    # 2^10 keys on widths 2 to 8 read a copy that holds each of the 16 slots
    # of an aligned 16-rank block in a row of up to 256 blocks
    rows = min(size >> 4, 256) if size >= 1 << 10 else 0
    if rows:
        slots = rank.reshape(-1, rows, 16).transpose(0, 2, 1).copy()
    maxima, at_most, gt = rank, 0, 0
    width = 1
    while width < n:
        left, right = maxima[0::2], maxima[1::2]
        if rows and 2 <= width <= 8:
            runs = slots.reshape(-1, 8 // width, 2, width, rows)  # block, merge, L or R, slot, row
            gt += int(np.count_nonzero(runs[:, :, 1] < _by_block(left, slots)))
            at_most += int(np.count_nonzero(runs[:, :, 0] < _by_block(right, slots)))
        else:
            runs = rank.reshape(-1, 2, width)  # merge, L or R, slot
            gt += int(np.count_nonzero(runs[:, 1] < left[:, None]))
            at_most += int(np.count_nonzero(runs[:, 0] < right[:, None]))
        gt -= min(-n % (2 * width), width)  # the pads in the last merge's right run
        maxima = np.maximum(left, right)
        width *= 2
    counter.lt += at_most - eq
    counter.eq += eq
    counter.gt += gt
    return order


def _by_block(maxima, slots):
    """The maxima of the runs that the slot-major ``slots`` hold, as (block,
    merge, 1, row), to compare with their ranks."""
    return maxima.reshape(len(slots), slots.shape[2], -1).transpose(0, 2, 1)[:, :, None]


def _ties_met(codes, ordered, order) -> int:
    """The merges' ``eq`` count: each equal key from the start of the output
    run where two consecutive equal keys first meet up to the first of them."""
    tie = np.flatnonzero(ordered[1:] == ordered[:-1])
    i, j = order[tie], order[tie + 1]
    # i and j first share a run of width 2^e, e = bit length of i ^ j
    e = np.frexp((i ^ j).astype(np.float64))[1]  # exact below 2^53
    first = np.searchsorted(codes, ordered[tie] * len(codes) + ((i >> e) << e))
    return int(np.sum(tie + 1 - first))


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
