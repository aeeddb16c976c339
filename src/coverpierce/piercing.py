"""Pair-of-points piercing of N crosses by one sweep.

A cross is the set of points whose x lies in its horizontal arm or whose y
lies in its vertical arm.  At x, the crosses whose horizontal arm misses x
confine y to one interval; the family pierces iff that interval, clamped to
the y-domain, is nonempty at some x.  :func:`build_envelopes` splits those
bounds by corner box into four monotone step functions of x, each holding
the best (value, index) pairs of a y-end, best first, and
:func:`solve_piercing` sweeps a0 and the a values over them.  A verdict
keeps and pays for one pair, the best.  :func:`check_minimality` asks for
the leave-one-out depth, which also keeps the runner-up, so that the same
sweep decides each leave-one-out subfamily too.  Every comparison counted
is between two values of the input.  From ``BULK_MIN_N`` crosses on, both
run in bulk with numpy and count the same comparisons; N alone picks the
path, for int64 columns and columns of Python ints alike.  Also houses the
generators for minimal non-pierceable families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    GT,
    LT,
    InstanceError,
    Interval,
    Permutation,
    PiercingInstance,
    QueryCounter,
    as_int,
)
from .coverage import gen_random_coverage
from .sorting import _tally, merge_sort_counted


# called by nothing; bound only because perfbench's tracer still wraps this name
merge_unique_counted = None

# measured crossover: below it numpy's fixed cost per call loses to the scalar
# sorts, aggregates and sweep.  A verdict breaks even near N=80, the
# leave-one-out depth on shuffled staircases only near N=112, which one
# constant for both depths keeps
BULK_MIN_N = 112


class Envelopes(NamedTuple):
    """The sorted a values, the sorted b values, and four corner envelopes, each
    listing for k = 0..N the best (value, index) pairs of one y-end over the
    crosses on one side of x and the y-domain end (index None), best first:
    one pair, or two at the leave-one-out depth.  Entry k applies on
    [a[k-1], a[k]) or (b[k-1], b[k]] by side, the first from -inf and the last
    to +inf; equal ends leave the entries between unreached.

    Below ``BULK_MIN_N`` crosses the fields are tuples, from there on arrays of
    the same nesting: the ends have shape (N,), each envelope (N+1, pairs, 2)
    with rows ``[value, index]`` and index -1 for None; a column of Python
    ints gives object arrays."""

    a_ends: tuple | np.ndarray
    b_ends: tuple | np.ndarray
    f_nw: tuple | np.ndarray  # min d over a > x   (nondecreasing)
    f_ne: tuple | np.ndarray  # min d over b < x   (nonincreasing)
    g_sw: tuple | np.ndarray  # max c over a > x   (nonincreasing)
    g_se: tuple | np.ndarray  # max c over b < x   (nondecreasing)


def _best(top, entries, counter: QueryCounter, better: str) -> list:
    """``top`` and, after each of ``entries``, the best (value, index) pairs so
    far, best first, as many as ``top`` holds: one, or two at the
    leave-one-out depth.

    ``better`` is GT to keep maxima and LT to keep minima.  Each entry is
    compared with the best, and when it keeps two, each entry that does not
    beat the best also with the runner-up.  A tie keeps the earlier holder
    first, so a runner-up can equal the best.
    """
    tops = [top]
    compare = counter.compare  # looked up once, not once per comparison
    two = len(top) == 2
    for entry in entries:
        if compare(entry[0], top[0][0]) == better:
            top = (entry, top[0]) if two else (entry,)
        elif two and compare(entry[0], top[1][0]) == better:
            top = (top[0], entry)
        tops.append(top)
    return tops


def _running_best(tops, entry, holder, better: str, counter: QueryCounter, made=None,
                  handed=None):
    """One slot of ``_best`` in bulk over ``entry``, whose first value is the
    seed: row k of ``tops`` gets the best of ``entry[:k+1]`` and its
    ``holder``, the earlier on a tie, with the same tallies, made only where
    ``made`` when it is given.  Returns where the best changed hands: where an
    entry beats the best before it in a comparison made, or ``handed`` says
    so.  The tallies read the wins off that record and the losses off one
    more comparison; the rest are ties."""
    beats, loses, best = ((np.greater, np.less, np.maximum) if better == GT
                          else (np.less, np.greater, np.minimum))
    value, value_at = tops.T
    best.accumulate(entry, out=value)
    record = np.ones(len(entry), dtype=bool)
    beats(entry[1:], value[:-1], out=record[1:])
    losses = loses(entry[1:], value[:-1])
    tested = len(losses)
    if made is not None:
        record[1:] &= made
        losses &= made
        tested = int(np.count_nonzero(made))
    won, lost = int(np.count_nonzero(record)) - 1, int(np.count_nonzero(losses))
    counter.lt += lost if better == GT else won
    counter.eq += tested - won - lost
    counter.gt += won if better == GT else lost
    if handed is not None:
        record |= handed
    # each step's holder is the entry at the last step where the best changed hands
    at = np.flatnonzero(record)
    kept = np.empty_like(at)  # the steps each holder keeps the best for
    kept[:-1], kept[-1] = at[1:] - at[:-1], len(entry) - at[-1]
    value_at[:] = np.repeat(holder[at], kept)
    return record


def build_envelopes(instance: PiercingInstance, counter: QueryCounter | None = None, *,
                    leave_one_out: bool = False) -> Envelopes:
    """Sort a and b, then take running best aggregates of c and d: the best
    (value, index) pair, or at the ``leave_one_out`` depth the best two.

    Value k of an a-side envelope covers the crosses ``by_a[k:]``, the k-th
    of a b-side one ``by_b[:k]``.  O(N log N) comparisons, of which each
    aggregate makes N, or at the leave-one-out depth up to 2N.  The path is
    picked from N alone: below ``BULK_MIN_N`` crosses the lists are sorted by
    the scalar merge and ``_best`` takes one entry at a time, which is the
    reference; from there on the columns are sorted and aggregated in bulk
    with the same values, holders and tallies.
    """
    if counter is None:
        counter = QueryCounter()
    pairs = 1 + leave_one_out
    c0, d0 = instance.ydomain.lo, instance.ydomain.hi
    h, v = instance.h, instance.v
    if len(h) >= BULK_MIN_N:
        by_a = merge_sort_counted(h[:, 0], counter)
        by_b = merge_sort_counted(h[:, 1], counter)
        a_ends, b_ends = h[by_a, 0], h[by_b, 1]
        c, d = v[:, 0], v[:, 1]

        def aggregate(order, values, seed, better):
            entry, holder = np.concatenate(([seed], values[order])), np.concatenate(([-1], order))
            tops = np.empty((len(entry), pairs, 2), dtype=entry.dtype)
            record = _running_best(tops[:, 0], entry, holder, better, counter)
            if leave_one_out:
                # at a record the runner-up becomes the old best, which no earlier
                # entry beats, so the runner-up is a running best of the entries
                # with each record replaced by the best before it
                entry[1:][record[1:]] = tops[:-1, 0, 0][record[1:]]
                holder[1:][record[1:]] = tops[:-1, 0, 1][record[1:]]
                _running_best(tops[:, 1], entry, holder, better, counter, ~record[1:], record)
            return tops
    else:
        a, b = h.T.tolist()
        c, d = v.T.tolist()
        by_a = merge_sort_counted(a, counter)
        by_b = merge_sort_counted(b, counter)
        a_ends, b_ends = tuple([a[i] for i in by_a]), tuple([b[i] for i in by_b])

        def aggregate(order, values, seed, better):
            entries = [(values[i], i) for i in order]
            return tuple(_best(((seed, None),) * pairs, entries, counter, better))

    return Envelopes(a_ends, b_ends,
                     f_nw=aggregate(by_a[::-1], d, d0, LT)[::-1],
                     f_ne=aggregate(by_b, d, d0, LT),
                     g_sw=aggregate(by_a[::-1], c, c0, GT)[::-1],
                     g_se=aggregate(by_b, c, c0, GT))


@dataclass(frozen=True)
class PiercingVerdict:
    pierceable: bool
    witness: tuple | None
    queries_used: int
    # at solve_piercing's leave-one-out depth only, which check_minimality asks
    # for: the crosses whose deletion still fails; None on a plain verdict
    blocking: tuple | None = None

    def to_dict(self) -> dict:
        out = {"pierceable": self.pierceable, "queries": self.queries_used}
        if self.witness is not None:
            out["witness"] = [self.witness[0], self.witness[1]]
        return out

    def witness_sound(self, instance: PiercingInstance) -> bool:
        """True when a positive verdict's point lies in both domains and every cross."""
        if not self.pierceable:
            return self.witness is None
        x, y = self.witness
        h, v = instance.h, instance.v
        # in the domains first: an int64 column's domain fits int64, so then the point does
        return bool(instance.xdomain.contains(x) and instance.ydomain.contains(y)
                    and np.all((h[:, 0] <= x) & (h[:, 1] >= x) | (v[:, 0] <= y) & (v[:, 1] >= y)))


# The most (cross, grid x) cells the grid oracle takes: `verify` peaked at 434 MiB
# of address space on 2^25 cells (Python 3.11, numpy 2.4), well inside 1 GB
GRID_CELLS_MAX = 1 << 25


def _grid_hits(instance: PiercingInstance):
    """Endpoint values of the x axis within its domain, all endpoint values of
    the y axis, and for each grid x the index range ``[lo[i], hi[i])`` of the
    ys that pierce every cross.

    A cross whose horizontal arm misses x needs y in its vertical arm, so at x
    the piercing ys form one interval, clamped to the y-domain.  numpy works
    on the values' positions in the sorted lists, since an int beyond int64
    has no numpy dtype.  O(N * n_x) time and memory; raises
    :class:`InstanceError` when N * n_x exceeds ``GRID_CELLS_MAX``.
    """
    a0, b0 = instance.xdomain.lo, instance.xdomain.hi
    c0, d0 = instance.ydomain.lo, instance.ydomain.hi
    (a, b), (c, d) = instance.h.T.tolist(), instance.v.T.tolist()
    xs = sorted({a0, b0, *a, *b})
    xr = {x: i for i, x in enumerate(xs)}
    n_x = xr[b0] - xr[a0] + 1
    if instance.n * n_x > GRID_CELLS_MAX:
        raise InstanceError(f"{instance.n} crosses times {n_x} grid xs make {instance.n * n_x}"
                            f" cells, more than the grid oracle's budget of {GRID_CELLS_MAX}")
    ys = sorted({c0, d0, *c, *d})
    yr = {y: i for i, y in enumerate(ys)}
    xv = np.arange(xr[a0], xr[b0] + 1)
    a, b, c, d = np.array([[xr[e] for e in a], [xr[e] for e in b], [yr[e] for e in c],
                           [yr[e] for e in d]], dtype=np.int64)[:, :, None]
    miss = (xv < a) | (b < xv)  # (N, n_x): the y arm must hold y
    lower = np.where(miss, c, yr[c0]).max(axis=0, initial=yr[c0])
    upper = np.where(miss, d, yr[d0]).min(axis=0, initial=yr[d0])
    return xs[xr[a0]:xr[b0] + 1], ys, lower, upper + 1


def oracle_piercing(instance: PiercingInstance) -> PiercingVerdict:
    """Exhaustive scan over the endpoint grid on both axes; the witness is the
    first piercing grid point in x-major order."""
    xs, ys, lo, hi = _grid_hits(instance)
    i = int(np.argmax(lo < hi))
    if lo[i] >= hi[i]:
        return PiercingVerdict(False, None, 0)
    return PiercingVerdict(True, (xs[i], ys[lo[i]]), 0)


@dataclass(frozen=True, slots=True)
class MinimalityReport:
    """``blocking`` names, in order, the crosses whose deletion leaves the
    rest of the N crosses without a piercing point; it is empty when the
    family is minimal or pierceable."""

    full_family_pierceable: bool
    n: int
    blocking: tuple

    @property
    def each_deletion_pierceable(self) -> tuple:
        blocking = set(self.blocking)
        return tuple(i not in blocking for i in range(self.n))

    @property
    def is_minimal_nonpierceable(self) -> bool:
        return not (self.full_family_pierceable or self.blocking)


def solve_piercing(instance: PiercingInstance, counter: QueryCounter | None = None, *,
                   leave_one_out: bool = False) -> PiercingVerdict:
    """The family's verdict from one sweep over a0 and the a values, and at the
    ``leave_one_out`` depth the crosses whose deletion leaves the rest
    unpierceable (``blocking``, None on a plain verdict).

    At x the crosses whose horizontal arm misses x (a > x or b < x) confine y
    to [max c, min d] within the y-domain, which the envelopes' best (value,
    index) aggregates of c and d, seeded with the y-domain ends, give after
    one comparison merges each a-side entry with its b-side one.  Sliding a
    feasible x left only drops constraints until it meets a0 or an a value,
    so those are the only xs swept, left to right: the first feasible one is
    the family's leftmost feasible x, and the witness takes the clamped max c
    there as its y.  From x = a0 on, the next x is the least a right of x, on
    which the a pointer rests.

    A verdict pays for the best holders only.  The leave-one-out depth, which
    ``check_minimality`` asks for, also keeps each aggregate's runner-up, and
    the y-domain ends stand in for what no deletion removes: deleting a cross
    that holds neither the max c nor the min d leaves the bounds at x as they
    are, so at most two tests per x decide every deletion.  Each subfamily's
    candidates are among the xs swept too, and if the family pierces, so does
    every subfamily, so ``blocking`` is then empty.  O(N log N) comparisons
    at either depth; the sweep runs in bulk on the envelopes' bulk form, with
    the same tallies.
    """
    if counter is None:
        counter = QueryCounter()
    before = counter.comparisons
    envelopes = build_envelopes(instance, counter, leave_one_out=leave_one_out)
    if instance.n == 0:
        witness, blocking = (instance.xdomain.lo, instance.ydomain.lo), ()
    else:
        sweep = _sweep_bulk if instance.n >= BULK_MIN_N else _sweep
        witness, blocking = sweep(envelopes, instance.xdomain.lo, instance.xdomain.hi, counter,
                                  leave_one_out)
    verdict = PiercingVerdict(witness is not None, witness, counter.comparisons - before,
                              blocking if leave_one_out else None)
    if witness is not None and not verdict.witness_sound(instance):
        raise RuntimeError(f"solver produced an unsound witness {verdict.witness}")
    return verdict


def _sweep(envelopes: Envelopes, a0, b0, counter: QueryCounter, leave_one_out: bool):
    """The witness (or None) and, at the leave-one-out depth, ``blocking``,
    one ``compare`` at a time."""
    a_ends, b_ends, lo_a, lo_b, hi_a, hi_b = envelopes
    n = len(a_ends)
    pierced = [False] * n
    pa = pb = 0
    x = a0
    while True:
        while pa < n and counter.compare(a_ends[pa], x) != GT:
            pa += 1
        while pb < n and counter.compare(b_ends[pb], x) == LT:
            pb += 1
        hi = _best(hi_a[pa], hi_b[pb], counter, GT)[-1]
        lo = _best(lo_a[pa], lo_b[pb], counter, LT)[-1]
        lower, upper = hi[0][0], lo[0][0]
        if counter.compare(lower, upper) != GT:
            return (x, lower), ()
        if leave_one_out:
            for i in (hi[0][1], lo[0][1]):
                if i is None or pierced[i]:
                    continue
                without_lower = hi[1][0] if i == hi[0][1] else lower
                without_upper = lo[1][0] if i == lo[0][1] else upper
                pierced[i] = counter.compare(without_lower, without_upper) != GT
        if pa == n or counter.compare(a_ends[pa], b0) == GT:
            return None, tuple([i for i in range(n) if not pierced[i]]) if leave_one_out else None
        x = a_ends[pa]


def _merge_bulk(tops, at, entries, entries_at, better: str, counter: QueryCounter):
    """The last of ``_best(tops[at[k]], entries[entries_at[k]])`` at every
    step k, with its tallies: the merged first index and the second value.
    The merged first value is the better of the two firsts."""
    beats = np.greater if better == GT else np.less
    first, first_at, second = tops[at, 0, 0], tops[at, 0, 1], tops[at, 1, 0]
    for k in (0, 1):
        value, value_at = entries[entries_at, k, 0], entries[entries_at, k, 1]
        wins = beats(value, first)
        _tally(counter, value, first)
        _tally(counter, value, second, ~wins)
        second = np.where(wins, first, np.where(beats(value, second), value, second))
        first = np.where(wins, value, first)
        first_at = np.where(wins, value_at, first_at)
    return first_at.astype(np.int64, copy=False), second  # object tops hold ints


def _sweep_bulk(envelopes: Envelopes, a0, b0, counter: QueryCounter, leave_one_out: bool):
    """``_sweep``'s witness, ``blocking`` and tallies, computed over all xs at once.

    The xs are a0 and the distinct a values in (a0, b0]; at each x the
    pointers rest after the a values at most x and the b values below x.
    Each end passed is compared once, with the first x that passes it, and
    each step whose pointer is below N once more, with the end it stops at.
    Only the steps up to the first feasible x are made, and the leave-one-out
    tests and the b0 test only before it.
    """
    a_ends, b_ends, lo_a, lo_b, hi_a, hi_b = envelopes
    n = len(a_ends)
    start, stop = a_ends.searchsorted(a0, "right"), a_ends.searchsorted(b0, "right")
    # past each distinct a in (a0, b0], the a pointer rests after its last occurrence
    inside = a_ends[start:stop]
    last = np.ones(len(inside), dtype=bool)
    last[:-1] = inside[1:] != inside[:-1]
    pa = np.concatenate(([start], start + 1 + np.flatnonzero(last)))
    xs = np.concatenate(([a0], inside[last]))
    pb = np.searchsorted(b_ends, xs, side="left")
    hi = np.maximum(hi_a[pa, 0, 0], hi_b[pb, 0, 0])
    lo = np.minimum(lo_a[pa, 0, 0], lo_b[pb, 0, 0])
    feasible = hi <= lo
    found = int(np.argmax(feasible))
    pierceable = bool(feasible[found])
    steps = found + 1 if pierceable else len(xs)
    xs, pa, pb, hi, lo = xs[:steps], pa[:steps], pb[:steps], hi[:steps], lo[:steps]
    # an a passed at or below a0 is compared with a0, any later one with itself
    _tally(counter, a_ends[:start], a0)
    counter.eq += int(pa[-1] - start)
    counter.gt += int(np.count_nonzero(pa < n))
    counter.lt += int(pb[-1])
    _tally(counter, b_ends[pb[pb < n]], xs[pb < n])
    if leave_one_out:
        hi_at, hi2 = _merge_bulk(hi_a, pa, hi_b, pb, GT, counter)
        lo_at, lo2 = _merge_bulk(lo_a, pa, lo_b, pb, LT, counter)
    else:  # one comparison per merge: the b side's best with the a side's
        _tally(counter, hi_b[pb, 0, 0], hi_a[pa, 0, 0])
        _tally(counter, lo_b[pb, 0, 0], lo_a[pa, 0, 0])
    _tally(counter, hi, lo)
    swept = steps - pierceable  # the steps that test deletions and b0
    ahead = pa[:swept]
    _tally(counter, a_ends[ahead[ahead < n]], b0)
    blocking = None
    if leave_one_out:
        # Test 2t + s deletes slot s's holder at step t: slot 0 holds the max c,
        # slot 1 the min d, and each cross is tested until its first success.  No
        # cross holds both at a step swept, where max c > min d, since each has c <= d.
        slots = [[a[:swept] for a in slot] for slot in ((hi_at, hi2, lo), (lo_at, hi, lo2))]
        first_hit = np.full(n + 1, 2 * swept)
        first_hit[-1] = -1  # a y-domain end, as holder -1, is never tested
        for s, (holder, lower, upper) in enumerate(slots):
            hits = np.flatnonzero((lower <= upper) & (holder >= 0))
            np.minimum.at(first_hit, holder[hits], 2 * hits + s)
        for s, (holder, lower, upper) in enumerate(slots):
            _tally(counter, lower, upper, np.arange(s, 2 * swept, 2) <= first_hit[holder])
        blocking = tuple(np.flatnonzero(first_hit[:n] == 2 * swept).tolist())
    if pierceable:
        return (int(xs[-1]), int(hi[-1])), ()
    return None, blocking


def check_minimality(instance: PiercingInstance) -> MinimalityReport:
    """Decide the full family and each leave-one-out subfamily, in cross order.

    One ``solve_piercing`` sweep at the leave-one-out depth in place of N+1
    solves; only this check pays for that depth's runner-up slots and
    deletion tests.  Both it and the counter are looked up on the module at
    call time, so a tally or tracer swapped in there sees every comparison,
    and a tracer that counts per ``solve_piercing`` call also counts the sweep.
    """
    verdict = solve_piercing(instance, QueryCounter(), leave_one_out=True)
    return MinimalityReport(verdict.pierceable, instance.n, verdict.blocking)


def _ladder_crosses(n: int):
    """Threshold ladder for the general minimal non-pierceable family, N >= 5:
    M, then the (N, 2) int64 columns of its crosses' h and v arms over [0, M].

    Alternating top/bottom corner boxes whose thresholds interleave; each box
    is the sole cover of one slab, so removing any cross opens a hole.  One
    rule for both parities: with h = N // 2, a south-west box, then the pairs
    NW(2j+1, 2j-1), SE(u_j, 2j+2) for j = 1..h-2 (u_1 = 1, else u_j = 2j),
    then three closing boxes for even N or four for odd N.  The
    ``test_golden`` pins hold it to the ranks of the earlier case-by-case
    transcription for every N up to 300.
    """
    M, h = n + 2, n // 2
    u = 1 if h == 2 else 2 * h - 2  # u_(h-1)
    j = np.arange(1, h - 1)
    # a row (east, north, x threshold, y threshold) per box: SW, NW and SE by j, the closing ones
    boxes = np.empty((n, 4), dtype=np.int64)
    boxes[0] = (0, 0, 2, 2)
    nw, se = boxes[1:2 * h - 3:2].T, boxes[2:2 * h - 3:2].T
    nw[0], nw[1], nw[2], nw[3] = 0, 1, 2 * j + 1, 2 * j - 1
    se[0], se[1], se[2], se[3] = 1, 0, np.where(j == 1, 1, 2 * j), 2 * j + 2
    boxes[2 * h - 3:] = ([(0, 1, 2 * h - 1, 2 * h - 3), (1, 0, u, 2 * h + 1),
                          (0, 1, 2 * h + 1, 2 * h - 1), (1, 1, 2 * h, 2 * h)] if n % 2 else
                         [(0, 1, 2 * h, 2 * h - 3), (1, 1, 2 * h - 2, 2 * h - 1),
                          (1, 0, 2 * h - 1, 2 * h)])
    east, north, x, y = boxes.T
    # an east box leaves x <= r to the horizontal arm, a north box y <= r
    return (M, np.stack((np.where(east, 0, x), np.where(east, x, M)), axis=1),
            np.stack((np.where(north, 0, y), np.where(north, y, M)), axis=1))


def gen_staircase_minimal(n: int, verify: bool = True) -> PiercingInstance:
    """A family of N crosses with empty intersection whose proper subsets all pierce.

    Unless ``verify`` is false, the construction is self-verified by
    ``check_minimality``.
    """
    if as_int(n) < 3:
        raise ValueError("minimal non-pierceable family needs N >= 3")
    if n == 3:
        M, h, v = 2, [(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 1), (2, 2)]
    elif n == 4:
        M, h, v = 3, [(0, 1), (2, 3), (0, 1), (2, 3)], [(0, 1), (2, 3), (2, 3), (0, 1)]
    else:
        M, h, v = _ladder_crosses(n)
    dom = Interval(0, M)
    inst = PiercingInstance(dom, dom, h=np.asarray(h, dtype=np.int64),
                            v=np.asarray(v, dtype=np.int64), _own=True)
    if verify and not check_minimality(inst).is_minimal_nonpierceable:
        raise RuntimeError(f"staircase generator self-verification failed at N={n}")
    return inst


def gen_staircase_literal(n: int, perm: Permutation | None = None) -> PiercingInstance:
    """Rank rule for the displayed N=8 / N=9 staircase preorders.

    The cross at chain position k (``perm.order[k-1]``) gets, for odd k, the arms
    h = [0, max(k-2, 0)] and v = [min(k, 8), 8]; for even k, h = [min(k, X), X]
    and v = [0, k-2]; X is 7 for N=8 and 9 for N=9, and the domains are
    [0, X] x [0, 8].  The ``test_golden`` pins hold this rule to the ranks of
    the displayed preorders' earlier verbatim transcription for every
    parity-preserving permutation.

    Keeps the displayed equalities, hence degenerate arms.  Under closed
    intervals the crosses all share the single corner point (x-domain low,
    y-domain low); this boundary anomaly is preserved on purpose.
    """
    if as_int(n) not in (8, 9):
        raise ValueError("literal staircase transcription exists for N = 8 or 9 only")
    if perm is None:
        perm = Permutation.identity(n)
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(perm))
    if len(perm) != n:
        raise ValueError(f"permutation size {len(perm)} != {n}")
    if not perm.preserves_parity():
        raise ValueError("permutation must preserve the parity of indices")
    x_hi = 7 if n == 8 else 9
    h, v = np.empty((n, 2), dtype=np.int64), np.empty((n, 2), dtype=np.int64)
    for k, j in enumerate(perm.order, start=1):
        if k % 2:
            h[j - 1], v[j - 1] = (0, max(k - 2, 0)), (min(k, 8), 8)
        else:
            h[j - 1], v[j - 1] = (min(k, x_hi), x_hi), (0, k - 2)
    return PiercingInstance(Interval(0, x_hi), Interval(0, 8), h=h, v=v, _own=True)


def gen_random_piercing(n: int, rng) -> PiercingInstance:
    """Random crosses over [0, 2N]^2: two ``gen_random_coverage`` draws, h then v."""
    h, v = gen_random_coverage(n, rng), gen_random_coverage(n, rng)
    return PiercingInstance(h.domain, v.domain, h=h.ends, v=v.ends, _own=True)
