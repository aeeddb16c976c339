"""Pair-of-points piercing of N crosses by one sweep.

A cross is the set of points whose x lies in its horizontal arm or whose y
lies in its vertical arm.  At x, the crosses whose horizontal arm misses x
confine y to one interval; the family pierces iff that interval, clamped to
the y-domain, is nonempty at some x.  :func:`build_envelopes` splits those
bounds by corner box into four monotone step functions of x, each holding
the best two (value, index) pairs of a y-end, and :func:`solve_piercing`
sweeps a0 and the a values over them, so deciding the family and each of
its leave-one-out subfamilies at once.  From ``BULK_MIN_N`` crosses on, both
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
)
from .coverage import gen_random_coverage
# merge_unique_counted is called nowhere here; perfbench's tracer rebinds this name
from .sorting import merge_sort_counted, merge_unique_counted


# measured crossover: below it numpy's fixed cost per call loses to the scalar
# sorts, aggregates and sweep (shuffled staircases broke even near N=108)
BULK_MIN_N = 112


class Envelopes(NamedTuple):
    """The sorted a values, the sorted b + 1, and four corner envelopes, each
    listing for k = 0..N the best two (value, index) pairs, best first, of one
    y-end over the crosses on one side of x and the y-domain end (index None).
    Entry k applies on [ends[k-1], ends[k]) of its side's ends, the first from
    -inf and the last to +inf; equal ends leave the entries between unreached.

    Below ``BULK_MIN_N`` crosses the fields are tuples.  From ``BULK_MIN_N``
    on they are arrays of the same nesting: the ends have shape (N,), each
    envelope shape (N+1, 2, 2) as ``[[first value, first index], [second
    value, second index]]``, and index -1 stands for None.  A column of Python
    ints gives object arrays, and an int64 one never holds 2^63 - 1: b + 1 fits."""

    a_ends: tuple | np.ndarray
    b_ends: tuple | np.ndarray
    f_nw: tuple | np.ndarray  # min d over a > x   (nondecreasing)
    f_ne: tuple | np.ndarray  # min d over b < x   (nonincreasing)
    g_sw: tuple | np.ndarray  # max c over a > x   (nonincreasing)
    g_se: tuple | np.ndarray  # max c over b < x   (nondecreasing)


def _best_two(top, entries, counter: QueryCounter, better: str) -> list:
    """``top`` and, after each of ``entries``, the best two (value, index)
    pairs so far, best first.

    ``better`` is GT to keep maxima and LT to keep minima.  A tie keeps the
    earlier holder first, so a runner-up can equal the best.
    """
    (first, second), tops = top, [top]
    compare = counter.compare  # looked up once, not once per comparison
    for entry in entries:
        if compare(entry[0], first[0]) == better:
            first, second = entry, first
        elif compare(entry[0], second[0]) == better:
            second = entry
        tops.append((first, second))
    return tops


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


def _running_best_two(order, values, seed, better: str, counter: QueryCounter):
    """``aggregate`` of :func:`build_envelopes` in bulk: entry k holds what
    ``_best_two`` keeps after the first k crosses of ``order``, with the same
    tallies.

    Entry k is a record when it beats the best so far; a tie keeps the earlier
    holder.  Each entry is compared with the best, and each non-record also
    with the runner-up.  At a record the runner-up becomes the old best, which
    no earlier entry beats, so the runner-up is a running best of the entries
    with each record replaced by the best before it.
    """
    beats, best = (np.greater, np.maximum) if better == GT else (np.less, np.minimum)
    n = len(order)
    tops = np.empty((n + 1, 2, 2), dtype=values.dtype)
    (first, first_at), (second, second_at) = tops[:, 0].T, tops[:, 1].T
    entry = np.concatenate(([seed], values[order]))
    holder = np.concatenate(([-1], order))
    best.accumulate(entry, out=first)
    record = np.ones(n + 1, dtype=bool)
    beats(entry[1:], first[:-1], out=record[1:])
    _tally(counter, entry[1:], first[:-1])
    # each step's holder is the entry at the last step where the best changed hands
    steps = np.arange(n + 1)
    first_at[:] = holder[np.maximum.accumulate(steps * record)]
    # the runner-up takes the old best at a record, and the best entry elsewhere
    entry[1:][record[1:]] = first[:-1][record[1:]]
    holder[1:][record[1:]] = first_at[:-1][record[1:]]
    best.accumulate(entry, out=second)
    _tally(counter, entry[1:], second[:-1], ~record[1:])
    record[1:] |= beats(entry[1:], second[:-1])
    second_at[:] = holder[np.maximum.accumulate(steps * record)]
    return tops


def build_envelopes(instance: PiercingInstance, counter: QueryCounter | None = None) -> Envelopes:
    """Sort a and b, then take running best-two aggregates of c and d.

    Value k of an a-side envelope covers the crosses ``by_a[k:]``, the k-th
    of a b-side one ``by_b[:k]``.  O(N log N) comparisons.  The path is
    picked from N alone: below ``BULK_MIN_N`` crosses the lists are sorted by
    the scalar merge and ``_best_two`` takes one entry at a time, which is the
    reference; from there on the columns are sorted and aggregated in bulk
    with the same values, holders and tallies.
    """
    if counter is None:
        counter = QueryCounter()
    c0, d0 = instance.ydomain.lo, instance.ydomain.hi
    h, v = instance.h, instance.v
    if len(h) >= BULK_MIN_N:
        by_a = merge_sort_counted(h[:, 0], counter)
        by_b = merge_sort_counted(h[:, 1], counter)
        a_ends, b_ends = h[by_a, 0], h[by_b, 1] + 1
        c, d = v[:, 0], v[:, 1]

        def aggregate(order, values, seed, better):
            return _running_best_two(order, values, seed, better, counter)
    else:
        a, b = h.T.tolist()
        c, d = v.T.tolist()
        by_a = merge_sort_counted(a, counter)
        by_b = merge_sort_counted(b, counter)
        a_ends, b_ends = tuple([a[i] for i in by_a]), tuple([b[i] + 1 for i in by_b])

        def aggregate(order, values, seed, better):
            return tuple(_best_two(((seed, None), (seed, None)),
                                   [(values[i], i) for i in order], counter, better))

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
    blocking: tuple | None = None  # solve_piercing: crosses whose deletion still fails

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
        return (instance.xdomain.contains(x) and instance.ydomain.contains(y)
                and all(a <= x <= b or c <= y <= d
                        for (a, b), (c, d) in zip(instance.h.tolist(), instance.v.tolist())))


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


def solve_piercing(instance: PiercingInstance, counter: QueryCounter | None = None) -> PiercingVerdict:
    """The family's verdict and the crosses whose deletion leaves the rest
    unpierceable, from one sweep over a0 and the a values.

    At x the crosses whose horizontal arm misses x (a > x or b < x) confine y
    to [max c, min d] within the y-domain.  The envelopes' best-two (value,
    index) aggregates of c and d, seeded with the y-domain ends that no
    deletion removes, give the family's bounds at x and the bounds without
    whichever cross holds the max c or the min d; deleting any other cross
    leaves them as they are.  So at most two tests per x decide every
    deletion.  Sliding a feasible x left only drops constraints
    until it meets a0 or an a value, so those are the only xs swept, left to
    right: the first feasible one is the family's leftmost feasible x, and
    the witness takes the clamped max c there as its y.  Each subfamily's
    candidates are among them too, and if the family pierces, so does every
    subfamily, so ``blocking`` is then empty.  From x = a0 on, the next x is
    the least a right of x, on which the a pointer rests.  O(N log N)
    comparisons; the sweep runs in bulk on the envelopes' bulk form, with
    the same tallies.
    """
    if counter is None:
        counter = QueryCounter()
    before = counter.comparisons
    envelopes = build_envelopes(instance, counter)
    if instance.n == 0:
        return PiercingVerdict(True, (instance.xdomain.lo, instance.ydomain.lo), 0, ())
    sweep = _sweep_bulk if instance.n >= BULK_MIN_N else _sweep
    witness, blocking = sweep(envelopes, instance.xdomain.lo, instance.xdomain.hi, counter)
    verdict = PiercingVerdict(witness is not None, witness, counter.comparisons - before, blocking)
    if witness is not None and not verdict.witness_sound(instance):
        raise RuntimeError(f"solver produced an unsound witness {verdict.witness}")
    return verdict


def _sweep(envelopes: Envelopes, a0, b0, counter: QueryCounter):
    """The witness (or None) and ``blocking``, one ``compare`` at a time."""
    a_ends, b_ends, lo_a, lo_b, hi_a, hi_b = envelopes
    n = len(a_ends)
    pierced = [False] * n
    pa = pb = 0
    x = a0
    while True:
        while pa < n and counter.compare(a_ends[pa], x) != GT:
            pa += 1
        while pb < n and counter.compare(b_ends[pb], x) != GT:
            pb += 1
        hi = _best_two(hi_a[pa], hi_b[pb], counter, GT)[-1]
        lo = _best_two(lo_a[pa], lo_b[pb], counter, LT)[-1]
        if counter.compare(hi[0][0], lo[0][0]) != GT:
            return (x, hi[0][0]), ()
        for i in (hi[0][1], lo[0][1]):
            if i is None or pierced[i]:
                continue
            lower = hi[1][0] if i == hi[0][1] else hi[0][0]
            upper = lo[1][0] if i == lo[0][1] else lo[0][0]
            pierced[i] = counter.compare(lower, upper) != GT
        if pa == n or counter.compare(a_ends[pa], b0) == GT:
            return None, tuple([i for i in range(n) if not pierced[i]])
        x = a_ends[pa]


def _merge_bulk(tops, at, entries, entries_at, better: str, counter: QueryCounter):
    """The last of ``_best_two(tops[at[k]], entries[entries_at[k]])`` at every
    step k, with its tallies: the merged first value, its index and the
    second value."""
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
    return first, first_at.astype(np.int64, copy=False), second  # object tops hold ints


def _sweep_bulk(envelopes: Envelopes, a0, b0, counter: QueryCounter):
    """``_sweep``'s witness, ``blocking`` and tallies, computed over all xs at once.

    The xs are a0 and the distinct a values in (a0, b0], and at each x the
    pointers rest after the ends at most x.  Each end a pointer passes is
    compared once with the first x it does not exceed; each step whose
    pointer is below N makes one more comparison, which comes out greater.
    Only the steps up to the first feasible x are made, and the leave-one-out
    tests and the b0 test only before it.
    """
    a_ends, b_ends, lo_a, lo_b, hi_a, hi_b = envelopes
    n = len(a_ends)
    inside = a_ends[(a_ends > a0) & (a_ends <= b0)]
    distinct = np.ones(len(inside), dtype=bool)
    distinct[1:] = inside[1:] != inside[:-1]
    xs = np.concatenate(([a0], inside[distinct]))
    pa = np.searchsorted(a_ends, xs, side="right")
    pb = np.searchsorted(b_ends, xs, side="right")
    # no runner-up beats its first, so a merge's first is the better first
    feasible = (np.maximum(hi_a[pa, 0, 0], hi_b[pb, 0, 0])
                <= np.minimum(lo_a[pa, 0, 0], lo_b[pb, 0, 0]))
    found = int(np.argmax(feasible))
    pierceable = bool(feasible[found])
    if pierceable:
        xs, pa, pb = xs[:found + 1], pa[:found + 1], pb[:found + 1]
    for ends, pointer in ((a_ends, pa), (b_ends, pb)):
        passed = ends[:pointer[-1]]
        _tally(counter, passed, xs[np.searchsorted(xs, passed)])
        counter.gt += int(np.count_nonzero(pointer < n))
    hi, hi_at, hi2 = _merge_bulk(hi_a, pa, hi_b, pb, GT, counter)
    lo, lo_at, lo2 = _merge_bulk(lo_a, pa, lo_b, pb, LT, counter)
    _tally(counter, hi, lo)
    swept = len(xs) - pierceable  # the steps that test deletions and b0
    ahead = pa[:swept]
    _tally(counter, a_ends[ahead[ahead < n]], b0)
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
    if pierceable:
        return (int(xs[-1]), int(hi[-1])), ()
    return None, tuple(np.flatnonzero(first_hit[:n] == 2 * swept).tolist())


def check_minimality(instance: PiercingInstance) -> MinimalityReport:
    """Decide the full family and each leave-one-out subfamily, in cross order.

    One ``solve_piercing`` sweep in place of N+1 solves.  Both it and the
    counter are looked up on the module at call time, so a tally or tracer
    swapped in there sees every comparison, and a tracer that counts per
    ``solve_piercing`` call also counts the sweep.
    """
    verdict = solve_piercing(instance, QueryCounter())
    return MinimalityReport(verdict.pierceable, instance.n, verdict.blocking)


def _ladder_crosses(n: int):
    """Threshold ladder for the general minimal non-pierceable family, N >= 5:
    M, then the [lo, hi] pairs of its crosses' h and v arms over [0, M].

    Alternating top/bottom corner boxes whose thresholds interleave; each box
    is the sole cover of one slab, so removing any cross opens a hole.  One
    rule for both parities: with h = N // 2, a south-west box, then the pairs
    NW(2j+1, 2j-1), SE(u_j, 2j+2) for j = 1..h-2 (u_1 = 1, else u_j = 2j),
    then three closing boxes for even N or four for odd N.  The
    ``test_golden`` pins hold it to the ranks of the earlier case-by-case
    transcription for every N up to 300.
    """
    M, h = n + 2, n // 2

    def u(j):
        return 1 if j == 1 else 2 * j

    boxes = [("SW", 2, 2)]  # (kind, x threshold, y threshold)
    for j in range(1, h - 1):
        boxes += [("NW", 2 * j + 1, 2 * j - 1), ("SE", u(j), 2 * j + 2)]
    if n % 2:
        boxes += [("NW", 2 * h - 1, 2 * h - 3), ("SE", u(h - 1), 2 * h + 1),
                  ("NW", 2 * h + 1, 2 * h - 1), ("NE", 2 * h, 2 * h)]
    else:
        boxes += [("NW", 2 * h, 2 * h - 3), ("NE", 2 * h - 2, 2 * h - 1),
                  ("SE", 2 * h - 1, 2 * h)]

    # an east box leaves x <= r to the horizontal arm, a north box y <= r
    return (M, [(0, r) if kind[1] == "E" else (r, M) for kind, r, _ in boxes],
            [(0, r) if kind[0] == "N" else (r, M) for kind, _, r in boxes])


def gen_staircase_minimal(n: int, verify: bool = True) -> PiercingInstance:
    """A family of N crosses with empty intersection whose proper subsets all pierce.

    Unless ``verify`` is false, the construction is self-verified by
    ``check_minimality``.
    """
    if n < 3:
        raise ValueError("minimal non-pierceable family needs N >= 3")
    if n == 3:
        M, h, v = 2, [(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 1), (2, 2)]
    elif n == 4:
        M, h, v = 3, [(0, 1), (2, 3), (0, 1), (2, 3)], [(0, 1), (2, 3), (2, 3), (0, 1)]
    else:
        M, h, v = _ladder_crosses(n)
    dom = Interval(0, M)
    inst = PiercingInstance(dom, dom, h=np.array(h, dtype=np.int64), v=np.array(v, dtype=np.int64))
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
    if n not in (8, 9):
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
    return PiercingInstance(Interval(0, x_hi), Interval(0, 8), h=h, v=v)


def gen_random_piercing(n: int, rng) -> PiercingInstance:
    """Random crosses over [0, 2N]^2: two ``gen_random_coverage`` draws, h then v."""
    h, v = gen_random_coverage(n, rng), gen_random_coverage(n, rng)
    return PiercingInstance(h.domain, v.domain, h=h.ends, v=v.ends)
