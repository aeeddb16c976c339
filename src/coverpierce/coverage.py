"""Coverage of a base interval by N subintervals, with adversarial chain families.

The decider sorts by left endpoint and extends a greedy reach; a structurally
independent cell-scan oracle double-checks it.  From ``BULK_MIN_N`` intervals
on, the sort and the sweep run in bulk with numpy and count the same
comparisons as the scalar merge and loop, which stay as their reference below
it; N alone picks the path, for int64 columns and columns of Python ints
alike.  ``gen_chain`` / ``flip_link`` build the permutation-indexed covering
families and their broken variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GT,
    LT,
    ContainmentViolation,
    CoverageInstance,
    Interval,
    Permutation,
    QueryCounter,
    as_int,
)
from .sorting import _tally, merge_sort_counted

# measured crossover of solve_coverage, bulk sort and sweep against the scalar
# merge and loop: bulk wins from N = 80 on both chains and random intervals
BULK_MIN_N = 80


@dataclass(frozen=True)
class CoverageVerdict:
    covered: bool
    gap_witness: tuple | None
    queries_used: int

    def to_dict(self) -> dict:
        out = {"covered": self.covered, "queries": self.queries_used}
        if self.gap_witness is not None:
            out["gap"] = [self.gap_witness[0], self.gap_witness[1]]
        return out

    def witness_sound(self, instance: CoverageInstance) -> bool:
        """True when a negative verdict's gap lies in the domain and meets no interval."""
        if self.covered:
            return self.gap_witness is None
        if self.gap_witness is None:
            return instance.domain.lo == instance.domain.hi
        g_lo, g_hi = self.gap_witness
        ends = instance.ends
        # in the domain first: an int64 column's domain fits int64, so then the gap does
        return bool(instance.domain.lo <= g_lo < g_hi <= instance.domain.hi
                    and not np.any((ends[:, 1] > g_lo) & (ends[:, 0] < g_hi)))


def solve_coverage(instance: CoverageInstance, counter: QueryCounter | None = None) -> CoverageVerdict:
    """Decide whether the union of the closed intervals equals the closed domain.

    Sorts by left endpoint, then sweeps left to right keeping the supremum of
    the covered prefix.  The gap witness, when present, is the leftmost maximal
    uncovered open interval.  An interval that starts right of a non-point
    domain raises :class:`ContainmentViolation`: the sweep would report a gap
    that leaves the domain.
    """
    if counter is None:
        counter = QueryCounter()
    before = counter.comparisons
    domain, ends = instance.domain, instance.ends
    if domain.lo == domain.hi:
        # point domain: covered iff some member interval holds the point
        covered = any(counter.compare(lo, domain.lo) != GT
                      and counter.compare(hi, domain.lo) != LT for lo, hi in ends.tolist())
        return CoverageVerdict(covered, None, counter.comparisons - before)
    if len(ends) >= BULK_MIN_N:  # the bulk sort takes the column as it is
        order = merge_sort_counted(ends[:, 0], counter)
        los, his, sweep = ends[order, 0], ends[order, 1], _sweep_bulk
    else:
        los, his = ends.T.tolist()
        order = merge_sort_counted(los, counter)
        los, his, sweep = [los[i] for i in order], [his[i] for i in order], _sweep
    if len(los) and los[-1] > domain.hi:
        # one uncounted check, like validate's, so in-domain counts stay as they are
        raise ContainmentViolation(f"{Interval(los[-1], his[-1])} starts right of domain {domain}")
    gap = sweep(los, his, domain, counter)
    return CoverageVerdict(gap is None, gap, counter.comparisons - before)


def _sweep(los: list, his: list, domain: Interval, counter: QueryCounter) -> tuple | None:
    """The leftmost gap left by the intervals sorted by left end, or None,
    one counted comparison at a time."""
    reach = domain.lo
    compare = counter.compare
    for lo, hi in zip(los, his):
        if compare(lo, reach) == GT:
            return reach, lo
        if compare(hi, reach) == GT:
            reach = hi
    if compare(reach, domain.hi) == LT:
        return reach, domain.hi
    return None


def _sweep_bulk(los: np.ndarray, his: np.ndarray, domain: Interval,
                counter: QueryCounter) -> tuple | None:
    """:func:`_sweep`'s gap and tallies, in bulk.  The reach that interval i
    meets is the running maximum of the domain's lo and the his before i; the
    sweep compares lo and hi with it up to the first lo beyond it, where the
    gap starts."""
    n = len(los)
    reach = np.maximum.accumulate(np.concatenate((np.array([domain.lo], his.dtype), his)))
    met = reach[:-1]
    beyond = los > met
    stop = int(np.argmax(beyond)) if beyond.any() else n
    _tally(counter, los[:stop + 1], met[:stop + 1])  # up to the lo that stops the sweep
    _tally(counter, his[:stop], met[:stop])
    if stop < n:
        return int(met[stop]), int(los[stop])
    if counter.compare(reach[n], domain.hi) == LT:
        return int(reach[n]), domain.hi
    return None


def oracle_coverage(instance: CoverageInstance) -> CoverageVerdict:
    """Brute-force reference decider by cover counts per cell; no query counting.

    The cells are the V endpoint values inside the domain and the open spans
    between consecutive ones, interleaved as P0 G0 P1 G1 ... P(V-1); each
    interval covers one run of them, counted by a difference array.  The gap
    witness is the interior of the leftmost maximal uncovered run.
    O((N+V) log V) time and O(N+V) memory.
    """
    domain, ends = instance.domain, instance.ends
    # the column's dtype holds its domain's ends: a list of them could become float64
    v = np.sort(np.concatenate((np.array([domain.lo, domain.hi], ends.dtype), ends.ravel())))
    # the first of each run of equal values; np.unique would import numpy.ma, 2 MB of RSS
    v = v[(v >= domain.lo) & (v <= domain.hi) & np.append(True, v[1:] != v[:-1])]
    cells = 2 * len(v) - 1
    first = np.searchsorted(v, ends[:, 0], side="left")
    last = np.searchsorted(v, ends[:, 1], side="right") - 1
    meets = first <= last  # an interval outside the domain holds no value
    delta = (np.bincount(2 * first[meets], minlength=cells + 1)
             - np.bincount(2 * last[meets] + 1, minlength=cells + 1))
    count = np.cumsum(delta[:cells])
    run = int(np.argmin(count))
    if count[run] > 0:
        return CoverageVerdict(True, None, 0)
    # each value but the domain's ends is an endpoint of an interval holding
    # it, so the leftmost uncovered run is one span cell and at most the
    # uncovered domain ends beside it; a point domain has no span at all
    i = run // 2
    return CoverageVerdict(False, (int(v[i]), int(v[i + 1])) if i + 1 < len(v) else None, 0)


def _links(n: int) -> np.ndarray:
    """Links 1..N of a chain, in order: [0, 2], then [2k - 3, 2k], and [2N - 3, 2N - 1]."""
    k = np.arange(1, n + 1)
    return np.stack((np.maximum(2 * k - 3, 0), np.minimum(2 * k, 2 * n - 1)), axis=1)


def gen_chain(perm) -> CoverageInstance:
    """Chain of overlapping intervals on ranks 0..2N-1, ordered by ``perm``.

    Link k starts before link k-1 ends, so the union covers the whole domain
    and deleting any single link breaks coverage.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(perm))
    N = len(perm)
    if N < 2:
        raise ValueError("chain needs N >= 2")
    ends = np.empty((N, 2), dtype=np.int64)
    ends[np.array(perm.order, dtype=np.int64) - 1] = _links(N)  # link k: interval perm.order[k-1]
    return CoverageInstance(Interval(0, 2 * N - 1), ends=ends, _own=True)


def flip_link(chain: CoverageInstance, k: int) -> CoverageInstance:
    """Swap the ranks of link k's start and link k-1's end, breaking the chain.
    The links are taken in order of their starts; a non-chain raises ``ValueError``."""
    N, ends, k = chain.n, chain.ends, as_int(k)
    at = np.zeros(N, dtype=np.int64)  # interval index of each link
    # a chain's starts 0, 1, 3, ..., 2N - 3 name its links: start s is link (s + 1) // 2;
    # whatever lands where, the check below passes only for a chain
    at[np.clip((ends[:, 0] + 1) // 2, 0, N - 1).astype(np.int64)] = np.arange(N)
    if (chain.domain.lo, chain.domain.hi) != (0, 2 * N - 1) or not np.array_equal(
            ends[at], _links(N)):
        raise ValueError(f"flip_link needs a chain of {N} links over [0, {2 * N - 1}]")
    if not 2 <= k <= N:
        raise ValueError(f"flip position {k} out of range 2..{N}")
    ends = ends.copy()
    # ranks 2k-3 (start of link k) and 2k-2 (end of link k-1) change places
    ends[at[k - 1], 0] = 2 * k - 2
    ends[at[k - 2], 1] = 2 * k - 3
    return CoverageInstance(chain.domain, ends=ends, _own=True)


def check_equality_by_coverage(values, counter: QueryCounter | None = None) -> bool:
    """All-distinct test via coverage: unit intervals [m, m+1] over [0, N]."""
    values = [as_int(v) for v in values]
    N = len(values)
    for v in values:
        if not 0 <= v <= N - 1:
            raise ValueError(f"value {v} out of range 0..{N - 1}")
    return N == 0 or solve_coverage(  # no values: all distinct, though none cover [0, 0]
        CoverageInstance(Interval(0, N), ends=np.add.outer(values, [0, 1]), _own=True),
        counter).covered


def gen_disjoint(n: int) -> CoverageInstance:
    """N separated unit intervals over [0, 2N]; uncovered for every N."""
    if as_int(n) < 1:
        raise ValueError("disjoint family needs N >= 1")
    return CoverageInstance(Interval(0, 2 * n),
                            ends=np.arange(2 * n, dtype=np.int64).reshape(n, 2), _own=True)


def gen_random_coverage(n: int, rng) -> CoverageInstance:
    """Random subintervals of [0, 2N] with i.i.d. endpoints."""
    if as_int(n) < 0:
        raise ValueError("negative size")
    span = max(2 * n, 1)
    ends = np.sort(rng.randint(0, span + 1, size=(n, 2)).astype(np.int64, copy=False), axis=1)
    return CoverageInstance(Interval(0, span), ends=ends, _own=True)
