"""Verdict checks that share no code with the solvers or the oracles.

Instances are held as numpy arrays of integer ranks.  A positive piercing
verdict is checked through its witness, a negative coverage verdict through
its gap.  The other two cases have no witness to check, so they are decided
again here by a different method: a numpy slab check for piercing and a sort
plus running maximum for coverage.  Checks return a reason string on
rejection and ``None`` on acceptance; they never raise on bad verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiercingArrays:
    """Crosses as arms [a, b] on x and [c, d] on y, inside the two domains."""

    x0: int
    x1: int
    y0: int
    y1: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a)

    def without(self, i: int) -> "PiercingArrays":
        """The family with cross ``i`` left out."""
        keep = np.arange(self.n) != i
        return PiercingArrays(self.x0, self.x1, self.y0, self.y1,
                              self.a[keep], self.b[keep], self.c[keep], self.d[keep])


@dataclass(frozen=True)
class CoverageArrays:
    """Closed intervals [lo, hi] inside the closed domain [lo0, hi0]."""

    lo0: int
    hi0: int
    lo: np.ndarray
    hi: np.ndarray


def piercing_point(p: PiercingArrays):
    """A point meeting every cross, or ``None`` when none exists.

    For a fixed x, every cross whose x-arm misses x forces y into its y-arm.
    Those crosses are the ones with a > x (a suffix in the order by a) and
    the ones with b < x (a prefix in the order by b), so suffix and prefix
    max/min accumulations give the feasible y-range at each x.  The set of
    forcing crosses is smallest at an endpoint value, so the endpoint values
    inside the x-domain are the only candidates needed.
    """
    if p.n == 0:
        return p.x0, p.y0
    xs = np.unique(np.concatenate(([p.x0, p.x1], p.a, p.b)))
    xs = xs[(xs >= p.x0) & (xs <= p.x1)]
    by_a = np.argsort(p.a, kind="stable")
    by_b = np.argsort(p.b, kind="stable")
    low_a = np.append(np.maximum.accumulate(p.c[by_a][::-1])[::-1], p.y0)
    high_a = np.append(np.minimum.accumulate(p.d[by_a][::-1])[::-1], p.y1)
    k = np.searchsorted(p.a[by_a], xs, side="right")
    low_b = np.concatenate(([p.y0], np.maximum.accumulate(p.c[by_b])))
    high_b = np.concatenate(([p.y1], np.minimum.accumulate(p.d[by_b])))
    j = np.searchsorted(p.b[by_b], xs, side="left")
    low = np.maximum(np.maximum(low_a[k], low_b[j]), p.y0)
    high = np.minimum(np.minimum(high_a[k], high_b[j]), p.y1)
    feasible = np.flatnonzero(low <= high)
    if feasible.size == 0:
        return None
    i = feasible[0]
    return int(xs[i]), int(low[i])


def covers(cv: CoverageArrays) -> bool:
    """Whether the intervals cover the domain: sort by lo, then a running max of hi."""
    if cv.lo0 == cv.hi0:
        return len(cv.lo) > 0
    order = np.argsort(cv.lo, kind="stable")
    reach = np.maximum.accumulate(np.concatenate(([cv.lo0], cv.hi[order])))
    return bool(np.all(cv.lo[order] <= reach[:-1]) and reach[-1] >= cv.hi0)


def check_piercing(p: PiercingArrays, pierceable, witness) -> str | None:
    if pierceable is True:
        if witness is None or len(witness) != 2:
            return f"positive piercing verdict without a witness: {witness!r}"
        x, y = witness
        if not (p.x0 <= x <= p.x1 and p.y0 <= y <= p.y1):
            return f"witness {witness} outside the domain"
        hit = ((p.a <= x) & (x <= p.b)) | ((p.c <= y) & (y <= p.d))
        if not hit.all():
            return f"witness {witness} misses cross {int(np.argmin(hit))}"
        return None
    if pierceable is False:
        point = piercing_point(p)
        if point is not None:
            return f"negative piercing verdict, but {point} meets every cross"
        return None
    return f"piercing verdict is not a boolean: {pierceable!r}"


def check_coverage(cv: CoverageArrays, covered, gap) -> str | None:
    if covered is True:
        if not covers(cv):
            return "positive coverage verdict, but the domain has a gap"
        return None
    if covered is False:
        if gap is None:
            if cv.lo0 == cv.hi0 and len(cv.lo) == 0:
                return None
            return "negative coverage verdict without a gap"
        if len(gap) != 2:
            return f"malformed gap {gap!r}"
        g0, g1 = gap
        if not cv.lo0 <= g0 < g1 <= cv.hi0:
            return f"gap {gap} is not inside the domain"
        met = ~((cv.hi <= g0) | (cv.lo >= g1))
        if met.any():
            return f"gap {gap} is met by interval {int(np.argmax(met))}"
        return None
    return f"coverage verdict is not a boolean: {covered!r}"


def check_verdict(arrays, verdict: dict) -> str | None:
    """Check one verdict dict as the CLI prints it (``pierceable`` or ``covered``)."""
    try:
        if not isinstance(verdict.get("queries"), int):
            return f"verdict has no integer query count: {verdict!r}"
        if isinstance(arrays, PiercingArrays):
            return check_piercing(arrays, verdict.get("pierceable"), verdict.get("witness"))
        return check_coverage(arrays, verdict.get("covered"), verdict.get("gap"))
    except (TypeError, ValueError, AttributeError) as exc:
        return f"malformed verdict {verdict!r}: {exc}"
