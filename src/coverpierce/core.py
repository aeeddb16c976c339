"""Instance data model, rank normalization, validation and the counting comparator.

All geometry is done on integer ranks.  Raw decimal coordinates are densely
ranked on load, after which every decision procedure works with exact integer
comparisons routed through a :class:`QueryCounter`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

LT = "<"
EQ = "="
GT = ">"


class InstanceError(ValueError):
    """An instance violates a structural invariant."""


class ContainmentViolation(InstanceError):
    """A member interval escapes its domain."""


class DegenerateInterval(InstanceError):
    """A zero-length interval was rejected under strict validation."""


def as_int(v) -> int:
    """``v`` as a Python int; a float or bool raises instead of truncating."""
    if type(v) is not int and (isinstance(v, bool) or not hasattr(type(v), "__index__")):
        raise InstanceError(f"expected an integer, got {v!r}")
    return operator.index(v)  # numpy integers pass: generators draw with numpy


@dataclass
class QueryCounter:
    """Tally of order queries, classified by realized outcome."""

    lt: int = 0
    eq: int = 0
    gt: int = 0

    @property
    def comparisons(self) -> int:
        return self.lt + self.eq + self.gt

    @property
    def outcome_histogram(self) -> dict:
        return {LT: self.lt, EQ: self.eq, GT: self.gt}

    def compare(self, x, y) -> str:
        if x < y:
            self.lt += 1
            return LT
        if x > y:
            self.gt += 1
            return GT
        self.eq += 1
        return EQ


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        # the solvers are exact on integer ranks only; bool is not a rank
        if type(self.lo) is not int or type(self.hi) is not int:
            raise InstanceError(f"interval bounds must be int ranks, got {self.lo!r}, {self.hi!r}")
        if self.lo > self.hi:
            raise InstanceError(f"interval lo {self.lo} > hi {self.hi}")

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class Cross:
    """One interval per axis; the cross is {x in h} union {y in v}."""

    h: Interval
    v: Interval

    def contains(self, x, y) -> bool:
        return self.h.contains(x) or self.v.contains(y)


@dataclass(frozen=True)
class CoverageInstance:
    domain: Interval
    intervals: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class PiercingInstance:
    xdomain: Interval
    ydomain: Interval
    crosses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "crosses", tuple(self.crosses))

    @property
    def n(self) -> int:
        return len(self.crosses)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..N}, stored as the ordered tuple of images."""

    order: tuple

    def __post_init__(self):
        order = tuple(as_int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {order}")

    def __len__(self):
        return len(self.order)

    def __getitem__(self, k):
        return self.order[k]

    def preserves_parity(self) -> bool:
        return all((k + 1) % 2 == i % 2 for k, i in enumerate(self.order))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def normalize_ranks(coords):
    """Densely rank raw coordinates.

    Returns ``(rank_map, max_rank)`` where equal inputs share a rank, ranks
    run 0..K over the distinct values, and all order relations are preserved.
    """
    values = list(coords)
    for v in values:
        # an int is finite, and float() would overflow on a huge one
        if type(v) is not int and not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")
    distinct = sorted(set(values))
    rank_map = {v: r for r, v in enumerate(distinct)}
    return rank_map, len(distinct) - 1


def validate(instance, strict: bool = False):
    """Check containment invariants; with ``strict`` also forbid zero-length members."""
    if isinstance(instance, CoverageInstance):
        if instance.domain.lo >= instance.domain.hi and strict:
            raise DegenerateInterval("degenerate domain")
        for iv in instance.intervals:
            if not instance.domain.contains_interval(iv):
                raise ContainmentViolation(f"{iv} escapes domain {instance.domain}")
            if strict and iv.degenerate:
                raise DegenerateInterval(f"degenerate interval {iv}")
        return instance
    if isinstance(instance, PiercingInstance):
        for cr in instance.crosses:
            if not instance.xdomain.contains_interval(cr.h):
                raise ContainmentViolation(f"{cr.h} escapes x-domain {instance.xdomain}")
            if not instance.ydomain.contains_interval(cr.v):
                raise ContainmentViolation(f"{cr.v} escapes y-domain {instance.ydomain}")
            if strict and (cr.h.degenerate or cr.v.degenerate):
                raise DegenerateInterval(f"degenerate cross arm in {cr}")
        return instance
    raise TypeError(f"not an instance: {instance!r}")


# --- JSON instance format ---------------------------------------------------
#
# {"problem": "coverage", "domain": [0, 5], "intervals": [[0, 2], [1, 4]]}
# {"problem": "piercing", "xdomain": [0, 3], "ydomain": [0, 3],
#  "crosses": [{"h": [0, 1], "v": [0, 1]}, ...]}
#
# Integer coordinates are kept verbatim; decimal coordinates are densely
# ranked per axis on load.


def _as_ranks(pairs):
    """Flatten one axis worth of [lo, hi] pairs to ints, ranking if any is fractional.

    Each pair must be a list of exactly two numbers; bools and strings are not
    numbers here, although ``float()`` would accept them.
    """
    flat = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise InstanceError(f"expected a [lo, hi] pair, got {pair!r}")
        flat += pair
    kinds = set(map(type, flat)) - {int, float}
    if kinds:
        names = sorted(k.__name__ for k in kinds)
        raise InstanceError(f"coordinates must be numbers, not {names}")
    # ints are tested by type: float() overflows on a huge one, and ranking
    # compares int with float exactly
    if all(type(v) is int or v.is_integer() for v in flat):
        return [int(v) for v in flat]
    rank_map, _ = normalize_ranks(flat)
    return [rank_map[v] for v in flat]


def instance_from_dict(obj) -> CoverageInstance | PiercingInstance:
    try:
        problem = obj["problem"]
        if problem == "coverage":
            ranks = _as_ranks([obj["domain"], *obj["intervals"]])
            domain = Interval(ranks[0], ranks[1])
            ivs = [Interval(ranks[i], ranks[i + 1]) for i in range(2, len(ranks), 2)]
            return CoverageInstance(domain, ivs)
        if problem == "piercing":
            xr = _as_ranks([obj["xdomain"], *(cr["h"] for cr in obj["crosses"])])
            yr = _as_ranks([obj["ydomain"], *(cr["v"] for cr in obj["crosses"])])
            xdomain = Interval(xr[0], xr[1])
            ydomain = Interval(yr[0], yr[1])
            crosses = [
                Cross(Interval(xr[2 + 2 * i], xr[3 + 2 * i]),
                      Interval(yr[2 + 2 * i], yr[3 + 2 * i]))
                for i in range(len(obj["crosses"]))
            ]
            return PiercingInstance(xdomain, ydomain, crosses)
        raise InstanceError(f"unknown problem kind {problem!r}")
    except (KeyError, TypeError, IndexError) as exc:
        raise InstanceError(f"malformed instance object: {exc}") from exc


def instance_to_dict(instance) -> dict:
    if isinstance(instance, CoverageInstance):
        return {
            "problem": "coverage",
            "domain": [instance.domain.lo, instance.domain.hi],
            "intervals": [[iv.lo, iv.hi] for iv in instance.intervals],
        }
    if isinstance(instance, PiercingInstance):
        return {
            "problem": "piercing",
            "xdomain": [instance.xdomain.lo, instance.xdomain.hi],
            "ydomain": [instance.ydomain.lo, instance.ydomain.hi],
            "crosses": [
                {"h": [c.h.lo, c.h.hi], "v": [c.v.lo, c.v.hi]}
                for c in instance.crosses
            ],
        }
    raise TypeError(f"not an instance: {instance!r}")


def dumps_instance(instance) -> str:
    return json.dumps(instance_to_dict(instance), separators=(",", ":")) + "\n"


def loads_instance(text: str):
    return instance_from_dict(json.loads(text))


def dump_instance(instance, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_instance(instance))
