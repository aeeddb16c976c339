"""Instance data model, validation, the JSON loader and the counting comparator.

All geometry is done on integer ranks.  Raw decimal coordinates are densely
ranked on load, after which every decision procedure works with exact integer
comparisons routed through a :class:`QueryCounter`.  An instance stores its
members as new read-only (N, 2) columns of [lo, hi] ends, one per axis:
int64 while every b + 1 of the axis fits, else object arrays of Python ints.
The solvers take both down the same paths; only N picks scalar or bulk.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        # the solvers are exact on integer ranks only: a numpy integer is kept
        # as its Python int, and a float or bool raises
        if type(self.lo) is not int or type(self.hi) is not int:
            object.__setattr__(self, "lo", as_int(self.lo))
            object.__setattr__(self, "hi", as_int(self.hi))
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


_INT64_MIN, _INT64_MAX = -1 << 63, (1 << 63) - 1


def _int_array(values) -> np.ndarray:
    """Ints as a new int64 array, else as an object array of the same Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _axis(pairs, domain: Interval) -> np.ndarray:
    """[lo, hi] ``pairs`` as a new read-only (N, 2) column: int64 when every
    value and both ends of ``domain`` lie in [-2^63, 2^63 - 2], so that every
    b + 1 fits, else an object array of the exact Python ints."""
    column = _int_array(pairs).reshape(-1, 2)
    fits = _INT64_MIN <= domain.lo and domain.hi < _INT64_MAX
    if column.dtype != object and not (fits and column.max(initial=domain.hi) < _INT64_MAX):
        column = column.astype(object)
    column.setflags(write=False)
    return column


def _columns(*columns) -> list:
    """The columns, of one N, as int64 or object arrays, other widths as
    lists of Python ints.  Raises :class:`InstanceError` on floats, bools and
    other shapes, and as :class:`Interval` does on the first row with lo > hi
    in any column, the columns of a row taken in order."""
    for column in columns:
        shaped = isinstance(column, np.ndarray) and column.ndim == 2 and column.shape[1] == 2
        if not shaped or column.dtype.kind not in "iuO" or (  # bool is kind "b"
                column.dtype == object and set(map(type, column.ravel().tolist())) - {int}):
            raise InstanceError("ends must be an (N, 2) array of int ranks, got "
                                f"{getattr(column, 'dtype', type(column).__name__)}"
                                f" of shape {getattr(column, 'shape', None)}")
    if len(set(map(len, columns))) > 1:
        raise InstanceError(f"arms of different counts: {list(map(len, columns))}")
    flipped = [column[:, 0] > column[:, 1] for column in columns]
    if any(f.any() for f in flipped):
        row = int(np.argmax(np.logical_or.reduce(flipped)))
        for column in columns:
            Interval(*column[row].tolist())
    # a cast from another width would wrap a uint64 beyond int64 silently
    return [column if column.dtype in (np.int64, object) else column.tolist()
            for column in columns]


class CoverageInstance:
    """A domain and N closed intervals, stored as the (N, 2) column ``ends``.

    Pass the intervals as :class:`Interval` objects, or pass ``ends`` (int64,
    or Python ints in an object array) in their place.  ``intervals`` gives
    them back as objects, built on first use."""

    def __init__(self, domain: Interval, intervals=(), *, ends: np.ndarray | None = None):
        self.domain = domain
        if ends is None:
            self.intervals = tuple(intervals)
            ends = [(iv.lo, iv.hi) for iv in self.intervals]
        else:
            ends, = _columns(ends)
        self.ends = _axis(ends, domain)

    @cached_property
    def intervals(self) -> tuple:
        return tuple(itertools.starmap(Interval, self.ends.tolist()))

    @property
    def n(self) -> int:
        return len(self.ends)

    def __eq__(self, other):
        return (type(other) is type(self) and self.domain == other.domain
                and np.array_equal(self.ends, other.ends))

    def __repr__(self):
        return f"{type(self).__name__}(domain={self.domain!r}, intervals={self.intervals!r})"


class PiercingInstance:
    """Two domains and N crosses, stored as the (N, 2) columns ``h`` and
    ``v`` of their horizontal and vertical arms.

    Pass the crosses as :class:`Cross` objects, or pass ``h`` and ``v`` (each
    int64, or Python ints in an object array) in their place.  ``crosses``
    gives them back as objects, built on first use."""

    def __init__(self, xdomain: Interval, ydomain: Interval, crosses=(), *,
                 h: np.ndarray | None = None, v: np.ndarray | None = None):
        self.xdomain, self.ydomain = xdomain, ydomain
        if h is None:
            crs = self.crosses = tuple(crosses)
            h, v = [(cr.h.lo, cr.h.hi) for cr in crs], [(cr.v.lo, cr.v.hi) for cr in crs]
        else:
            h, v = _columns(h, v)
        self.h, self.v = _axis(h, xdomain), _axis(v, ydomain)

    @cached_property
    def crosses(self) -> tuple:
        return tuple(Cross(Interval(*h), Interval(*v))
                     for h, v in zip(self.h.tolist(), self.v.tolist()))

    @property
    def n(self) -> int:
        return len(self.h)

    def __eq__(self, other):
        return (type(other) is type(self) and self.xdomain == other.xdomain
                and self.ydomain == other.ydomain
                and np.array_equal(self.h, other.h) and np.array_equal(self.v, other.v))

    def __repr__(self):
        return (f"PiercingInstance(xdomain={self.xdomain!r}, ydomain={self.ydomain!r},"
                f" crosses={self.crosses!r})")


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..N}, stored as the ordered tuple of images."""

    order: tuple

    def __post_init__(self):
        order = tuple(self.order)
        if set(map(type, order)) - {int}:
            order = tuple(map(as_int, order))  # numpy ints pass; floats and bools raise
        object.__setattr__(self, "order", order)
        n = len(order)
        # n distinct images in 1..n are 1..n; numpy's fixed cost would triple it at N=3
        if len(set(order)) != n or min(order, default=1) < 1 or max(order, default=n) > n:
            raise ValueError(f"not a permutation of 1..{n}: {order}")

    def __len__(self):
        return len(self.order)

    def preserves_parity(self) -> bool:
        return all((k + 1) % 2 == i % 2 for k, i in enumerate(self.order))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def validate(instance, strict: bool = False):
    """Check containment invariants; with ``strict`` also forbid zero-length
    domains and members.  The first member at fault, in order, is reported."""
    if isinstance(instance, CoverageInstance):
        axes = (("", instance.domain, instance.ends),)
    elif isinstance(instance, PiercingInstance):
        axes = (("x-", instance.xdomain, instance.h), ("y-", instance.ydomain, instance.v))
    else:
        raise TypeError(f"not an instance: {instance!r}")
    bad = None
    for axis, domain, ends in axes:
        if strict and domain.degenerate:
            raise DegenerateInterval(f"degenerate {axis}domain {domain}")
        faults = (ends[:, 0] < domain.lo) | (ends[:, 1] > domain.hi)
        if strict:
            faults |= ends[:, 0] == ends[:, 1]
        bad = faults if bad is None else bad | faults
    if np.count_nonzero(bad):  # a quarter of bad.any()'s fixed cost on a tiny array
        i = np.argmax(bad)
        arms = [(axis, domain, Interval(*ends[i].tolist())) for axis, domain, ends in axes]
        for axis, domain, iv in arms:
            if not domain.contains_interval(iv):
                raise ContainmentViolation(f"{iv} escapes {axis}domain {domain}")
        axis, _, iv = next(arm for arm in arms if arm[2].degenerate)
        raise DegenerateInterval(f"degenerate {axis}interval {iv}")
    return instance


# --- JSON instance format ---------------------------------------------------
#
# {"problem": "coverage", "domain": [0, 5], "intervals": [[0, 2], [1, 4]]}
# {"problem": "piercing", "xdomain": [0, 3], "ydomain": [0, 3],
#  "crosses": [{"h": [0, 1], "v": [0, 1]}, ...]}
#
# Integer coordinates are kept verbatim; decimal coordinates are densely
# ranked per axis on load.


def _column(pairs) -> np.ndarray:
    """One axis worth of [lo, hi] pairs as an (n, 2) column of ints, ranked
    densely if any value is fractional.

    Each pair must be a list of exactly two numbers; bools and strings are not
    numbers here, although ``float()`` and numpy would accept them.
    """
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        pair = next(p for p in pairs if type(p) is not list or len(p) != 2)
        raise InstanceError(f"expected a [lo, hi] pair, got {pair!r}")
    flat = list(itertools.chain.from_iterable(pairs))
    kinds = set(map(type, flat))
    if kinds - {int, float}:
        names = sorted(k.__name__ for k in kinds - {int, float})
        raise InstanceError(f"coordinates must be numbers, not {names}")
    return _int_array(_ints(flat) if float in kinds else flat).reshape(-1, 2)


def _ints(flat: list):
    """Numbers, one of them a float, as ints: the values themselves when all
    are integral, else their dense ranks."""
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        values = None
    # below 2^53 every value converts exactly, so float64 orders them as Python does
    if values is not None and np.all(np.abs(values) < 2.0 ** 53):
        if np.all(values == np.trunc(values)):
            return values.astype(np.int64)
        return np.unique(values, return_inverse=True)[1]
    # ints are tested by type: float() overflows on a huge one, and ranking
    # compares int with float exactly
    if all(type(v) is int or v.is_integer() for v in flat):
        return [int(v) for v in flat]
    for v in flat:  # NaN and infinities are not integral, so only ranking meets them
        if type(v) is not int and not math.isfinite(v):
            raise InstanceError(f"non-finite coordinate: {v!r}")
    rank = {v: r for r, v in enumerate(sorted(set(flat)))}
    return [rank[v] for v in flat]


def _members(obj, key) -> list:
    """``obj[key]``, which must be an array: an object or a string would unpack as members."""
    if type(obj[key]) is not list:
        raise InstanceError(f"{key!r} must be an array, got {type(obj[key]).__name__}")
    return obj[key]


def instance_from_dict(obj) -> CoverageInstance | PiercingInstance:
    try:
        problem = obj["problem"]
        if problem == "coverage":
            ends = _column([obj["domain"], *_members(obj, "intervals")])
            return CoverageInstance(Interval(*ends[0].tolist()), ends=ends[1:])
        if problem == "piercing":
            xs = _column([obj["xdomain"], *map(operator.itemgetter("h"), _members(obj, "crosses"))])
            ys = _column([obj["ydomain"], *map(operator.itemgetter("v"), obj["crosses"])])
            return PiercingInstance(Interval(*xs[0].tolist()), Interval(*ys[0].tolist()),
                                    h=xs[1:], v=ys[1:])
        raise InstanceError(f"unknown problem kind {problem!r}")
    except (KeyError, TypeError, IndexError) as exc:
        raise InstanceError(f"malformed instance object: {exc}") from exc


def instance_to_dict(instance) -> dict:
    if isinstance(instance, CoverageInstance):
        return {
            "problem": "coverage",
            "domain": [instance.domain.lo, instance.domain.hi],
            "intervals": instance.ends.tolist(),
        }
    if isinstance(instance, PiercingInstance):
        return {
            "problem": "piercing",
            "xdomain": [instance.xdomain.lo, instance.xdomain.hi],
            "ydomain": [instance.ydomain.lo, instance.ydomain.hi],
            "crosses": [{"h": h, "v": v}
                        for h, v in zip(instance.h.tolist(), instance.v.tolist())],
        }
    raise TypeError(f"not an instance: {instance!r}")


_CHUNK_ROWS = 1 << 14  # members per piece of JSON text


def dump_chunks(instance):
    """The JSON text of ``instance_to_dict(instance)``, compact and ending in a
    newline, in pieces of at most ``_CHUNK_ROWS`` members each, written
    straight from the columns."""
    if isinstance(instance, CoverageInstance):
        d = instance.domain
        yield f'{{"problem":"coverage","domain":[{d.lo},{d.hi}],"intervals":['
        columns, row = (instance.ends,), "[%d,%d]"
    elif isinstance(instance, PiercingInstance):
        x, y = instance.xdomain, instance.ydomain
        yield (f'{{"problem":"piercing","xdomain":[{x.lo},{x.hi}],'
               f'"ydomain":[{y.lo},{y.hi}],"crosses":[')
        columns, row = (instance.h, instance.v), '{"h":[%d,%d],"v":[%d,%d]}'
    else:
        raise TypeError(f"not an instance: {instance!r}")
    for start in range(0, instance.n, _CHUNK_ROWS):
        chunk = np.concatenate([c[start:start + _CHUNK_ROWS] for c in columns], axis=1)
        text = ",".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
        yield "," + text if start else text
    yield "]}\n"


def loads_instance(text: str):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or nesting too deep to decode
        raise InstanceError(str(exc)) from exc
    return instance_from_dict(obj)


def dump_instance(instance, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(dump_chunks(instance))
