"""Instance data model, validation, the JSON loader and the counting comparator.

All geometry is done on integer ranks.  An axis with decimal coordinates is
densely ranked on load, unless all its values are integral, after which every
decision procedure works with exact integer comparisons routed through a
:class:`QueryCounter`.  One table spells the text that ``dump_chunks`` writes
and the bulk reader takes, plain decimals too; other JSON goes through
``json.loads``, and both hand one builder a column per axis.  An instance
stores its members as new read-only (N, 2) columns of [lo, hi] ends: int64
when all its values and domain ends fit, else object arrays of Python ints.
The solvers take both down the same paths; only N picks scalar or bulk.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
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


def _int_array(values) -> np.ndarray:
    """Ints as a new int64 array, else as an object array of the same Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _axis(pairs, domain: Interval, own: bool = False) -> np.ndarray:
    """[lo, hi] ``pairs`` as a new read-only (N, 2) column, int64 when they and
    ``domain``'s ends fit int64, else an object array of exact Python ints.
    With ``own``, an int64 array that no one else writes is kept, not copied."""
    column = pairs if own and getattr(pairs, "dtype", None) == np.int64 else _int_array(pairs)
    column = column.reshape(-1, 2)
    if not -1 << 63 <= domain.lo <= domain.hi < 1 << 63:
        column = column.astype(object, copy=False)
    column.setflags(write=False)
    return column


def _columns(*columns, members=None) -> list:
    """The columns, of one N, as int64 or object arrays, other widths as lists
    of Python ints.  Raises TypeError if the ``members`` came as objects too,
    InstanceError on a missing column, floats, bools and other shapes, and as
    :class:`Interval` does on the first row with lo > hi, its columns in order."""
    if members is not None:
        raise TypeError("members given both as objects and as columns")
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
    or Python ints in an object array) in their place, not both.  ``intervals``
    gives them back as objects, built on first use.  ``_own`` keeps a fresh
    int64 ``ends`` that the caller gives up, instead of copying it."""

    def __init__(self, domain: Interval, intervals=None, *, ends: np.ndarray | None = None,
                 _own: bool = False):
        self.domain = domain
        if ends is None:
            self.intervals = tuple(intervals or ())
            ends = [(iv.lo, iv.hi) for iv in self.intervals]
        else:
            ends, = _columns(ends, members=intervals)
        self.ends = _axis(ends, domain, _own)

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
    int64, or Python ints in an object array) in their place, not both.
    ``crosses`` gives them back as objects, built on first use.  ``_own``
    keeps fresh int64 columns that the caller gives up, instead of copying them."""

    def __init__(self, xdomain: Interval, ydomain: Interval, crosses=None, *,
                 h: np.ndarray | None = None, v: np.ndarray | None = None, _own: bool = False):
        self.xdomain, self.ydomain = xdomain, ydomain
        if h is None and v is None:
            crs = self.crosses = tuple(crosses or ())
            h, v = [(cr.h.lo, cr.h.hi) for cr in crs], [(cr.v.lo, cr.v.hi) for cr in crs]
        else:
            h, v = _columns(h, v, members=crosses)
        self.h, self.v = _axis(h, xdomain, _own), _axis(v, ydomain, _own)

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


def _axes(instance) -> tuple:
    """The problem of ``instance`` and its axes, each as (name, domain, column)."""
    if isinstance(instance, CoverageInstance):
        return "coverage", (("", instance.domain, instance.ends),)
    if isinstance(instance, PiercingInstance):
        return "piercing", (("x-", instance.xdomain, instance.h),
                            ("y-", instance.ydomain, instance.v))
    raise TypeError(f"not an instance: {instance!r}")


def validate(instance, strict: bool = False):
    """Check containment invariants; with ``strict`` also forbid zero-length
    domains and members.  The first member at fault, in order, is reported."""
    _, axes = _axes(instance)
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
        return _integral_or_ranks(values)
    # ints are tested by type: float() overflows on a huge one, and ranking
    # compares int with float exactly
    if all(type(v) is int or v.is_integer() for v in flat):
        return [int(v) for v in flat]
    for v in flat:  # NaN and infinities are not integral, so only ranking meets them
        if type(v) is not int and not math.isfinite(v):
            raise InstanceError(f"non-finite coordinate: {v!r}")
    rank = {v: r for r, v in enumerate(sorted(set(flat)))}
    return [rank[v] for v in flat]


def _integral_or_ranks(values: np.ndarray) -> np.ndarray:
    """Float64 values below 2^53 as int64: the values themselves when all are
    integral, else their dense ranks."""
    if np.all(values == np.trunc(values)):
        return values.astype(np.int64)
    return _dense_ranks(values)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """The dense ranks of totally ordered ``values`` as int64: np.unique's
    inverse, with fewer temporaries alive at once."""
    order = np.argsort(values)
    ordered = values[order]
    ranks = np.zeros(len(values), dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=ranks[1:])
    del ordered
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    return inverse


def _members(obj, key) -> list:
    """``obj[key]``, which must be an array: an object or a string would unpack as members."""
    if type(obj[key]) is not list:
        raise InstanceError(f"{key!r} must be an array, got {type(obj[key]).__name__}")
    return obj[key]


def _instance(problem: str, columns: list):
    """The ``problem``'s instance from one (1 + N, 2) int column per axis, its
    domain's ends in row 0; an int64 column's rows below are kept, not copied."""
    domains = [Interval(*column[0].tolist()) for column in columns]
    if problem == "coverage":
        return CoverageInstance(*domains, ends=columns[0][1:], _own=True)
    return PiercingInstance(*domains, h=columns[0][1:], v=columns[1][1:], _own=True)


def instance_from_dict(obj) -> CoverageInstance | PiercingInstance:
    try:
        problem = obj["problem"]
        if problem == "coverage":
            return _instance(problem, [_column([obj["domain"], *_members(obj, "intervals")])])
        if problem == "piercing":
            xs = _column([obj["xdomain"], *map(operator.itemgetter("h"), _members(obj, "crosses"))])
            ys = _column([obj["ydomain"], *map(operator.itemgetter("v"), obj["crosses"])])
            return _instance(problem, [xs, ys])
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

# The canonical text of each problem: its header, then its rows joined by
# ",", then "]}\n", every number a %d.  dump_chunks writes it, and the
# reader's header pattern, row skeleton and row separator are made from it.
_TEXT = {
    "coverage": ('{"problem":"coverage","domain":[%d,%d],"intervals":[', "[%d,%d]"),
    "piercing": ('{"problem":"piercing","xdomain":[%d,%d],"ydomain":[%d,%d],"crosses":[',
                 '{"h":[%d,%d],"v":[%d,%d]}'),
}


def dump_chunks(instance):
    """The JSON text of ``instance_to_dict(instance)``, compact and ending in a
    newline, in pieces of at most ``_CHUNK_ROWS`` members each, written
    straight from the columns."""
    problem, axes = _axes(instance)
    header, row = _TEXT[problem]
    yield header % tuple(end for _, domain, _ in axes for end in (domain.lo, domain.hi))
    for start in range(0, instance.n, _CHUNK_ROWS):
        chunk = np.concatenate([c[start:start + _CHUNK_ROWS] for *_, c in axes], axis=1)
        text = ",".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
        yield "," + text if start else text
    yield "]}\n"


# Bytes that the reader checks and parses at a time, up to the end of a row:
# in 64 KiB pieces its temporaries (a mask of the piece, the positions of its
# marks, a word per number) stay below glibc's default 128 KiB mmap
# threshold, so they come from the heap, not from fresh mappings that fault
# in every page.  With the threshold fixed there, loading the seed-1 2^16
# random-piercing file in 2^15-, 2^17- and 2^18-byte pieces took 1.07, 1.05
# and 1.25 times as long (medians of 12 alternating rounds, 2-core x86-64).
_PIECE_CHARS = 1 << 16

# The reader takes the canonical text with its numbers in compact JSON form,
# and also with plain decimals, as a JSON writer with compact separators puts
# floats: numbers -?(0|[1-9]\d*)(\.\d+)?, of at most 17 digits, which always
# fit int64, and of at most 15 in a text with a decimal, so that each is the
# float64 mantissa / 10^(fraction digits) exactly, the value json.loads gives.
_NUM = rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?)"
# For each problem: its name, its header, a row with its numbers deleted, the
# text between two rows, and where the numbers sit among the "[", "," and "]"
# of a row and the "," after it: number i between marks slots[i] and slots[i] + 1.
_CANONICAL = tuple(
    (problem, re.compile(re.escape(header.encode()).replace(b"%d", _NUM)),
     row.replace("%d", "").encode(), (row[-1] + "," + row[0]).encode(),
     np.cumsum([sum(map(part.count, "[,]")) for part in row.split("%d")[:-1]]) - 1)
    for problem, (header, row) in _TEXT.items())

# Eight ASCII digits in a little-endian word, the first in the low byte,
# become their value in three rounds of mask, multiply and shift, which join
# neighbouring groups of one, two and four digits (Lemire, "Number parsing at
# a gigabyte per second", Software: Practice and Experience 51(8), 2021).  The
# first round's mask, 0 here, is the run's own from _DIGITS.  Every operand is
# a uint64: numpy before 2.0 takes uint64 with int64 to float64.
_ROUNDS = [(np.uint64(mask), np.uint64(10**d << 8 * d | 1), np.uint64(8 * d))
           for mask, d in ((0, 1), (0x00FF00FF00FF00FF, 2), (0x0000FFFF0000FFFF, 4))]
# _DIGITS[d]: the last d bytes of a word, each as the digit 0 to 9 it spells
_DIGITS = np.array([(1 << 64) - (1 << 64 - 8 * d) & 0x0F0F0F0F0F0F0F0F for d in range(9)],
                   dtype=np.uint64)
_POWERS = np.array([10**k for k in range(19)], dtype=np.uint64)


def _digit_runs(words: np.ndarray, end: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The runs of ``size`` ASCII digits, up to 18 each and one or more in
    some, that end before the byte indices ``end``, as uint64 values;
    ``words[i]`` is the little-endian word of the eight bytes before byte i.
    Each run is read a word at a time from its last eight digits back, the
    bytes before it masked off."""
    count = -(-int(size.max()) // 8)  # words in the longest run
    for w in reversed(range(count)):  # the most significant first
        word = words[np.maximum(end - 8 * w, 0) if w else end]  # before byte 0 none is kept
        for mask, factor, shift in _ROUNDS:
            word &= mask or _DIGITS[np.clip(size - 8 * w, 0, 8) if count > 1 else size]
            word *= factor
            word >>= shift
        values = word if w == count - 1 else values * _POWERS[8] + word
    return values


def _piece_values(data: bytes, start: int, end: int, row: bytes, slots: np.ndarray,
                  limit: int):
    """The numbers of ``data[start:end]``, whole rows joined by ",", a line per
    row: int64 when the piece has no ".", else float64, each its digits over
    10 to the count of its fraction digits; or None unless each row is ``row``
    with a plain decimal of at most ``limit`` digits in each of its ``slots``.
    The eight bytes before the piece are read and dropped: a piece starts
    after the header."""
    piece = data[start:end]
    skeleton = piece.translate(None, b"-.0123456789")
    k, extra = divmod(len(skeleton) + 1, len(row) + 1)
    if extra or not ((row + b",") * k).startswith(skeleton):  # k >= 1: a piece is never empty
        return None
    b = np.frombuffer(piece, dtype=np.uint8)
    marks = np.append(np.flatnonzero((b == 44) | (b == 91) | (b == 93)), len(b)).reshape(k, -1)
    first, stop = marks[:, slots] + 1, marks[:, slots + 1]
    negative = b[first] == 45
    first += negative  # the first digit
    size = stop - first
    # the slots hold every digit, "-" and "." of the piece: none is elsewhere,
    # and a "-" comes first
    if not (size.sum() + np.count_nonzero(negative) == len(b) - len(skeleton)
            and np.count_nonzero(b == 45) == np.count_nonzero(negative)):
        return None
    whole = digits = size  # the digits before the ".", and in all
    point, decimal = stop, b"." in piece
    if decimal:
        dots = np.flatnonzero(b == 46)
        at = np.searchsorted(first.ravel(), dots, side="right") - 1  # the number of each "."
        point = stop.copy()
        point.ravel()[at] = dots
        whole, digits = point - first, size - (point < stop)
        # one "." a number, a digit after it: as many "." as numbers could still be two in one
        if (np.diff(at) <= 0).any() or (point == stop - 1).any():
            return None
    if (not (whole >= 1).all() or ((b[first] == 48) & (whole > 1)).any()
            or digits.max() > limit):  # the limit, at most 17, bounds the runs parsed below
        return None
    # words[i]: bytes i - 8 to i of the piece as one little-endian word
    words = np.ndarray(len(b) + 1, dtype="<u8", buffer=data, offset=start - 8, strides=(1,))
    values = _digit_runs(words, point, whole)
    if decimal:  # the mantissa: the whole run, then the fraction run
        scale = _POWERS[digits - whole]
        values *= scale
        values += _digit_runs(words, stop, digits - whole)
    values = values.view(np.int64)
    np.negative(values, out=values, where=negative)
    return values / scale if decimal else values


def _read_canonical(data: bytes):
    """The instance in ``data`` if it is canonical, read in bulk, else None.

    A piece of about ``_PIECE_CHARS`` bytes at a time is checked against the
    fixed skeleton, then its numbers are parsed with numpy, eight digits at
    a time, after "Parsing gigabytes of JSON per second" (Langdale and
    Lemire, VLDB J. 28(6), 2019).  Each axis is one column of the header's
    domain ends, then the pieces' values.  In a text with a "." every axis
    becomes what the JSON path makes of it: its values when all are
    integral, else their dense ranks.  The instance is built by the builder
    that the JSON path uses, so it raises as that path does."""
    if not data.isascii() or not data.endswith(b"]}\n"):
        return None
    for problem, header, row, between, slots in _CANONICAL:
        head = header.match(data)
        if head:
            break
    else:
        return None
    decimal, ends = b"." in data, head.groups()
    limit = 15 if decimal else 17
    if max(len(e.lstrip(b"-")) - (b"." in e) for e in ends) > limit:
        return None
    pieces = [np.array([list(map(float if decimal else int, ends))],  # row 0: the domains
                       dtype=np.float64 if decimal else np.int64)]
    start, stop = head.end(), len(data) - 3
    while start < stop:  # a piece ends at the end of a row, before the ","
        end = data.find(between, start + _PIECE_CHARS, stop) + 1 or stop
        pieces.append(_piece_values(data, start, end, row, slots, limit))
        if pieces[-1] is None:
            return None
        start = end + 1
    columns = [np.concatenate([values[:, i:i + 2] for values in pieces])
               for i in range(0, len(slots), 2)]
    del pieces  # freed before the ranking below, they do not add to its peak
    for a in range(len(columns)) if decimal else ():
        columns[a] = _integral_or_ranks(columns[a].ravel()).reshape(-1, 2)
    return _instance(problem, columns)


def loads_instance(text: str | bytes):
    """The instance in the JSON ``text``, a str or its UTF-8 bytes: read in
    bulk when it is canonical, else decoded by ``json.loads``.  Bytes are
    decoded as strict UTF-8 only then, their line ends read as a file opened
    in text mode reads them.  Raises :class:`InstanceError` for any
    malformed text."""
    data = text.encode("ascii") if isinstance(text, str) and text.isascii() else text
    instance = _read_canonical(data) if isinstance(data, bytes) else None
    if instance is not None:
        return instance
    try:
        if isinstance(text, bytes):  # error positions as in the text a text-mode read gave
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep to decode
        raise InstanceError(str(exc)) from exc
    return instance_from_dict(obj)


def dump_instance(instance, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(dump_chunks(instance))
