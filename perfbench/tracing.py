"""Span recording around the library's public layer functions, from outside.

While installed, a :class:`Tracer` rebinds each name a caller module looks
up (``cli.loads_instance``, ``piercing.merge_sort_counted``, ...) to a
wrapper that records one span per call: its layer name, start and end in
nanoseconds, the span that called it, the id of the request it belongs to,
and the change in ``counter.comparisons`` when the call was given a
:class:`QueryCounter`.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

from coverpierce import cli, coverage, piercing
from coverpierce.core import QueryCounter

# (module, attribute, layer).  Each attribute is the name its callers look up
# at call time, so rebinding it on that module routes every call through the
# wrapper.  Generators are rebound where the benchmark's set-up looks them up.
TARGETS = (
    (cli, "main", "cli"),
    (cli, "loads_instance", "core.load"),
    (cli, "validate", "core.validate"),
    (coverage, "solve_coverage", "coverage.sweep"),
    (coverage, "merge_sort_counted", "sorting.sort"),
    (coverage, "oracle_coverage", "coverage.oracle"),
    (coverage, "gen_chain", "coverage.gen"),
    (coverage, "flip_link", "coverage.gen"),
    (coverage, "gen_random_coverage", "coverage.gen"),
    (piercing, "solve_piercing", "piercing.sweep"),
    (piercing, "build_envelopes", "piercing.envelopes"),
    (piercing, "merge_sort_counted", "sorting.sort"),
    (piercing, "merge_unique_counted", "sorting.merge_unique"),
    (piercing, "oracle_piercing", "piercing.oracle"),
    (piercing, "check_minimality", "piercing.minimality"),
    (piercing, "gen_random_piercing", "piercing.gen"),
    (piercing, "gen_staircase_minimal", "piercing.gen"),
)


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the calling span
    request: int | None  # id of the benchmark request; None during set-up
    comparisons: int | None  # counter delta over the call, children included;
    # None when the call was given no QueryCounter

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _counter_of(args, kwargs):
    counter = args[1] if len(args) > 1 else kwargs.get("counter")
    return counter if isinstance(counter, QueryCounter) else None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request: int | None = None
        self._stack: list = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counter = _counter_of(args, kwargs)
            before = counter.comparisons if counter is not None else None
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                delta = counter.comparisons - before if counter is not None else None
                spans[index] = Span(layer, start, end, parent, self.request, delta)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block, then restore it."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, layer), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self) -> list:
        """(self ns, self comparisons) per span: its own figures minus its children's.

        Self comparisons stay None for spans that were given no counter."""
        own = [[s.duration_ns, s.comparisons] for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent][0] -= s.duration_ns
                if own[s.parent][1] is not None:
                    own[s.parent][1] -= s.comparisons or 0
        return own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"layer": s.layer, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "parent": s.parent,
                                     "request": s.request,
                                     "comparisons": s.comparisons}) + "\n")
