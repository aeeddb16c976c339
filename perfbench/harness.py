"""Closed-loop run of one workload: set-up, timed verdicts, checks, metrics.

One caller in one process with one thread asks for the next verdict only
after the previous one returned.  The loop makes whole passes over the
workload's instances until ``seconds`` have passed, so every instance is
timed equally often.  Comparison counts are taken per instance, so they do
not depend on how many verdicts fit in the time.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass

from coverpierce import core, piercing

from .checker import check_verdict, piercing_point
from .tracing import Tracer
from .workloads import WORKLOADS, run_cli, set_up

SETUP_REPS = 5
P90_MIN_SAMPLES = 100
REF_INTERVAL_NS = 500_000_000
REF_KEYS = [(i * 7919) % 100003 for i in range(1 << 14)]
# Seconds the reference kernel takes on the machine setup_s is scaled to.
REF_NOMINAL_S = 0.035

# Verdict times are gated as multiples of a reference kernel timed in the same
# run, because this kind of shared machine changes speed by a fifth or more
# for seconds at a time; the raw seconds go to the record line.  Set-up time is
# divided the same way and reported in seconds at REF_NOMINAL_S per kernel run.
END_TO_END = {
    "verdicts_per_ref": "1/ref",
    "verdict_ref.p50": "ref",
    "comparisons_per_verdict": "count",
    "comparisons_over_lb": "ratio",
    "verified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span layers whose self time is reported per verdict, and those whose
# self comparisons are; together the counted ones make up every comparison.
TIMED_LAYERS = {
    "cli": "cli.self_s",
    "core.load": "core.load_s",
    "core.validate": "core.validate_s",
    "sorting.sort": "sorting.sort_s",
    "sorting.merge_unique": "sorting.merge_unique_s",
    "piercing.envelopes": "piercing.envelopes_s",
    "piercing.sweep": "piercing.sweep_s",
    "piercing.minimality": "piercing.minimality_s",
    "coverage.sweep": "coverage.sweep_s",
    "piercing.oracle": "piercing.oracle_s",
    "coverage.oracle": "coverage.oracle_s",
}
COUNTED_LAYERS = {
    "sorting.sort": "sorting.sort_comparisons",
    "sorting.merge_unique": "sorting.merge_unique_comparisons",
    "piercing.envelopes": "piercing.envelopes_comparisons",
    "piercing.sweep": "piercing.sweep_comparisons",
    "coverage.sweep": "coverage.sweep_comparisons",
}
GEN_LAYERS = {"piercing.gen": "piercing.gen_s", "coverage.gen": "coverage.gen_s"}

PER_LAYER = {
    **{name: "s" for name in TIMED_LAYERS.values()},
    **{name: "count" for name in COUNTED_LAYERS.values()},
    "core.calls": "count",
    **{name: "s" for name in GEN_LAYERS.values()},
    "trace.verdict_s": "s",
    "trace.overhead_ratio": "ratio",
}


class _Tally:
    """Stands in for ``piercing.QueryCounter`` to read the counters that
    ``check_minimality`` creates and then drops."""

    def __init__(self):
        self.counters = []

    def __call__(self, *args, **kwargs):
        counter = core.QueryCounter(*args, **kwargs)
        self.counters.append(counter)
        return counter

    def take(self) -> int:
        total = sum(c.comparisons for c in self.counters)
        self.counters.clear()
        return total


def reference_ns() -> int:
    """Nanoseconds for one run of the reference kernel.

    The kernel is a pure-Python merge sort of fixed keys: list indexing,
    comparisons and appends, the same kind of work as the solvers, but
    sharing no code with them, so a change to the library does not move it.
    """
    start = time.perf_counter_ns()
    keys = REF_KEYS
    n = len(keys)
    order = list(range(n))
    width = 1
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            mid, hi = min(lo + width, n), min(lo + 2 * width, n)
            i, j = lo, mid
            while i < mid and j < hi:
                if keys[order[i]] > keys[order[j]]:
                    merged.append(order[j])
                    j += 1
                else:
                    merged.append(order[i])
                    i += 1
            merged.extend(order[i:mid])
            merged.extend(order[j:hi])
        order = merged
        width *= 2
    return time.perf_counter_ns() - start


@dataclass
class Outcome:
    case: int
    elapsed_ns: int
    result: object  # (exit code, stdout) from the CLI, or a MinimalityReport
    comparisons: int | None  # read from the tally on the in-memory path
    error: str | None = None
    ref_ns: float = 0.0  # reference kernel time around the call


def _call(w, cases, i, tally=None) -> Outcome:
    case = cases[i]
    start = time.perf_counter_ns()
    try:
        if w.verb == "minimality":
            result = piercing.check_minimality(case.instance)
        else:
            result = run_cli([w.verb, "--in", case.path])[:2]
    except Exception as exc:  # a crash is a failed verdict; the loop goes on
        if tally is not None:
            tally.take()
        return Outcome(i, time.perf_counter_ns() - start, None, None,
                       f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter_ns() - start
    return Outcome(i, elapsed, result, tally.take() if tally is not None else None)


def _judge(w, case, outcome) -> tuple:
    """(failed verdicts, reason, comparisons, positive verdicts) for one call."""
    if outcome.error is not None:
        return case.verdicts, outcome.error, None, 0
    if w.verb == "minimality":
        report = outcome.result
        claims = [report.full_family_pierceable, *report.each_deletion_pierceable]
        if len(claims) != case.verdicts:
            return case.verdicts, f"{len(claims)} answers for {case.verdicts} verdicts", None, 0
        truth = [piercing_point(case.arrays) is not None]
        truth += [piercing_point(case.arrays.without(i)) is not None for i in range(case.n)]
        wrong = sum(c is not t for c, t in zip(claims, truth))
        reason = f"{wrong} wrong leave-one-out answers" if wrong else None
        return wrong, reason, outcome.comparisons, sum(c is True for c in claims)
    code, out = outcome.result
    try:
        doc = json.loads(out)
        verdict = doc["solver"] if w.verb == "verify" else doc
        reason = check_verdict(case.arrays, verdict)
        positive = verdict.get("pierceable", verdict.get("covered")) is True
        if w.verb == "verify":
            expected = 0
            reason = reason or check_verdict(case.arrays, doc["oracle"])
            if not (doc["agree"] is True and doc["witnesses_sound"] is True):
                reason = reason or f"verify reports {out.strip()}"
        else:
            expected = 0 if positive else 1
        if reason is None and code != expected:
            reason = f"exit code {code}, expected {expected}"
        return int(reason is not None), reason, verdict["queries"], int(positive)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return 1, f"unreadable output {out!r} (exit {code}): {exc}", None, 0


def _judge_all(w, cases, outcomes) -> dict:
    """Check every outcome; identical outputs on one instance are checked once."""
    memo = {}
    per_case = {}
    failed = 0
    reasons = []
    for o in outcomes:
        case = cases[o.case]
        key = (o.case, o.error, repr(o.result) if w.verb == "minimality" else o.result)
        if key not in memo:
            memo[key] = _judge(w, case, o)
        bad, reason, comparisons, positive = memo[key]
        if o.comparisons is not None:
            comparisons = o.comparisons
        first = per_case.setdefault(o.case, (comparisons, positive))
        if bad == 0 and comparisons != first[0]:
            bad, reason = 1, f"comparison count {comparisons} != {first[0]} on a repeat"
        failed += bad
        if reason is not None and len(reasons) < 5:
            reasons.append(f"{case.family} N={case.n}: {reason}")
    return {"failed": failed, "reasons": reasons, "per_case": per_case}


def _closed_loop(w, cases, seconds, tally=None) -> tuple:
    """Timed calls, with the reference kernel run between calls at least every
    REF_INTERVAL_NS; each call is paired with the mean of the runs around it."""
    outcomes, refs, ref_index = [], [reference_ns()], []
    start = last_ref = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    # whole passes only: a cut pass would weight the median toward the
    # instances that come first, and verdict times differ by 25x between them
    while i == 0 or i % len(cases) or time.perf_counter_ns() < deadline:
        if time.perf_counter_ns() - last_ref >= REF_INTERVAL_NS:
            refs.append(reference_ns())
            last_ref = time.perf_counter_ns()
        outcomes.append(_call(w, cases, i % len(cases), tally))
        ref_index.append(len(refs) - 1)
        i += 1
    loop_s = (time.perf_counter_ns() - start) / 1e9
    refs.append(reference_ns())
    for o, k in zip(outcomes, ref_index):
        o.ref_ns = (refs[k] + refs[k + 1]) / 2
    return outcomes, loop_s, statistics.median(refs)


def _verdicts(cases, outcomes) -> int:
    return sum(cases[o.case].verdicts for o in outcomes)


def _set_up_timed(w, seed, work_dir, root, tracer) -> tuple:
    """One set-up and the mean reference-kernel time just before and after it."""
    before = reference_ns()
    with tracer.installed() if tracer else nullcontext():
        setup = set_up(w, seed, work_dir, root)
    return setup, (before + reference_ns()) / 2 / 1e9


def _timed_metrics(w, cases, seconds, setups) -> tuple:
    tally = _Tally() if w.verb == "minimality" else None
    saved = piercing.QueryCounter
    if tally is not None:
        piercing.QueryCounter = tally
    try:
        outcomes, loop_s, ref_ns = _closed_loop(w, cases, seconds, tally)
    finally:
        piercing.QueryCounter = saved
    judged = _judge_all(w, cases, outcomes)
    attempted = _verdicts(cases, outcomes)
    samples = [o.elapsed_ns / cases[o.case].verdicts / 1e9 for o in outcomes]
    in_ref = [o.elapsed_ns / cases[o.case].verdicts / o.ref_ns for o in outcomes]
    counted = {i: c for i, (c, _) in judged["per_case"].items() if c is not None}
    total = sum(counted.values())
    metrics = {
        "verdicts_per_ref": attempted / sum(o.elapsed_ns / o.ref_ns for o in outcomes),
        "verdict_ref.p50": statistics.median(in_ref),
        "comparisons_per_verdict": total / sum(cases[i].verdicts for i in counted),
        "comparisons_over_lb": total / sum(cases[i].lower_bound for i in counted),
        "verified_ratio": 1 - judged["failed"] / attempted,
        "setup_s": statistics.median(s.total_s / ref_s for s, ref_s in setups) * REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    busy_s = sum(o.elapsed_ns for o in outcomes) / 1e9
    wall = {"verdicts_per_s": attempted / busy_s,
            "verdict_s.p50": statistics.median(samples),
            "reference_s": ref_ns / 1e9,
            "setup_s": statistics.median(s.total_s for s, _ in setups),
            "setup_reference_s": statistics.median(ref_s for _, ref_s in setups)}
    p90 = f"not reported: {len(samples)} samples < {P90_MIN_SAMPLES}"
    if len(samples) >= P90_MIN_SAMPLES:
        wall["verdict_s.p90"] = _p90(samples)
        p90 = _p90(in_ref)
    extra = {
        "samples": {"verdict": len(samples), "setup_s": len(setups),
                    "verdicts": attempted, "loop_s": loop_s},
        "verdict_ref.p90": p90,
        "wall": wall,
        "comparisons_total": total,
        "failed_ratio": judged["failed"] / attempted,
        "setup_parts_s": {part: statistics.median(getattr(s, part) for s, _ in setups)
                          for part in ("import_s", "gen_s", "write_s", "warmup_s")},
    }
    return metrics, attempted, judged, extra


def _p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _traced_metrics(w, cases, seconds, tracer, setup_reps, spans_path) -> tuple:
    """Alternate an untraced and a traced pass over all instances until time is up."""
    plain, traced = [], []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while not traced or time.perf_counter_ns() < deadline:
        plain += [_call(w, cases, i) for i in range(len(cases))]
        with tracer.installed():
            for i in range(len(cases)):
                tracer.request = len(traced)
                traced.append(_call(w, cases, i))
            tracer.request = None
    judged = _judge_all(w, cases, plain + traced)
    attempted = _verdicts(cases, plain + traced)

    layer_ns, layer_comparisons, calls = {}, {}, {}
    gen_ns = {}
    verdict_ns = 0
    for span, (own_ns, own_comparisons) in zip(tracer.spans, tracer.self_times()):
        if span.request is None:
            if span.layer in GEN_LAYERS:
                gen_ns[span.layer] = gen_ns.get(span.layer, 0) + own_ns
            continue
        layer_ns[span.layer] = layer_ns.get(span.layer, 0) + own_ns
        calls[span.layer] = calls.get(span.layer, 0) + 1
        if span.parent is None:
            verdict_ns += span.duration_ns
        # the first traced pass solves each instance once
        if span.request < len(cases) and own_comparisons is not None:
            layer_comparisons[span.layer] = layer_comparisons.get(span.layer, 0) + own_comparisons
    verdicts = _verdicts(cases, traced)
    pass_verdicts = sum(c.verdicts for c in cases)
    metrics = {name: layer_ns.get(layer, 0) / 1e9 / verdicts
               for layer, name in TIMED_LAYERS.items()}
    metrics.update({name: layer_comparisons.get(layer, 0) / pass_verdicts
                    for layer, name in COUNTED_LAYERS.items()})
    metrics["core.calls"] = (calls.get("core.load", 0) + calls.get("core.validate", 0)) / verdicts
    metrics.update({name: gen_ns.get(layer, 0) / 1e9 / setup_reps
                    for layer, name in GEN_LAYERS.items()})
    metrics["trace.verdict_s"] = verdict_ns / 1e9 / verdicts
    metrics["trace.overhead_ratio"] = (sum(o.elapsed_ns for o in traced)
                                       / sum(o.elapsed_ns for o in plain))
    tracer.dump(spans_path)
    extra = {
        "samples": {"traced_verdicts": verdicts, "untraced_verdicts": _verdicts(cases, plain),
                    "passes": len(traced) // len(cases), "setup_s": setup_reps},
        "trace_totals": {"verdict_ns": verdict_ns, "layer_ns": layer_ns,
                         "pass_verdicts": pass_verdicts,
                         "pass_comparisons": layer_comparisons},
        "failed_ratio": judged["failed"] / attempted,
        "spans": spans_path,
    }
    return metrics, attempted, judged, extra


def run(w, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> tuple:
    """Run one workload; returns (record, summary) as the two output objects."""
    name = w.name
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir)
    tracer = Tracer() if trace else None
    try:
        setups = [_set_up_timed(w, seed, work_dir, root, tracer) for _ in range(SETUP_REPS)]
        cases = setups[-1][0].cases
        if trace:
            spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
            metrics, attempted, judged, extra = _traced_metrics(
                w, cases, seconds, tracer, len(setups), spans_path)
            units = PER_LAYER
        else:
            metrics, attempted, judged, extra = _timed_metrics(w, cases, seconds, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    positives = sum(p for _, p in judged["per_case"].values())
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "rationale": w.rationale,
        "path": ("check_minimality in memory" if w.verb == "minimality"
                 else f"coverpierce {w.verb} --in FILE (cli.main in-process)"),
        "loop": "closed: 1 caller, 1 process, 1 thread",
        "families": [{"family": f.name, "count": f.count, "n_range": [f.lo, f.hi],
                      "sizes": [c.n for c in cases if c.family == f.name]}
                     for f in w.families],
        "coordinates": "rank/2, re-ranked on load" if w.fractional else "integer ranks",
        "verdict_mix": {"positive": positives,
                        "negative": sum(c.verdicts for c in cases) - positives},
        "wait_s": "0: every layer runs in the one caller's thread, with no queue",
        "failures": judged["reasons"],
        **extra,
    }
    summary = {
        "correct": judged["failed"] == 0,
        "attempted": attempted,
        "failed": judged["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record, summary
