"""Whole runs of scaled-down workloads: metric names, exact sums, checks."""

import collections
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coverpierce import cli, core, piercing
from perfbench import harness
from perfbench.workloads import WORKLOADS, Family, set_up

ROOT = Path(__file__).resolve().parents[2]

# Same families and paths as the real workloads, at sizes a test can afford.
SMALL = {
    "pierce-large": (Family("random-piercing", 3, 300, 400),),
    "cover-chain-large": (Family("chain", 3, 300, 400),),
    "minimality-small": (Family("staircase", 3, 8, 24),),
    "verify-mid": (Family("random-piercing", 2, 8, 24), Family("staircase", 2, 8, 24),
                   Family("random-coverage", 2, 16, 64), Family("chain", 2, 16, 64),
                   Family("flip-link", 2, 16, 64)),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], families=SMALL[name], warmup_n=8)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    w = small(request.param)
    timed = harness.run(w, 5, 0, False, str(ROOT), str(out))
    traced = harness.run(w, 5, 0, True, str(ROOT), str(out))
    return timed, traced


def test_every_verdict_passes_its_check(runs):
    for record, summary in runs:
        assert summary["correct"] and summary["failed"] == 0, record["failures"]
        assert summary["attempted"] >= 1


def test_metric_names_and_units_match_benchmark_json(runs):
    spec = benchmark_json()
    (_, timed), (_, traced) = runs
    for summary, key in ((timed, "end_to_end"), (traced, "per_layer")):
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_layer_comparisons_sum_to_comparisons_per_verdict(runs):
    (timed_record, timed), (traced_record, traced) = runs
    totals = traced_record["trace_totals"]
    assert sum(totals["pass_comparisons"].values()) == timed_record["comparisons_total"]
    layered = sum(traced["metrics"][name]["value"] for name in harness.COUNTED_LAYERS.values())
    assert math.isclose(layered, timed["metrics"]["comparisons_per_verdict"]["value"],
                        rel_tol=1e-12)


def test_layer_self_times_sum_to_traced_verdict_time(runs):
    _, (record, traced) = runs
    totals = record["trace_totals"]
    assert sum(totals["layer_ns"].values()) == totals["verdict_ns"]
    layered = sum(traced["metrics"][name]["value"] for name in harness.TIMED_LAYERS.values())
    assert math.isclose(layered, traced["metrics"]["trace.verdict_s"]["value"], rel_tol=1e-9)


def test_same_seed_repeats_comparisons_exactly(runs, tmp_path):
    (record, timed), _ = runs
    again_record, again = harness.run(small(record["workload"]), 5, 0, False, str(ROOT),
                                      str(tmp_path))
    assert again_record["comparisons_total"] == record["comparisons_total"]
    assert again["metrics"]["comparisons_per_verdict"] == timed["metrics"]["comparisons_per_verdict"]


def test_loop_ends_on_a_whole_pass(tmp_path):
    w = small("verify-mid")
    cases = set_up(w, 5, str(tmp_path), str(ROOT)).cases
    outcomes, _, _ = harness._closed_loop(w, cases, 0.2)
    counts = collections.Counter(o.case for o in outcomes)
    assert sorted(counts) == list(range(len(cases)))
    assert len(set(counts.values())) == 1


def test_setup_records_raw_seconds_and_reference_time(runs):
    (record, timed), _ = runs
    wall = record["wall"]
    assert timed["metrics"]["setup_s"]["value"] > 0
    assert wall["setup_s"] > 0 and wall["setup_reference_s"] > 0
    assert record["samples"]["setup_s"] == harness.SETUP_REPS


def test_rebinding_is_removed_after_the_runs(runs):
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(piercing.solve_piercing, "__wrapped__")
    assert not hasattr(piercing.merge_sort_counted, "__wrapped__")
    assert piercing.QueryCounter is core.QueryCounter


def test_wrong_verdicts_are_counted_not_raised(monkeypatch, tmp_path):
    solve = piercing.solve_piercing

    def flipped(instance, counter=None):
        verdict = solve(instance, counter)
        return piercing.PiercingVerdict(not verdict.pierceable, None, verdict.queries_used)

    monkeypatch.setattr(piercing, "solve_piercing", flipped)
    record, summary = harness.run(small("pierce-large"), 5, 0, False, str(ROOT), str(tmp_path))
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]
    assert summary["metrics"]["verified_ratio"]["value"] == 0
    assert record["failures"]


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-mid",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
