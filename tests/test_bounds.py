import io
import json
import math
import time

import numpy as np
import pytest

from coverpierce import bounds, coverage, piercing
from coverpierce.bounds import (
    BenchRecord,
    lb_piercing,
    lb_union,
    lb_union_ceil,
    run_bench,
    write_bench_csv,
)
from coverpierce.core import CoverageInstance


class TestLbUnion:
    def test_one(self):
        assert lb_union(1) == 0.0
        assert lb_union(0) == 0.0

    def test_eight(self):
        assert lb_union(8) == pytest.approx(math.log(40320) / math.log(6), abs=1e-12)
        assert lb_union(8) == pytest.approx(5.9186, abs=1e-3)

    def test_ceil_paths_agree_up_to_64(self):
        for n in range(0, 65):
            assert lb_union_ceil(n) == math.ceil(round(lb_union(n), 9))

    def test_ceil_matches_the_multiply_by_six_loop(self):
        def by_loop(n):  # the earlier definition, one multiplication per unit
            target, m, power = math.factorial(n), 0, 1
            while power < target:
                power *= 6
                m += 1
            return m

        # the same loop run on from n - 1 to n, for every n up to 3000;
        # lb_union(2751) lies within 7e-6 of an integer
        factorial, m, power = 1, 0, 1
        for n in range(0, 3001):
            factorial *= max(n, 1)
            while power < factorial:
                power *= 6
                m += 1
            assert lb_union_ceil(n) == m, n
        for n in (4999, 20_000):
            assert lb_union_ceil(n) == by_loop(n), n
        # the loop takes seconds here; the definition it computes does not
        m = lb_union_ceil(50_000)
        assert 6 ** (m - 1) < math.factorial(50_000) <= 6 ** m

    def test_sizes_near_an_integer_take_no_factorial(self, monkeypatch):
        # within the earlier margin of 1e-12 these took N! exactly: `bound --n`
        # ran 0.5 s, 13 s and 118 s; the values are the ones N! gave
        monkeypatch.setattr(math, "factorial", lambda n: pytest.fail(f"computed {n}!"))
        for n, ceil in [(124_705, 747_062), (1_048_258, 7_525_215), (4_177_653, 33_214_148)]:
            assert lb_union_ceil(n) == ceil, n

    def test_three_exact_via_big_integers(self):
        assert lb_union_ceil(3) == 1
        assert 6 ** 1 == math.factorial(3)

    def test_monotone(self):
        prev = -1.0
        for n in range(0, 2001):
            cur = lb_union(n)
            assert cur >= prev
            prev = cur


class TestLbPiercing:
    def test_nine(self):
        assert lb_piercing(9) == pytest.approx(2.7738, abs=1e-3)

    def test_two_clamped(self):
        assert lb_piercing(2) == 0.0

    def test_sixteen(self):
        assert lb_piercing(16) == pytest.approx(2 * math.log(20160) / math.log(6), abs=1e-9)
        assert lb_piercing(16) == pytest.approx(11.0636, abs=1e-2)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            lb_piercing(1)


def test_lb_equality_is_union_alias(capsys):
    # The distinctness bound is the same quantity as lb_union; `bound`
    # reports it under the key lb_equality.
    from coverpierce.cli import EXIT_OK, main

    def bound(n):
        assert main(["bound", "--n", str(n)]) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    assert bound(3)["lb_equality"] == lb_union(3) == pytest.approx(1.0, abs=1e-12)
    assert bound(0)["lb_equality"] == 0.0
    assert bound(8)["lb_equality"] == lb_union(8)


def test_bound_sums_each_log_factorial_once(monkeypatch, capsys):
    # lb_piercing sums ln 2..ln 500, lb_union carries the sum on to ln 1000 and
    # lb_union_ceil reuses it; lb_piercing's own math.log(2) is the one extra
    from coverpierce.cli import EXIT_OK, main

    logs, log = [], math.log
    monkeypatch.setattr(math, "log", lambda k: logs.append(k) or log(k))
    monkeypatch.setattr(bounds, "_ln_units", (1, 0))
    assert main(["bound", "--n", "1000"]) == EXIT_OK
    assert sorted(logs) == [2, *range(2, 1001)]
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["lb_union"] == lb_union(1000)


def test_ln_factorial_is_fsum_bit_for_bit(monkeypatch):
    # the reference keeps Shewchuk's nonoverlapping partials of ln 2 + ... + ln n,
    # whose exact sum is that of the terms, so math.fsum of them is math.fsum
    # of the terms; the sum is carried on from n - 1 and restarted below it
    monkeypatch.setattr(bounds, "_ln_units", (1, 0))
    assert bounds._ln_factorial(0) == bounds._ln_factorial(1) == 0.0
    partials = []
    for n in range(2, 10**5 + 1):
        x, kept = math.log(n), 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            total = x + y
            error = y - (total - x)
            if error:
                partials[kept] = error
                kept += 1
            x = total
        partials[kept:] = [x]
        assert bounds._ln_factorial(n) == math.fsum(partials), n
    for n in (99_999, 3, 2**20, 4_177_653, 2**22):
        assert bounds._ln_factorial(n) == math.fsum(map(math.log, range(2, n + 1))), n


class TestRunBench:
    def test_chain_records(self):
        records = list(run_bench(["chain"], [8], trials=3, seed=1))
        assert len(records) == 3
        assert all(r.verdict == "covered" for r in records)
        assert all(r.comparisons >= math.ceil(lb_union(8)) == 6 for r in records)
        assert all(r.lower_bound == lb_union(8) for r in records)

    def test_staircase_never_pierceable(self):
        records = list(run_bench(["staircase"], [6], trials=2, seed=0))
        assert all(r.verdict == "not-pierceable" for r in records)
        assert all(r.lower_bound == lb_piercing(6) for r in records)

    def test_empty_range(self):
        assert list(run_bench(["chain"], [], trials=5, seed=0)) == []

    def test_deterministic_under_seed(self):
        a = list(run_bench(["chain", "random-piercing"], [4, 8], trials=3, seed=42))
        b = list(run_bench(["chain", "random-piercing"], [4, 8], trials=3, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(run_bench(["random-piercing"], [32], trials=4, seed=1))
        b = list(run_bench(["random-piercing"], [32], trials=4, seed=2))
        assert [r.comparisons for r in a] != [r.comparisons for r in b]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(run_bench(["mystery"], [4], trials=1, seed=0))

    def test_wall_time_zero_without_measure_flag(self):
        records = list(run_bench(["disjoint"], [4], trials=1, seed=0))
        assert records[0].wall_time_ns == 0
        timed = list(run_bench(["disjoint"], [4], trials=1, seed=0, measure_time=True))
        assert timed[0].wall_time_ns > 0

    def test_wall_time_excludes_generation(self, monkeypatch):
        def slow_disjoint(n, rng):
            time.sleep(0.05)
            return coverage.gen_disjoint(n)

        monkeypatch.setitem(bounds.FAMILIES, "disjoint", slow_disjoint)
        [record] = run_bench(["disjoint"], [4], trials=1, seed=0, measure_time=True)
        assert 0 < record.wall_time_ns < 50_000_000

    def test_each_row_is_written_before_the_next_instance(self, monkeypatch):
        # every record was once built before the first line was written
        out = io.StringIO()
        seen = []

        def disjoint(n, rng):
            seen.append(out.getvalue().count("\n"))
            return coverage.gen_disjoint(n)

        monkeypatch.setitem(bounds.FAMILIES, "disjoint", disjoint)
        write_bench_csv(run_bench(["disjoint"], [2, 3], trials=2, seed=0), out)
        # the header, then one row per instance generated before
        assert seen == [1, 2, 3, 4]
        assert out.getvalue().count("\n") == 5


def test_families_that_draw_nothing_build_no_random_state(monkeypatch):
    # building a RandomState once took most of a disjoint bench row
    def refuse(seed):
        raise AssertionError("RandomState built")

    monkeypatch.setattr(np.random, "RandomState", refuse)
    assert bounds.generate_instance("disjoint", 5, 1) == coverage.gen_disjoint(5)
    assert bounds.generate_instance("staircase", 6, 1) == piercing.gen_staircase_minimal(6)
    assert len(list(run_bench(["disjoint", "staircase"], [3, 4], trials=2))) == 8
    with pytest.raises(AssertionError, match="RandomState built"):
        bounds.generate_instance("chain", 5, 1)


@pytest.mark.parametrize("make", [
    coverage.gen_disjoint,
    lambda n: coverage.gen_random_coverage(n, np.random.RandomState(1)),
    lambda n: piercing.gen_random_piercing(n, np.random.RandomState(1)),
    piercing.gen_staircase_minimal,
], ids=["disjoint", "random-coverage", "random-piercing", "staircase"])
def test_a_numpy_integer_size_builds_the_python_int_instance(make):
    # Interval once rejected the numpy integer domain end that 2 * n makes
    instance = make(np.int64(5))
    assert instance == make(5)
    domain = instance.domain if isinstance(instance, CoverageInstance) else instance.xdomain
    assert type(domain.hi) is int


@pytest.mark.parametrize("family", sorted(bounds.FAMILIES))
def test_no_generator_builds_member_objects(family):
    # every generator fills int64 columns; the objects are built only on request
    for n in ((8, 9) if family == "staircase-literal" else (5, 130)):
        instance = bounds.generate_instance(family, n, 1)
        assert not {"crosses", "intervals"} & set(vars(instance))
        columns = [instance.ends] if isinstance(instance, CoverageInstance) else [instance.h, instance.v]
        assert all(column.dtype == np.int64 for column in columns)


def test_csv_format():
    records = [BenchRecord("chain", 4, 0, 17, "covered", lb_union(4), 0)]
    buf = io.StringIO()
    write_bench_csv(records, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "family,n,seed,comparisons,verdict,lower_bound,wall_time_ns"
    assert lines[1] == "chain,4,0,17,covered,1.7737,0"
    assert buf.getvalue().endswith("\n")
    assert "\r" not in buf.getvalue()
