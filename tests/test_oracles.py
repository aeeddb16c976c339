"""The oracles against the problems' definitions, written out in plain Python.

Coverage: every endpoint value in the domain and every open span between
consecutive ones must meet an interval.  Piercing: a grid point of endpoint
values pierces when every cross contains it.
"""

import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_grid_points

import coverpierce
from coverpierce import piercing
from coverpierce.cli import EXIT_OK, EXIT_USAGE, main
from coverpierce.core import (
    CoverageInstance,
    Cross,
    InstanceError,
    Interval,
    PiercingInstance,
    dump_instance,
)
from coverpierce.coverage import oracle_coverage
from coverpierce.piercing import gen_random_piercing, oracle_piercing


def defined_coverage(instance):
    """(covered, gap) straight from the cells; the gap is the interior of the
    leftmost maximal uncovered run of cells."""
    dom = instance.domain
    ends = {dom.lo, dom.hi} | {e for iv in instance.intervals for e in (iv.lo, iv.hi)}
    values = sorted(v for v in ends if dom.lo <= v <= dom.hi)
    cells = []  # (left value, right value, covered)
    for i, v in enumerate(values):
        cells.append((v, v, any(iv.lo <= v <= iv.hi for iv in instance.intervals)))
        if i + 1 < len(values):
            w = values[i + 1]
            cells.append((v, w, any(iv.lo <= v and w <= iv.hi for iv in instance.intervals)))
    uncovered = [k for k, cell in enumerate(cells) if not cell[2]]
    if not uncovered:
        return True, None
    last = first = uncovered[0]
    while last + 1 < len(cells) and not cells[last + 1][2]:
        last += 1
    g_lo, g_hi = cells[first][0], cells[last][1]
    return False, ((g_lo, g_hi) if g_lo < g_hi else None)


def defined_grid_points(instance):
    """Every grid point in x-major order that every cross contains."""
    def axis(domain, arms):
        ends = {domain.lo, domain.hi} | {e for arm in arms for e in (arm.lo, arm.hi)}
        return sorted(v for v in ends if domain.lo <= v <= domain.hi)

    xs = axis(instance.xdomain, [cr.h for cr in instance.crosses])
    ys = axis(instance.ydomain, [cr.v for cr in instance.crosses])
    return [(x, y) for x in xs for y in ys
            if all(cr.contains(x, y) for cr in instance.crosses)]


def intervals_around(lo, hi):
    """Intervals that may poke out of [lo, hi] by up to two ranks, or collapse to a point."""
    return st.tuples(st.integers(lo - 2, hi + 2), st.integers(lo - 2, hi + 2)).map(
        lambda p: Interval(min(p), max(p)))


domains = st.tuples(st.integers(0, 3), st.integers(0, 8)).map(lambda p: Interval(p[0], p[0] + p[1]))

coverage_instances = domains.flatmap(lambda dom: st.builds(
    CoverageInstance, st.just(dom),
    st.lists(intervals_around(dom.lo, dom.hi), max_size=8)))

piercing_instances = st.tuples(domains, domains).flatmap(lambda doms: st.builds(
    PiercingInstance, st.just(doms[0]), st.just(doms[1]),
    st.lists(st.builds(Cross, intervals_around(doms[0].lo, doms[0].hi),
                       intervals_around(doms[1].lo, doms[1].hi)), max_size=7)))


@settings(max_examples=500, deadline=None)
@given(coverage_instances)
def test_oracle_coverage_matches_definition(instance):
    v = oracle_coverage(instance)
    assert (v.covered, v.gap_witness) == defined_coverage(instance)
    assert v.witness_sound(instance)


@settings(max_examples=500, deadline=None)
@given(piercing_instances)
def test_piercing_oracles_match_definition(instance):
    points = defined_grid_points(instance)
    assert oracle_grid_points(instance) == points
    v = oracle_piercing(instance)
    assert (v.pierceable, v.witness) == (bool(points), points[0] if points else None)
    assert v.witness_sound(instance)


def test_empty_family_pierced_at_every_grid_point():
    instance = PiercingInstance(Interval(0, 2), Interval(3, 4), [])
    assert oracle_grid_points(instance) == [(0, 3), (0, 4), (2, 3), (2, 4)]
    assert oracle_piercing(instance).witness == (0, 3)


def test_grid_oracle_memory_is_linear_in_the_grid(tmp_path):
    # a dense N x n_x x n_y cube asked for 1.48 GiB on this instance and crashed verify
    instance = gen_random_piercing(1000, np.random.RandomState(1))
    tracemalloc.start()
    try:
        oracle_piercing(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    path = tmp_path / "random-piercing-1000.json"
    dump_instance(instance, path)
    assert main(["verify", "--in", str(path)]) == EXIT_OK


def test_grid_oracle_cell_budget(monkeypatch):
    # three crosses times three grid xs: nine cells
    instance = PiercingInstance(Interval(0, 2), Interval(0, 2),
                                [Cross(Interval(k, k), Interval(k, k)) for k in range(3)])
    monkeypatch.setattr(piercing, "GRID_CELLS_MAX", 9)
    assert not oracle_piercing(instance).pierceable
    monkeypatch.setattr(piercing, "GRID_CELLS_MAX", 8)
    with pytest.raises(InstanceError, match="9 cells"):
        oracle_piercing(instance)
    with pytest.raises(InstanceError):
        oracle_grid_points(instance)


def test_verify_beyond_the_cell_budget_exits_two_under_a_memory_cap(tmp_path):
    # the grid oracle asked for 3.76 GiB here, and verify died of an uncaught
    # _ArrayMemoryError with exit 1
    path = tmp_path / "random-piercing-20000.json"
    assert main(["generate", "--family", "random-piercing", "--n", "20000",
                 "--seed", "1", "--out", str(path)]) == EXIT_OK
    cap = 2 * 10**9

    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(coverpierce.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "from coverpierce.cli import main; sys.exit(main(sys.argv[2:]))",
         src, "verify", "--in", str(path)],
        capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("verify: 20000 crosses times ")
    assert "grid oracle" in proc.stderr
