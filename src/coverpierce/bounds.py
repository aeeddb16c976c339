"""Information-theoretic query lower bounds, the family registry, the one
solve behind every front end, and the benchmark harness.

Bound arithmetic uses base 6 (a query admits six answer forms) even though a
truthful comparator realizes only three outcomes; the deciders' measured
counts are reported next to the bounds, never asserted to dominate them on
individual instances.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import coverage, piercing
from .core import CoverageInstance, Permutation, QueryCounter, as_int

_LN6 = math.log(6)
_CEIL_MARGIN = 1e-14  # relative to lb_union(n)


@functools.lru_cache(maxsize=2)  # lb_union_ceil reuses lb_union's sum, bench one per size
def _ln_factorial(n: int) -> float:
    return math.fsum(math.log(k) for k in range(2, n + 1))


def lb_union(n: int) -> float:
    """log_6(N!), the union/coverage worst-case query bound."""
    if as_int(n) < 0:
        raise ValueError("negative size")
    return _ln_factorial(n) / _LN6


def lb_union_ceil(n: int) -> int:
    """Exact ceil(log_6(N!)): the least m >= 0 with 6^m >= N!.

    Each ``math.log`` term is within an ulp, ``fsum`` rounds once and the
    division by ln 6 adds two roundings, so ``lb_union(n)`` is within about
    6e-16 of log_6(N!) relative to it.  Only a float within the 16 times
    wider ``_CEIL_MARGIN`` of an integer m, as ``lb_union(3) == 1.0`` is,
    needs the exact big-integer test of 6^m against N!; for N <= 2^22 that
    is N = 0, 1 and 3 alone, and the nearest other N comes within 1.5e-14.
    """
    x = lb_union(n)  # raises on a negative n
    m = round(x)
    if abs(x - m) > _CEIL_MARGIN * max(1.0, x):
        return math.ceil(x)
    return m if 6 ** m >= math.factorial(n) else m + 1


def lb_piercing(n: int) -> float:
    """2 * log_6( floor(N/2)! / 2 ), clamped below at zero."""
    if as_int(n) < 2:
        raise ValueError("piercing bound defined for N >= 2")
    value = 2.0 * (_ln_factorial(n // 2) - math.log(2)) / _LN6
    return max(0.0, value)


@dataclass(frozen=True)
class BenchRecord:
    family: str
    n: int
    seed: int
    comparisons: int
    verdict: str
    lower_bound: float
    wall_time_ns: int


def _random_parity_perm(n: int, rng) -> Permutation:
    odds = list(range(1, n + 1, 2))
    evens = list(range(2, n + 1, 2))
    rng.shuffle(odds)
    rng.shuffle(evens)
    order = [0] * n
    order[0::2], order[1::2] = odds, evens
    return Permutation(tuple(order))


# Family name -> generator (n, rng) -> instance, shared by ``run_bench`` and
# ``coverpierce generate`` through ``generate_instance``.  ``rng()`` builds the
# seeded random state; a family that draws nothing does not call it.  The
# generators look the library functions up at call time, so rebinding a
# module attribute reaches them.
FAMILIES = {
    "chain": lambda n, rng: coverage.gen_chain((rng().permutation(n) + 1).tolist()),
    "staircase": lambda n, rng: piercing.gen_staircase_minimal(n),
    "staircase-literal": lambda n, rng: piercing.gen_staircase_literal(
        n, _random_parity_perm(n, rng())),
    "disjoint": lambda n, rng: coverage.gen_disjoint(n),
    "random-coverage": lambda n, rng: coverage.gen_random_coverage(n, rng()),
    "random-piercing": lambda n, rng: piercing.gen_random_piercing(n, rng()),
}


def generate_instance(family: str, n: int, seed: int):
    """The ``family`` instance of size ``n`` for ``seed`` (taken mod 2^32)."""
    return FAMILIES[family](as_int(n), lambda: np.random.RandomState(seed & 0xFFFFFFFF))


def solve(instance):
    """The instance's verdict on a fresh counter, and whether it is positive.

    The solver is looked up on its module at call time and given the counter
    as its second argument, so a tracer rebound there wraps and counts it."""
    counter = QueryCounter()
    if isinstance(instance, CoverageInstance):
        verdict = coverage.solve_coverage(instance, counter)
        return verdict, verdict.covered
    verdict = piercing.solve_piercing(instance, counter)
    return verdict, verdict.pierceable


def run_bench(families, n_values, trials: int, seed: int = 0,
              measure_time: bool = False):
    """Deterministic benchmark sweep: yields one record per (family, n, seed)
    as soon as it is made, so memory stays flat in ``trials``.

    Trial t uses seed ``seed + t``, so each record is the instance that
    ``generate_instance`` (and ``coverpierce generate``) builds from its own
    family, n and seed.  Wall times cover the solve alone and are recorded
    only when ``measure_time`` is set, so that a fixed seed yields
    byte-identical serialized output.
    """
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        for n in n_values:
            for trial_seed in range(seed, seed + trials):
                instance = generate_instance(family, n, trial_seed)
                t0 = time.perf_counter_ns()
                verdict, positive = solve(instance)
                elapsed = time.perf_counter_ns() - t0
                if isinstance(instance, CoverageInstance):
                    word, lb = "covered" if positive else "uncovered", lb_union(n)
                else:
                    word, lb = "pierceable" if positive else "not-pierceable", lb_piercing(n)
                yield BenchRecord(
                    family=family, n=n, seed=trial_seed,
                    comparisons=verdict.queries_used, verdict=word,
                    lower_bound=lb,
                    wall_time_ns=elapsed if measure_time else 0,
                )


CSV_HEADER = ["family", "n", "seed", "comparisons", "verdict",
              "lower_bound", "wall_time_ns"]


def write_bench_csv(records, fh) -> None:
    """UTF-8 CSV with LF line endings and a mandatory header row; each row is
    written and flushed as soon as ``records`` yields it."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r.family, r.n, r.seed, r.comparisons, r.verdict,
                         f"{r.lower_bound:.4f}", r.wall_time_ns])
        fh.flush()
