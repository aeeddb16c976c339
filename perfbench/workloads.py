"""The four benchmark workloads and their seeded set-up.

A workload is a list of families with a size range each.  Set-up generates
the instances through the library's public generators, writes them as JSON
files when the workload goes through the CLI, and runs one warm-up verdict.
Every instance is fixed by ``(seed, workload name, instance index)``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from coverpierce import bounds, cli, core, coverage, piercing

from .checker import CoverageArrays, PiercingArrays


@dataclass(frozen=True)
class Family:
    name: str
    count: int
    lo: int
    hi: int

    def sizes(self) -> list:
        """``count`` sizes evenly spaced over [lo, hi], both ends included.

        Sizes are fixed and the seed picks only the instances, so that the mix
        of verdict times (and the largest instance, which sets peak memory)
        is the same for every seed."""
        if self.count == 1:
            return [self.hi]
        return [self.lo + i * (self.hi - self.lo) // (self.count - 1) for i in range(self.count)]


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "solve" or "verify" through cli.main, or "minimality" in memory
    families: tuple
    fractional: bool  # write coverage coordinates as rank/2, so loading re-ranks them
    warmup_n: int
    rationale: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "pierce-large", "solve", (Family("random-piercing", 3, 1 << 16, 1 << 16),),
        False, 256,
        "every verdict is negative, so load, both sorts, envelopes, candidate "
        "merge and the full sweep all do real work at N=2^16"),
    Workload(
        "cover-chain-large", "solve", (Family("chain", 3, 1 << 16, 1 << 16),),
        True, 256,
        "chains force the full coverage sweep and bypass the piercing layer; "
        "fractional coordinates take the rank-normalise branch of loading"),
    Workload(
        "minimality-small", "minimality", (Family("staircase", 16, 64, 256),),
        False, 64,
        "the piercing layer on many tiny leave-one-out solves, so fixed "
        "per-call costs dominate"),
    Workload(
        "verify-mid", "verify", (
            Family("random-piercing", 8, 128, 256),
            Family("staircase", 8, 128, 256),
            Family("random-coverage", 8, 1024, 4096),
            Family("chain", 8, 1024, 4096),
            Family("flip-link", 8, 1024, 4096)),
        False, 64,
        "the oracles do most of the work and set peak memory; piercing N stops "
        "at 256 because the grid oracle allocates N*(2N+2)^2 bytes (about 4 GB "
        "at N=1000), more than a shared machine can give"),
)}


def generate(family: str, n: int, rng):
    """One instance of ``family`` at size ``n`` through the library generators."""
    if family == "random-piercing":
        return piercing.gen_random_piercing(n, rng)
    if family == "staircase":
        inst = piercing.gen_staircase_minimal(n, verify=False)
        order = rng.permutation(n)
        return core.PiercingInstance(inst.xdomain, inst.ydomain,
                                     [inst.crosses[i] for i in order])
    if family == "random-coverage":
        return coverage.gen_random_coverage(n, rng)
    perm = core.Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
    chain = coverage.gen_chain(perm)
    if family == "chain":
        return chain
    if family == "flip-link":
        return coverage.flip_link(chain, int(rng.randint(2, n + 1)))
    raise ValueError(f"unknown family {family!r}")


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1].reshape(values.shape)


def to_arrays(instance, fractional: bool):
    """Checker arrays in the rank space the solver works in after loading."""
    if isinstance(instance, core.PiercingInstance):
        xs = np.array([[instance.xdomain.lo, instance.xdomain.hi]]
                      + [[cr.h.lo, cr.h.hi] for cr in instance.crosses], dtype=np.int64)
        ys = np.array([[instance.ydomain.lo, instance.ydomain.hi]]
                      + [[cr.v.lo, cr.v.hi] for cr in instance.crosses], dtype=np.int64)
        return PiercingArrays(int(xs[0, 0]), int(xs[0, 1]), int(ys[0, 0]), int(ys[0, 1]),
                              xs[1:, 0], xs[1:, 1], ys[1:, 0], ys[1:, 1])
    pts = np.array([[instance.domain.lo, instance.domain.hi]]
                   + [[iv.lo, iv.hi] for iv in instance.intervals], dtype=np.int64)
    if fractional:
        pts = _dense_ranks(pts)
    return CoverageArrays(int(pts[0, 0]), int(pts[0, 1]), pts[1:, 0], pts[1:, 1])


def write_instance(instance, path: str, fractional: bool) -> None:
    if not fractional:
        core.dump_instance(instance, path)
        return
    doc = core.instance_to_dict(instance)
    doc["domain"] = [v / 2 for v in doc["domain"]]
    doc["intervals"] = [[lo / 2, hi / 2] for lo, hi in doc["intervals"]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


@dataclass
class Case:
    """One instance of a workload and what the benchmark knows about it."""

    family: str
    n: int
    instance: object  # kept only for in-memory workloads
    path: str | None
    arrays: object
    verdicts: int  # verdicts one call yields: 1, or N+1 for a minimality check
    lower_bound: float


def run_cli(argv) -> tuple:
    """``cli.main`` in-process with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def case_rng(seed: int, workload: str, index: int):
    return np.random.RandomState([seed & 0xFFFFFFFF, zlib.crc32(workload.encode()), index])


def _lower_bound(instance, verdicts: int) -> float:
    if isinstance(instance, core.CoverageInstance):
        return bounds.lb_union(instance.n)
    if verdicts == 1:
        return bounds.lb_piercing(instance.n)
    return bounds.lb_piercing(instance.n) + instance.n * bounds.lb_piercing(instance.n - 1)


def time_import(root: str) -> float:
    """Seconds a fresh interpreter spends importing the CLI module."""
    code = ("import time; t = time.perf_counter(); import coverpierce.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


@dataclass
class SetupRun:
    cases: list
    import_s: float
    gen_s: float
    write_s: float
    warmup_s: float

    @property
    def total_s(self) -> float:
        return self.import_s + self.gen_s + self.write_s + self.warmup_s


def set_up(w: Workload, seed: int, work_dir: str, root: str) -> SetupRun:
    """Generate, write and warm up once; checker arrays are built outside the timings."""
    import_s = time_import(root)
    plan = [(f.name, n) for f in w.families for n in f.sizes()]
    cases = []
    gen_ns = write_ns = 0
    for index, (family, n) in enumerate(plan, start=1):
        t0 = time.perf_counter_ns()
        instance = generate(family, n, case_rng(seed, w.name, index))
        t1 = time.perf_counter_ns()
        path = None
        if w.verb != "minimality":
            path = os.path.join(work_dir, f"{index:03d}-{family}-{n}.json")
            write_instance(instance, path, w.fractional)
        t2 = time.perf_counter_ns()
        gen_ns += t1 - t0
        write_ns += t2 - t1
        verdicts = n + 1 if w.verb == "minimality" else 1
        cases.append(Case(family, n, instance if path is None else None, path,
                          to_arrays(instance, w.fractional), verdicts,
                          _lower_bound(instance, verdicts)))
    t0 = time.perf_counter_ns()
    warm = generate(w.families[0].name, w.warmup_n, case_rng(seed, w.name, len(plan) + 1))
    if w.verb == "minimality":
        piercing.check_minimality(warm)
    else:
        path = os.path.join(work_dir, "warmup.json")
        write_instance(warm, path, w.fractional)
        run_cli([w.verb, "--in", path])
    warmup_s = (time.perf_counter_ns() - t0) / 1e9
    return SetupRun(cases, import_s, gen_ns / 1e9, write_ns / 1e9, warmup_s)
