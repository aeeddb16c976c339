"""Run one workload of the coverpierce benchmark and print its metrics.

    python3 perfbench/run.py --workload pierce-large --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records how the run was made.  With
``--trace 1`` the metrics are the per-layer ones from a traced run, and the
spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024


def fix_mmap_threshold() -> str:
    """Fix glibc's mmap threshold at its initial value.

    By default glibc raises the threshold each time a large block is freed,
    so later blocks below it come from the heap, which keeps its high-water
    mark.  Peak memory then depends on the order of earlier allocations: on
    verify-mid it read 110 or 131 MB depending on the seed.  With the
    threshold fixed, every large array is mapped and unmapped on its own.
    """
    try:
        if ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
            return f"{MMAP_THRESHOLD} bytes, fixed"
    except (OSError, AttributeError):
        pass
    return "allocator default: mallopt not available"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS/OpenMP thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mmap_threshold = fix_mmap_threshold()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import coverpierce
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(coverpierce.__file__).resolve().parent != ROOT / "src" / "coverpierce":
        print(f"perfbench: coverpierce was imported from {coverpierce.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")

    record, summary = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), str(ROOT), str(ROOT / ".perfbench"))
    record["mmap_threshold"] = mmap_threshold
    for name, metric in summary["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
