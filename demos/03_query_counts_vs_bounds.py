"""Walkthrough: measured comparison counts next to the query lower bounds.

The bounds count log_6 of the number of distinguishable inputs; the
deciders use ordinary three-outcome comparisons, so counts sit well above
the bounds but share the N log N shape.
"""

import sys

from coverpierce import (
    QueryCounter,
    check_equality_by_coverage,
    lb_piercing,
    lb_union,
    lb_union_ceil,
    run_bench,
    write_bench_csv,
)

for n in (4, 8, 16, 64, 256):
    print(f"N={n:4d}  lb_union={lb_union(n):8.3f}  "
          f"ceil={lb_union_ceil(n):3d}  lb_piercing={lb_piercing(n):8.3f}")

# Distinctness reduces to coverage: N values in 0..N-1 are all distinct iff
# the unit intervals [v, v+1] cover [0, N].  This reduction is why the
# `coverpierce bound` key lb_equality carries the lb_union value.
print("\nN   values                    distinct  comparisons  lb_union")
for values in ([3, 0, 2, 1], [3, 0, 3, 1], list(range(7, -1, -1))):
    counter = QueryCounter()
    distinct = check_equality_by_coverage(values, counter)
    print(f"{len(values):<3d} {str(values):25s} {str(distinct):9s} "
          f"{counter.comparisons:11d}  {lb_union(len(values)):8.3f}")

# A small deterministic sweep: chain coverage and random piercing.
records = run_bench(["chain", "random-piercing"], [8, 32, 128], trials=3, seed=0)
print("\nfamily           N   trial  comparisons  lower bound")
for r in records:
    print(f"{r.family:15s} {r.n:4d} {r.trial:6d} {r.comparisons:12d} "
          f"{r.lower_bound:12.3f}")

# The same records in the CSV shape the CLI emits.
print()
write_bench_csv(records[:4], sys.stdout)
