"""Coverage and piercing deciders over integer rank space, with query counting."""

from .core import (
    Cross,
    CoverageInstance,
    ContainmentViolation,
    DegenerateInterval,
    InstanceError,
    Interval,
    Permutation,
    PiercingInstance,
    QueryCounter,
    dump_chunks,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    validate,
)
from .sorting import merge_sort_counted
from .coverage import (
    CoverageVerdict,
    check_equality_by_coverage,
    flip_link,
    gen_chain,
    gen_disjoint,
    gen_random_coverage,
    oracle_coverage,
    solve_coverage,
)
from .piercing import (
    Envelopes,
    MinimalityReport,
    PiercingVerdict,
    build_envelopes,
    check_minimality,
    gen_random_piercing,
    gen_staircase_literal,
    gen_staircase_minimal,
    oracle_piercing,
    solve_piercing,
)
from .bounds import (
    BenchRecord,
    lb_piercing,
    lb_union,
    lb_union_ceil,
    run_bench,
    write_bench_csv,
)

__version__ = "0.1.0"
