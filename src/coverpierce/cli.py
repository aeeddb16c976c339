"""Command-line front end: generate / solve / verify / bench / bound.

Exit codes: 0 positive verdict (or success), 1 negative verdict, 2 usage or
malformed input, 3 I/O failure, 4 solver/oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, coverage, piercing
from .core import (
    CoverageInstance,
    InstanceError,
    dump_chunks,
    dump_instance,
    loads_instance,
    validate,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DISAGREE = 4

# The largest --n and --trials accepted.  Generating an instance, summing a
# bound and running the trials take time linear in them, so a 20-digit value
# could only exhaust memory or never end.
MAX_N = 1 << 22


def size(text: str, what: str = "size") -> int:
    """An ``--n`` or ``--trials`` value: an int in [0, MAX_N]."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative {what} {n}")
    if n > MAX_N:
        raise argparse.ArgumentTypeError(f"{what} {n} exceeds the largest {what}, {MAX_N}")
    return n


def cmd_generate(args) -> int:
    try:
        instance = bounds.generate_instance(args.family, args.n, args.seed)
    except ValueError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.writelines(dump_chunks(instance))
        return EXIT_OK
    try:
        dump_instance(instance, args.out)
    except OSError as exc:
        print(f"generate: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _load(path, strict: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        instance = loads_instance(text)
        return validate(instance, strict=strict)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except ValueError as exc:  # bad UTF-8, or InstanceError for bad JSON and bad instances
        print(f"malformed instance {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_solve(args) -> int:
    instance = _load(getattr(args, "in"), args.strict)
    verdict, positive = bounds.solve(instance)
    print(json.dumps(verdict.to_dict(), separators=(",", ":")))
    return EXIT_OK if positive else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    instance = _load(getattr(args, "in"), args.strict)
    solver_verdict, solver_pos = bounds.solve(instance)
    if isinstance(instance, CoverageInstance):
        oracle_verdict = coverage.oracle_coverage(instance)
        oracle_pos = oracle_verdict.covered
    else:
        try:
            oracle_verdict = piercing.oracle_piercing(instance)
        except InstanceError as exc:  # beyond the grid oracle's cell budget
            print(f"verify: {exc}", file=sys.stderr)
            return EXIT_USAGE
        oracle_pos = oracle_verdict.pierceable
    agree = solver_pos == oracle_pos
    sound = solver_verdict.witness_sound(instance) and oracle_verdict.witness_sound(instance)
    report = {
        "solver": solver_verdict.to_dict(),
        "oracle": oracle_verdict.to_dict(),
        "agree": agree,
        "witnesses_sound": sound,
    }
    print(json.dumps(report, separators=(",", ":")))
    return EXIT_OK if agree and sound else EXIT_DISAGREE


def _parse_n_range(spec: str):
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = size(lo_s), size(hi_s)
        if lo > hi:
            raise ValueError(f"empty range {spec}")
        return list(range(lo, hi + 1))
    return [size(spec)]


def cmd_bench(args) -> int:
    # rows are written as made: a size a family rejects midway keeps the rows before it
    try:
        n_values = _parse_n_range(args.n)
        trials = size(args.trials, "trial count")
        records = bounds.run_bench(args.family, n_values, trials,
                                   seed=args.seed, measure_time=args.measure_time)
        if args.out is None:
            bounds.write_bench_csv(records, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                bounds.write_bench_csv(records, fh)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bench: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_bound(args) -> int:
    n = args.n
    lb = bounds.lb_union(n)
    # lb_equality: the distinctness bound is the same quantity as lb_union
    out = {"n": n, "lb_union": lb, "lb_union_ceil": bounds.lb_union_ceil(n),
           "lb_equality": lb}
    if n >= 2:
        out["lb_piercing"] = bounds.lb_piercing(n)
    print(json.dumps(out, separators=(",", ":")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverpierce",
        description="Interval coverage and cross piercing: generators, "
                    "solvers, oracles and query-count benchmarks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write an instance JSON file")
    p.add_argument("--family", required=True, choices=bounds.FAMILIES)
    p.add_argument("--n", type=size, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve an instance file, print verdict JSON")
    p.add_argument("--in", required=True)
    p.add_argument("--strict", action="store_true",
                   help="reject zero-length intervals")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check solver against the oracle")
    p.add_argument("--in", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the query-count benchmark sweep")
    p.add_argument("--family", action="append", required=True,
                   choices=bounds.FAMILIES)
    p.add_argument("--n", required=True, help="size or inclusive range A..B")
    p.add_argument("--trials", default="1", help="trials per size, 0 to 2^22")
    p.add_argument("--seed", type=int, default=0,
                   help="trial t uses seed SEED+t: its row is the instance "
                        "`generate --seed SEED+t` writes")
    p.add_argument("--out", default=None)
    p.add_argument("--measure-time", action="store_true",
                   help="record solve wall times (breaks byte-determinism)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bound", help="print lower-bound values for a size")
    p.add_argument("--n", type=size, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
