"""Command-line front end: generate / solve / verify / bench / bound.

The parser is built once per process and ``main`` only parses with it;
``--out`` or stdout is chosen in one place, ``_output``.

Exit codes: 0 positive verdict (or success), 1 negative verdict, 2 usage,
malformed input or out of memory, 3 I/O failure (stdout included), 4
solver/oracle disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import sys

from . import bounds, coverage, piercing
from .core import (
    CoverageInstance,
    InstanceError,
    dump_chunks,
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


def _stdout():
    """``sys.stdout``, which is None in a process started with fd 1 closed:
    writing there is then a failed write, as on a closed pipe."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _output(path):
    """The ``--out`` file at ``path``, or stdout, left open, when ``path`` is None."""
    if path is None:
        return contextlib.nullcontext(_stdout())
    return open(path, "w", encoding="utf-8", newline="")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops a help text it cannot write; here that is a failed write
        (file or _stdout()).write(self.format_help())


def cmd_generate(args) -> int:
    instance = bounds.generate_instance(args.family, args.n, args.seed)
    with _output(args.out) as fh:
        fh.writelines(dump_chunks(instance))
    return EXIT_OK


def _load(path, strict: bool):
    try:
        with open(path, "rb") as fh:  # the bulk reader takes bytes; others are decoded
            return validate(loads_instance(fh.read()), strict=strict)
    except ValueError as exc:  # InstanceError for bad UTF-8, bad JSON and bad instances
        raise InstanceError(f"malformed instance {path}: {exc}") from exc


def cmd_solve(args) -> int:
    instance = _load(getattr(args, "in"), args.strict)
    verdict, positive = bounds.solve(instance)
    print(json.dumps(verdict.to_dict(), separators=(",", ":")), file=_stdout())
    return EXIT_OK if positive else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    instance = _load(getattr(args, "in"), args.strict)
    solver_verdict, solver_pos = bounds.solve(instance)
    if isinstance(instance, CoverageInstance):
        oracle_verdict = coverage.oracle_coverage(instance)
        oracle_pos = oracle_verdict.covered
    else:  # InstanceError beyond the grid oracle's cell budget
        oracle_verdict = piercing.oracle_piercing(instance)
        oracle_pos = oracle_verdict.pierceable
    agree = solver_pos == oracle_pos
    sound = solver_verdict.witness_sound(instance) and oracle_verdict.witness_sound(instance)
    report = {
        "solver": solver_verdict.to_dict(),
        "oracle": oracle_verdict.to_dict(),
        "agree": agree,
        "witnesses_sound": sound,
    }
    print(json.dumps(report, separators=(",", ":")), file=_stdout())
    return EXIT_OK if agree and sound else EXIT_DISAGREE


def _parse_n_range(spec: str):
    if ".." in spec:
        lo, hi = map(size, spec.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty range {spec}")
        return range(lo, hi + 1)
    return [size(spec)]


def cmd_bench(args) -> int:
    # rows are written as made: a size a family rejects midway keeps the rows before it
    n_values = _parse_n_range(args.n)  # sizes and trials are checked before --out opens
    records = bounds.run_bench(args.family, n_values, size(args.trials, "trial count"),
                               seed=args.seed, measure_time=args.measure_time)
    with _output(args.out) as fh:
        bounds.write_bench_csv(records, fh)
    return EXIT_OK


def cmd_bound(args) -> int:
    n = args.n
    # lb_piercing sums ln k up to n // 2 first, and lb_union carries that sum on
    piercing = {"lb_piercing": bounds.lb_piercing(n)} if n >= 2 else {}
    lb = bounds.lb_union(n)
    # lb_equality: the distinctness bound is the same quantity as lb_union
    out = {"n": n, "lb_union": lb, "lb_union_ceil": bounds.lb_union_ceil(n),
           "lb_equality": lb, **piercing}
    print(json.dumps(out, separators=(",", ":")), file=_stdout())
    return EXIT_OK


# built once per process: each parse fills a fresh namespace, --family's list too
_parser = _Parser(prog="coverpierce",
                  description="Interval coverage and cross piercing: generators, "
                              "solvers, oracles and query-count benchmarks.")
_verbs = _parser.add_subparsers(dest="verb", required=True)

_p = _verbs.add_parser("generate", help="write an instance JSON file")
_p.add_argument("--family", required=True, choices=bounds.FAMILIES)
_p.add_argument("--n", type=size, required=True)
_p.add_argument("--seed", type=int, default=0)
_p.add_argument("--out", default=None)
_p.set_defaults(func=cmd_generate)

_p = _verbs.add_parser("solve", help="solve an instance file, print verdict JSON")
_p.add_argument("--in", required=True)
_p.add_argument("--strict", action="store_true", help="reject zero-length intervals")
_p.set_defaults(func=cmd_solve)

_p = _verbs.add_parser("verify", help="cross-check solver against the oracle")
_p.add_argument("--in", required=True)
_p.add_argument("--strict", action="store_true")
_p.set_defaults(func=cmd_verify)

_p = _verbs.add_parser("bench", help="run the query-count benchmark sweep")
_p.add_argument("--family", action="append", required=True, choices=bounds.FAMILIES)
_p.add_argument("--n", required=True, help="size or inclusive range A..B")
_p.add_argument("--trials", default="1", help="trials per size, 0 to 2^22")
_p.add_argument("--seed", type=int, default=0,
                help="trial t uses seed SEED+t: its row is the instance "
                     "`generate --seed SEED+t` writes")
_p.add_argument("--out", default=None)
_p.add_argument("--measure-time", action="store_true",
                help="record solve wall times (breaks byte-determinism)")
_p.set_defaults(func=cmd_bench)

_p = _verbs.add_parser("bound", help="print lower-bound values for a size")
_p.add_argument("--n", type=size, required=True)
_p.set_defaults(func=cmd_bound)


def main(argv=None) -> int:
    args = argparse.Namespace(verb="coverpierce")  # names a failure before the verb is known
    try:  # the only code that turns a failure into an exit code
        try:
            args = _parser.parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # argparse's own exit, its help or message already written
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        print(end="", flush=True)  # flush stdout (None skips it), so a failed write exits 3
        return code
    except OSError as exc:  # before ValueError: io.UnsupportedOperation is both
        path = exc.filename or getattr(args, "out", None)
        if path is None:  # stdout: closed, or the interpreter flushes it at exit and fails
            path = "stdout"
            with contextlib.suppress(OSError, AttributeError):  # a None stdout has no close
                sys.stdout.close()
        action = "read" if path == getattr(args, "in", None) else "write"
        print(f"{args.verb}: cannot {action} {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # never exit 1, which would read as a negative verdict
        print(f"{args.verb}: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
