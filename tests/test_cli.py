import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import coverpierce
from coverpierce import bounds, coverage
from coverpierce.cli import (
    EXIT_DISAGREE,
    EXIT_IO,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from coverpierce.core import dump_chunks, loads_instance
from coverpierce.coverage import CoverageVerdict


HUGE_Y_ONE_CROSS = (b'{"problem":"piercing","xdomain":[0,9],"ydomain":[0,1' + b"0" * 400
                    + b'],"crosses":[{"h":[0,1],"v":[0,1]}]}')
HUGE_Y_NO_CROSSES = (b'{"problem":"piercing","xdomain":[0,9],"ydomain":[0,1' + b"0" * 400
                     + b'],"crosses":[]}')


def write_coverage(path, domain, pairs):
    doc = {"problem": "coverage", "domain": list(domain),
           "intervals": [list(p) for p in pairs]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def write_piercing(path, crosses, xdomain=(0, 9), ydomain=(0, 9)):
    doc = {"problem": "piercing", "xdomain": list(xdomain),
           "ydomain": list(ydomain),
           "crosses": [{"h": list(h), "v": list(v)} for h, v in crosses]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("family,n", [
        ("chain", 5), ("staircase", 6), ("staircase-literal", 8),
        ("disjoint", 4), ("random-coverage", 7), ("random-piercing", 7),
    ])
    def test_families_emit_loadable_json(self, family, n, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(["generate", "--family", family, "--n", str(n),
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        instance = loads_instance(out.read_text(encoding="utf-8"))
        assert instance.n == n
        # writing back reproduces the file byte for byte
        assert "".join(dump_chunks(instance)) == out.read_text(encoding="utf-8")

    def test_stdout_when_no_out(self, capsys):
        code = main(["generate", "--family", "chain", "--n", "3"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert text.endswith("\n")
        assert loads_instance(text).n == 3

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["generate", "--family", "random-piercing", "--n", "9",
                  "--seed", "77", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_random_alias(self, capsys):
        assert main(["generate", "--family", "random", "--n", "6"]) == EXIT_USAGE

    def test_staircase_too_small_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--family", "staircase", "--n", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err != ""

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code = main(["generate", "--family", "chain", "--n", "3",
                     "--out", str(tmp_path / "no" / "dir" / "x.json")])
        assert code == EXIT_IO


class TestSolve:
    def test_covered_exits_zero(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5),
                              [(0, 2), (1, 4), (3, 5)])
        assert main(["solve", "--in", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["covered"] is True
        assert "gap" not in out

    def test_uncovered_exits_one_with_gap(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(0, 2), (3, 5)])
        assert main(["solve", "--in", path]) == EXIT_NEGATIVE
        out = json.loads(capsys.readouterr().out)
        assert out["covered"] is False
        assert out["gap"] == [2, 3]

    def test_pierceable_exits_zero_with_witness(self, tmp_path, capsys):
        path = write_piercing(tmp_path / "p.json", [((0, 3), (5, 9))])
        assert main(["solve", "--in", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["pierceable"] is True
        assert len(out["witness"]) == 2

    def test_strict_rejects_degenerate(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(2, 2), (0, 5)])
        assert main(["solve", "--in", path]) == EXIT_OK
        assert main(["solve", "--in", path, "--strict"]) == EXIT_USAGE

    @pytest.mark.parametrize("xdomain, ydomain", [((3, 3), (0, 0)), ((3, 3), (0, 9)),
                                                  ((0, 9), (4, 4))])
    def test_strict_rejects_a_zero_length_piercing_domain(self, xdomain, ydomain,
                                                          tmp_path, capsys):
        # a point domain once passed --strict for piercing, though not for coverage
        path = write_piercing(tmp_path / "p.json", [], xdomain, ydomain)
        assert main(["solve", "--in", path]) == EXIT_OK
        assert main(["solve", "--in", path, "--strict"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1  # the verdict of the first solve only
        assert "degenerate" in captured.err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--in", str(path)]) == EXIT_USAGE

    def test_wrong_schema_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem":"coverage"}', encoding="utf-8")
        assert main(["solve", "--in", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("doc", [
        # a three-number and a one-number pair once parsed as two intervals
        {"problem": "coverage", "domain": [0, 5], "intervals": [[0, 1, 2], [3]]},
        # a string and a bool once passed as the numbers 5 and 0
        {"problem": "coverage", "domain": [0, "5"], "intervals": [[0, 5]]},
        {"problem": "coverage", "domain": [0, 5], "intervals": [[False, 5]]},
        {"problem": "piercing", "xdomain": [0, 9], "ydomain": [0, 9],
         "crosses": [{"h": [0, 1, 2], "v": [0, 1]}]},
        {"problem": "piercing", "xdomain": [0, 9], "ydomain": [0, 9],
         "crosses": [{"h": [0, 1], "v": [True, 1]}]},
        # an object or a string in place of the member array once loaded as no members
        {"problem": "coverage", "domain": [0, 5], "intervals": {}},
        {"problem": "coverage", "domain": [0, 5], "intervals": ""},
        {"problem": "piercing", "xdomain": [0, 9], "ydomain": [0, 9], "crosses": {}},
    ])
    def test_malformed_pairs_are_usage_errors(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", "--in", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_deep_nesting_is_usage_error(self, tmp_path, capsys):
        # once an uncaught RecursionError from the JSON decoder
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["solve", "--in", str(path)]) == EXIT_USAGE
        assert "malformed instance" in capsys.readouterr().err

    def test_non_utf8_byte_is_usage_error(self, tmp_path, capsys):
        # once an uncaught UnicodeDecodeError from reading the file
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"problem": "coverage", "domain": [0, 5], '
                         b'"intervals": [[0, 5]], "note": "\xff"}')
        assert main(["solve", "--in", str(path)]) == EXIT_USAGE
        assert "malformed instance" in capsys.readouterr().err

    def test_huge_integer_next_to_a_fraction_solves(self, tmp_path, capsys):
        # float(10**400) once raised an uncaught OverflowError while ranking
        path = write_coverage(tmp_path / "c.json", (0.5, 10**400),
                              [(0.5, 3), (2, 10**400)])
        assert main(["solve", "--in", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["covered"] is True
        path = write_coverage(tmp_path / "c.json", (0.5, 10**400),
                              [(0.5, 3), (4, 10**400)])
        assert main(["solve", "--in", path]) == EXIT_NEGATIVE

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["solve", "--in", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_input_file_not_mutated(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(0, 5)])
        before = (tmp_path / "c.json").read_bytes()
        main(["solve", "--in", path])
        assert (tmp_path / "c.json").read_bytes() == before


class TestVerify:
    def test_agreement_exits_zero(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(0, 3), (2, 5)])
        assert main(["verify", "--in", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is True
        assert report["witnesses_sound"] is True

    def test_piercing_agreement(self, tmp_path, capsys):
        path = write_piercing(tmp_path / "p.json",
                              [((0, 3), (5, 9)), ((4, 9), (0, 2))])
        assert main(["verify", "--in", path]) == EXIT_OK

    def test_injected_fault_exits_four(self, tmp_path, capsys, monkeypatch):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(0, 5)])
        monkeypatch.setattr(coverage, "oracle_coverage",
                            lambda instance: CoverageVerdict(False, (1, 2), 0))
        assert main(["verify", "--in", path]) == EXIT_DISAGREE
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is False
        assert report["solver"]["covered"] is True

    def test_no_hidden_fault_flag(self, tmp_path, capsys):
        path = write_coverage(tmp_path / "c.json", (0, 5), [(0, 5)])
        assert main(["verify", "--in", path, "--inject-fault"]) == EXIT_USAGE

    @pytest.mark.parametrize("data", [HUGE_Y_ONE_CROSS, HUGE_Y_NO_CROSSES],
                             ids=["one-cross", "no-crosses"])
    def test_huge_integer_domain_verifies(self, data, tmp_path, capsys):
        # the grid oracle once put 10**400 in a numpy array: OverflowError
        path = tmp_path / "p.json"
        path.write_bytes(data)
        assert main(["verify", "--in", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["agree"] is True


class TestBench:
    def test_row_count_and_verdicts(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--family", "chain", "--n", "4..6",
                     "--trials", "2", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("family,n,seed,comparisons,verdict")
        assert len(lines) == 1 + 3 * 2
        assert all(line.split(",")[4] == "covered" for line in lines[1:])

    def test_byte_identical_under_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bench", "--family", "random-piercing", "--family", "staircase",
                "--n", "5..8", "--trials", "3", "--seed", "123"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_a_range_of_sizes_is_walked_not_listed(self, capsys):
        # a list of the 2^18 + 1 sizes traced 9 MB; at --n 0..4194304 it took 189 MB of RSS
        tracemalloc.start()
        try:
            assert main(["bench", "--family", "disjoint", "--n", "0..262144",
                         "--trials", "0"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.splitlines() == [",".join(bounds.CSV_HEADER)]
        assert peak < 2**20

    def test_stdout_output(self, capsys):
        assert main(["bench", "--family", "disjoint", "--n", "3",
                     "--trials", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("disjoint,3,0,")

    @pytest.mark.parametrize("seed", [0, 4294967294])  # the second wraps mod 2^32
    def test_every_row_is_rebuilt_by_generate(self, seed, tmp_path, capsys):
        path = tmp_path / "inst.json"
        for family in bounds.FAMILIES:
            assert main(["bench", "--family", family, "--n", "8..9",
                         "--trials", "3", "--seed", str(seed)]) == EXIT_OK
            rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
            assert [int(row[2]) for row in rows] == [seed, seed + 1, seed + 2] * 2
            for fam, n, row_seed, comparisons, verdict, _, _ in rows:
                assert main(["generate", "--family", fam, "--n", n,
                             "--seed", row_seed, "--out", str(path)]) == EXIT_OK
                code = main(["solve", "--in", str(path)])
                assert code == (EXIT_OK if verdict in ("covered", "pierceable")
                                else EXIT_NEGATIVE)
                assert json.loads(capsys.readouterr().out)["queries"] == int(comparisons)

    def test_rejected_size_keeps_earlier_rows(self, tmp_path, capsys):
        # staircase rejects N=2 after the disjoint rows are written
        out = tmp_path / "bench.csv"
        assert main(["bench", "--family", "disjoint", "--family", "staircase",
                     "--n", "2..3", "--out", str(out)]) == EXIT_USAGE
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[:2] for line in lines] == [
            ["family", "n"], ["disjoint", "2"], ["disjoint", "3"]]
        assert capsys.readouterr().err.startswith("bench: minimal non-pierceable")

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        assert main(["bench", "--family", "disjoint", "--n", "1",
                     "--out", str(tmp_path / "no" / "such.csv")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("bench: cannot write")

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["bench", "--family", "chain", "--n", "9..4",
                     "--trials", "1"]) == EXIT_USAGE

    def test_huge_range_is_usage_error(self, capsys):
        # list(range(...)) once raised an uncaught OverflowError (exit 1)
        assert main(["bench", "--family", "chain", "--n",
                     "2..100000000000000000000"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bench:")

    def test_negative_trials_is_usage_error(self, capsys):
        # once exit 0 with only the CSV header
        assert main(["bench", "--family", "chain", "--n", "3",
                     "--trials", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bench:")

    def test_huge_trials_is_usage_error(self, capsys, monkeypatch):
        # once ran without end, building one record per trial before any output
        runs = []
        monkeypatch.setattr(bounds, "run_bench", lambda *args, **kw: runs.append(args) or [])
        assert main(["bench", "--family", "disjoint", "--n", "1",
                     "--trials", "100000000000000000000"]) == EXIT_USAGE
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bench: trial count 100000000000000000000 exceeds")


class TestBound:
    def test_values(self, capsys):
        assert main(["bound", "--n", "8"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 8
        assert out["lb_union"] == pytest.approx(5.9186, abs=1e-3)
        assert out["lb_union_ceil"] == 6
        assert out["lb_piercing"] == pytest.approx(2.7738, abs=1e-3)
        assert out["lb_equality"] == out["lb_union"]

    def test_small_n_omits_piercing(self, capsys):
        assert main(["bound", "--n", "1"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert "lb_piercing" not in out

    def test_large_n_is_quick(self, capsys):
        # one multiplication by 6 per unit of lb_union_ceil once took 29 s
        # at n=10**5, and math.factorial(10**6) inside it took 25 s
        for n, ceil in [(100_000, 586_742), (1_000_000, 7_152_477)]:
            start = time.perf_counter()
            assert main(["bound", "--n", str(n)]) == EXIT_OK
            assert time.perf_counter() - start < 10
            assert json.loads(capsys.readouterr().out)["lb_union_ceil"] == ceil

    def test_negative_n_is_usage_error(self, capsys):
        assert main(["bound", "--n", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err


class FailingStdout(io.TextIOBase):
    """A stdout whose every write and flush raises ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def writelines(self, lines):
        raise self.error

    def flush(self):
        raise self.error


def every_verb(tmp_path):
    """argv for each verb with stdout as its only output; solve and verify on
    a pierceable file, whose exit 1 would once have read as "not pierceable"."""
    path = write_piercing(tmp_path / "p.json", [((0, 3), (5, 9))])
    return {"solve": ["solve", "--in", path], "verify": ["verify", "--in", path],
            "bound": ["bound", "--n", "5"],
            "generate": ["generate", "--family", "chain", "--n", "5"],
            "bench": ["bench", "--family", "chain", "--n", "3"]}


VERBS = ["solve", "verify", "bound", "generate", "bench"]


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")],
                         ids=["broken-pipe", "disk-full"])
@pytest.mark.parametrize("verb", VERBS)
def test_unwritable_stdout_is_io_error(verb, error, tmp_path, capsys):
    # once a traceback and exit 1, which for solve and verify reads as a verdict
    with redirect_stdout(FailingStdout(error)):
        assert main(every_verb(tmp_path)[verb]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"{verb}: cannot write stdout: ")
    assert err.count("\n") == 1


def run_process(argv, unbuffered="", **kwargs):
    """``main(argv)`` in a new interpreter, its stderr captured as text."""
    src = str(Path(coverpierce.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "from coverpierce.cli import main; sys.exit(main(sys.argv[2:]))",
         src, *argv], stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONUNBUFFERED=unbuffered), timeout=120, **kwargs)


def failed_stdout(proc, name):
    """Exit 3 with one stderr line naming stdout, and no traceback."""
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith(f"{name}: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("verb", VERBS)
def test_stdout_on_a_full_device_exits_three(verb, tmp_path):
    # only a process sees the interpreter flush stdout again at exit: had the
    # failed write stayed buffered, that flush would print "Exception ignored"
    # and turn exit 3 into 120
    argv = every_verb(tmp_path)[verb]
    for unbuffered in ("", "1"):
        with open("/dev/full", "wb") as full:
            failed_stdout(run_process(argv, unbuffered, stdout=full), verb)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_help_on_a_full_device_exits_three():
    # argparse's exit once left before the flush (120 from the interpreter's
    # own flush, or 0 unbuffered, where argparse drops the failed write)
    for unbuffered in ("", "1"):
        with open("/dev/full", "wb") as full:
            failed_stdout(run_process(["--help"], unbuffered, stdout=full), "coverpierce")


def close_stdout():
    os.close(1)


@pytest.mark.parametrize("verb", VERBS + ["help"])
def test_closed_stdout_exits_three(verb, tmp_path):
    # with fd 1 closed at start sys.stdout is None: generate and bench once
    # ended in a traceback with exit 1, the others in 0 or 1 with nothing written
    argv = ["--help"] if verb == "help" else every_verb(tmp_path)[verb]
    proc = run_process(argv, preexec_fn=close_stdout)
    failed_stdout(proc, "coverpierce" if verb == "help" else verb)


def test_closed_stdout_is_no_failure_without_a_write(tmp_path):
    out = tmp_path / "chain.json"
    proc = run_process(["generate", "--family", "chain", "--n", "5", "--out", str(out)],
                       preexec_fn=close_stdout)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert out.read_text(encoding="utf-8").endswith("]}\n")
    proc = run_process(["bound", "--n", "-1"], preexec_fn=close_stdout)
    assert proc.returncode == EXIT_USAGE and "negative size -1" in proc.stderr


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("verb", [
    ["generate", "--family", "staircase"],  # once an uncaught MemoryError
    ["generate", "--family", "staircase-literal"],  # once an uncaught OverflowError
    ["generate", "--family", "disjoint"],  # once never ended
    ["bound"],  # once never ended
], ids=["staircase", "staircase-literal", "disjoint", "bound"])
def test_huge_size_is_usage_error(verb, capsys):
    assert main(verb + ["--n", "100000000000000000000"]) == EXIT_USAGE
    assert "exceeds the largest size" in capsys.readouterr().err


# --- fuzzing the argv of ``generate``, ``bench`` and ``bound`` ----------------

HUGE = "100000000000000000000"
EDGE_TOKENS = ["", "..", "3..", "..3", "5..3", "-1", "-7", "x", "1.5", HUGE, "-" + HUGE]
small_sizes = st.integers(0, 40).map(str)
size_tokens = small_sizes | st.sampled_from(EDGE_TOKENS)
n_ranges = st.builds(lambda lo, span: f"{lo}..{lo + span}",
                     st.integers(-3, 40), st.integers(-2, 3))
seed_tokens = (st.integers(-5, 2**32 + 5).map(str)
               | st.sampled_from(["", "x", "-1", HUGE, "-" + HUGE]))
trial_tokens = st.integers(-2, 3).map(str) | st.sampled_from(["", "x", "1.5", HUGE])
families = st.sampled_from(sorted(bounds.FAMILIES) + ["nope", ""])


@st.composite
def cli_argv(draw):
    """argv for generate, bench or bound: options in any order, each value
    drawn from valid small values and edge tokens, some options left out."""
    verb = draw(st.sampled_from(["generate", "bench", "bound"]))
    options = [("--n", size_tokens | n_ranges if verb == "bench" else size_tokens)]
    if verb != "bound":
        options += [("--family", families), ("--seed", seed_tokens)]
        if verb == "bench":
            options += [("--family", families), ("--trials", trial_tokens)]
    argv = []
    for flag, values in draw(st.permutations(options)):
        if draw(st.integers(0, 9)):  # one option in ten is left out
            value = draw(values)
            # "--n=-3..2": a separate "-3..2" would be taken for an option
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not draw(st.integers(0, 19)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(EDGE_TOKENS)))
    return [verb] + argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example(["bench", "--family", "chain", "--n", "2..100000000000000000000"])
@example(["bench", "--family", "chain", "--n=-100000000000000000000..2"])
@example(["generate", "--family", "staircase", "--n", HUGE])
@example(["generate", "--family", "staircase-literal", "--n", HUGE])
@example(["generate", "--family", "disjoint", "--n", HUGE])
@example(["bound", "--n", HUGE])
@example(["bench", "--family", "disjoint", "--n", "1", "--trials", HUGE])
def test_argv_exits_zero_or_two(argv):
    assert main(argv) in (EXIT_OK, EXIT_USAGE)


# --- fuzzing ``solve`` and ``verify`` over generated file bytes ---------------

coordinates = st.one_of(
    st.integers(-3, 12), st.integers(-10**400, 10**400),
    st.floats(), st.floats(-3, 12).map(lambda v: round(v, 1)),
    st.booleans(), st.text(max_size=2), st.none())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
ordered_pairs = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(sorted)
pairs = st.one_of(ordered_pairs, st.lists(coordinates, min_size=2, max_size=2),
                  st.lists(coordinates, max_size=3), json_values)
crosses = st.one_of(st.fixed_dictionaries({"h": pairs, "v": pairs}), json_values)
documents = st.fixed_dictionaries({
    "problem": st.sampled_from(["coverage", "piercing"]) | json_values,
    "domain": st.just([0, 9]) | pairs,
    "intervals": st.lists(pairs, max_size=5) | json_values,
    "xdomain": st.just([0, 9]) | pairs,
    "ydomain": st.just([0, 9]) | pairs,
    "crosses": st.lists(crosses, max_size=5) | json_values,
}).flatmap(lambda doc: st.sets(st.sampled_from(sorted(doc)), max_size=2).map(
    lambda dropped: {k: v for k, v in doc.items() if k not in dropped}))


@st.composite
def file_bytes(draw):
    """JSON text of an instance-like document, sometimes nested, cut short or
    given a stray byte; or bytes of any kind."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    doc = draw(documents | json_values)
    data = json.dumps(doc).encode("utf-8")  # NaN and Infinity pass through
    depth = draw(st.sampled_from([0, 0, 0, 3, 5000]))
    data = b"[" * depth + data + b"]" * depth
    cut = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["keep", "truncate", "insert"]))
    if edit == "truncate":
        data = data[:cut]
    elif edit == "insert":
        data = data[:cut] + draw(st.binary(min_size=1, max_size=2)) + data[cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(file_bytes())
@example(b'{"problem":"piercing","xdomain":[0,9],"ydomain":[0,9],"crosses":[]}')
@example(b'{"problem":"coverage","domain":[NaN,Infinity],"intervals":[]}')
@example(b'{"problem":"coverage","domain":[0,1e400],"intervals":[[0.5,1e308]]}')
@example(b'{"problem":"piercing","xdomain":[0,9],"ydomain":[0,9],"crosses":[[0,1]]}')
def test_solve_survives_any_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    assert main(["solve", "--in", str(path)]) in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE)


@settings(max_examples=200, deadline=None)
@given(file_bytes())
@example(HUGE_Y_ONE_CROSS)
@example(HUGE_Y_NO_CROSSES)
@example(b'{"problem":"coverage","domain":[0,1e400],"intervals":[[0.5,1e308]]}')
def test_verify_survives_any_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-verify.json"
    path.write_bytes(data)
    assert main(["verify", "--in", str(path)]) in (EXIT_OK, EXIT_USAGE)
