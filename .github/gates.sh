#!/usr/bin/env bash
# The CI gates: one function per step of .github/workflows/tests.yml after
# Install, each holding that step's commands.  The steps, in order, are read
# from the workflow's `run: bash .github/gates.sh NAME` lines.
#
#   bash .github/gates.sh NAME   run one step, as its workflow step does
#   bash .github/gates.sh all    run every step in workflow order, each in a
#                                bash of its own, print "PASS NAME" or
#                                "FAIL NAME" after each with its wall seconds,
#                                and exit 1 if any failed
#
# A step runs under `set -e` without pipefail, as a workflow `run:` with no
# `shell:` does.  Steps share their files through $RUNNER_TEMP, so a step
# run alone may need the one before it; without $RUNNER_TEMP a temporary
# directory stands in and is removed at exit.  `coverpierce` is the installed
# command when there is one, else `python3 -m coverpierce.cli` over src/.
set -e
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mapfile -t STEPS < <(sed -n 's/^ *run: bash \.github\/gates\.sh \([[:alnum:]_]\+\)$/\1/p' .github/workflows/tests.yml)

own=
trap '[ -z "$own" ] || rm -rf "$own"' EXIT
if [ -z "$RUNNER_TEMP" ] || ! command -v coverpierce > /dev/null; then
    own=$(mktemp -d)
fi
if [ -z "$RUNNER_TEMP" ]; then
    export RUNNER_TEMP=$own
fi
if ! command -v coverpierce > /dev/null; then  # a checkout without the package installed
    mkdir "$own/bin"
    cat > "$own/bin/coverpierce" <<EOF
#!/bin/sh
PYTHONPATH="$PWD/src\${PYTHONPATH:+:\$PYTHONPATH}" exec python3 -m coverpierce.cli "\$@"
EOF
    chmod +x "$own/bin/coverpierce"
    export PATH="$own/bin:$PATH"
fi

line_count() {  # Source line count
    wc -l src/coverpierce/*.py
}

tier1() {  # Tier-1 tests
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
}

benchmark_tests() {  # Benchmark tests
    python3 -m pytest -q perfbench/tests
}

demos() {  # Demo smoke run
    for demo in demos/0{1,2,3}_*.py; do PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "$demo" || exit 1; done
}

verify_1000() {  # Verify at N=1000 under a 1 GB address-space cap
    coverpierce generate --family random-piercing --n 1000 --seed 1 --out "$RUNNER_TEMP/rp1000.json"
    (ulimit -v 1000000 && coverpierce verify --in "$RUNNER_TEMP/rp1000.json")
}

verify_beyond_budget() {  # Verify beyond the grid oracle's cell budget exits 2 under a 2 GB cap
    coverpierce generate --family random-piercing --n 20000 --seed 1 --out "$RUNNER_TEMP/rp20000.json"
    s=0; (ulimit -v 2000000 && timeout 60 coverpierce verify --in "$RUNNER_TEMP/rp20000.json") || s=$?
    test "$s" -eq 2
}

bench_trial_cap() {  # Bench at the trial-count cap streams its header and first row
    # bench exits non-zero once head closes the pipe; only the two lines count
    rows=$(timeout 20 coverpierce bench --family disjoint --n 1 --trials 4194304 | head -n 2) || true
    test "$(printf '%s\n' "$rows" | wc -l)" -eq 2
}

solve_2_18() {  # Solve at N=2^18 under a 1 GB address-space cap within 60 s
    coverpierce generate --family random-piercing --n 262144 --seed 1 --out "$RUNNER_TEMP/rp262144.json"
    # no point pierces this family, so solve exits 1; so would a crash, which prints no verdict
    s=0; out=$(ulimit -v 1000000 && timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp262144.json") || s=$?
    test "$s" -eq 1
    printf '%s\n' "$out" | grep -q '"pierceable":false'
}

reference_2_20() {  # Bulk and scalar solves agree at N=2^20 within 120 s
    # seed-1 random-piercing, staircase and chain, each solved as is and with its module's
    # BULK_MIN_N past N, on the scalar sorts, aggregates and sweep
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} timeout 120 python -c '
import time
from coverpierce import bounds, core, coverage, piercing
n = 2**20
for family, module, solve in (("random-piercing", piercing, piercing.solve_piercing),
                              ("staircase", piercing, piercing.solve_piercing),
                              ("chain", coverage, coverage.solve_coverage)):
    instance, runs, bulk_min_n = bounds.generate_instance(family, n, 1), [], module.BULK_MIN_N
    for limit in (bulk_min_n, n + 1):
        module.BULK_MIN_N = limit
        counter, start = core.QueryCounter(), time.perf_counter()
        verdict = solve(instance, counter)
        runs.append((verdict, (counter.lt, counter.eq, counter.gt), time.perf_counter() - start))
    module.BULK_MIN_N = bulk_min_n
    (bulk, counts, bulk_s), (scalar, scalar_counts, scalar_s) = runs
    assert (bulk, counts) == (scalar, scalar_counts), (family, runs)
    print(f"{family}: {bulk.to_dict()} (lt, eq, gt) = {counts}, bulk {bulk_s:.2f} s, scalar {scalar_s:.2f} s")'
}

generate_n_cap() {  # Generate at the --n cap under a 1 GB address-space cap within 120 s
    # the JSON text is written in chunks from the instance's columns
    (ulimit -v 1000000 && timeout 120 coverpierce generate --family random-piercing --n 4194304 --out "$RUNNER_TEMP/rp-cap.json")
    test "$(tail -c 3 "$RUNNER_TEMP/rp-cap.json")" = "]}"
}

solve_n_cap() {  # Solve at the --n cap under a 1 GB address-space cap within 60 s
    # the generated text is read in bulk into the columns, with no object per cross
    coverpierce generate --family random-piercing --n 4194304 --seed 1 --out "$RUNNER_TEMP/rp-cap-1.json"
    s=0; out=$(ulimit -v 1000000 && timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp-cap-1.json") || s=$?
    test "$s" -eq 1
    # the count pins the sort's int32 rank tallies at the largest N the CLI takes
    printf '%s\n' "$out" | grep -qx '{"pierceable":false,"queries":217622933}'
}

solve_oom_exits_2() {  # Solve at the --n cap out of memory exits 2 with one line
    # under a 600 MB cap the solve cannot finish; exit 1 would read as "not pierceable"
    s=0; (ulimit -v 600000 && timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp-cap-1.json") \
        > "$RUNNER_TEMP/out.txt" 2> "$RUNNER_TEMP/err.txt" || s=$?
    test "$s" -eq 2
    test ! -s "$RUNNER_TEMP/out.txt"
    test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
    grep -q "^solve: out of memory: " "$RUNNER_TEMP/err.txt"
}

solve_n_cap_pierceable() {  # Solve a pierceable instance at the --n cap under a 1 GB address-space cap within 60 s
    # every h arm of the seed-1 file starts at the x-domain's lo, so x = lo pierces every
    # cross; solve then checks its point against all 2^22 crosses, in bulk
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -c '
import sys
from coverpierce import core
inst = core.loads_instance(open(sys.argv[1], "rb").read())
h = inst.h.copy()
h[:, 0] = inst.xdomain.lo
core.dump_instance(core.PiercingInstance(inst.xdomain, inst.ydomain, h=h, v=inst.v), sys.argv[2])' \
      "$RUNNER_TEMP/rp-cap-1.json" "$RUNNER_TEMP/rp-cap-pierceable.json"
    s=0; out=$(ulimit -v 1000000 && timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp-cap-pierceable.json") || s=$?
    test "$s" -eq 0
    printf '%s\n' "$out" | grep -q '"pierceable":true'
}

solve_shifted() {  # Solve at N=2^16 with every coordinate shifted by 10^30 within 60 s
    # beyond int64 each axis is a column of Python ints, solved on the bulk path as int64 is
    coverpierce generate --family random-piercing --n 65536 --seed 1 --out "$RUNNER_TEMP/rp65536.json"
    python .github/shift_instance.py "$RUNNER_TEMP/rp65536.json" "$RUNNER_TEMP/rp65536-shifted.json"
    s=0; out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp65536-shifted.json") || s=$?
    test "$s" -eq 1
    printf '%s\n' "$out" | grep -q '"queries":2613288'
}

solve_shifted_chain() {  # Solve a chain at N=2^16 with every value shifted by 10^30 within 60 s
    coverpierce generate --family chain --n 65536 --seed 1 --out "$RUNNER_TEMP/ch65536.json"
    python .github/shift_instance.py "$RUNNER_TEMP/ch65536.json" "$RUNNER_TEMP/ch65536-shifted.json"
    out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/ch65536-shifted.json")
    printf '%s\n' "$out" | grep -q '"queries":1096801'
}

solve_fractional_domain() {  # Solve the shifted chain with a fractional domain end within 60 s
    # a fraction among ints beyond 2^53 sends the axis to the loader's exact ranking
    python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["domain"][0] = -0.5; json.dump(doc, open(sys.argv[2], "w"))' \
      "$RUNNER_TEMP/ch65536-shifted.json" "$RUNNER_TEMP/ch65536-fractional.json"
    s=0; out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/ch65536-fractional.json") || s=$?
    test "$s" -eq 1
    test "$out" = '{"covered":false,"queries":965729,"gap":[0,1]}'
}

solve_decimal_chain() {  # Solve a chain at N=2^20 written as rank/2 under a 1 GB address-space cap within 60 s
    # compact JSON floats are plain decimals, which the loader reads in bulk and ranks
    coverpierce generate --family chain --n 1048576 --seed 1 --out "$RUNNER_TEMP/ch1048576.json"
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -c '
import json, sys
from coverpierce import core
doc = json.load(open(sys.argv[1]))
doc["domain"] = [v / 2 for v in doc["domain"]]
doc["intervals"] = [[lo / 2, hi / 2] for lo, hi in doc["intervals"]]
text = json.dumps(doc, separators=(",", ":")) + "\n"
assert core._read_canonical(text.encode()) is not None, "the bulk reader declined the rank/2 chain"
open(sys.argv[2], "w").write(text)' \
      "$RUNNER_TEMP/ch1048576.json" "$RUNNER_TEMP/ch1048576-half.json"
    s=0; coverpierce solve --in "$RUNNER_TEMP/ch1048576.json" > "$RUNNER_TEMP/want.txt" || s=$?
    t=0; (ulimit -v 1000000 && timeout 60 coverpierce solve --in "$RUNNER_TEMP/ch1048576-half.json") \
        > "$RUNNER_TEMP/got.txt" || t=$?
    test "$t" -eq "$s"
    cmp "$RUNNER_TEMP/got.txt" "$RUNNER_TEMP/want.txt"
}

solve_int64_top() {  # Solve random-piercing at N=2^16 with the x-domain ending at the largest int64 within 60 s
    # the x axis reaches 2^63 - 1, the largest int64, and is still an int64 column
    python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
dx = 2**63 - 1 - doc["xdomain"][1]
for arm in [doc["xdomain"], *(cr["h"] for cr in doc["crosses"])]:
    arm[:] = [v + dx for v in arm]
json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/rp65536.json" "$RUNNER_TEMP/rp65536-xtop.json"
    s=0; out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp65536-xtop.json") || s=$?
    test "$s" -eq 1
    printf '%s\n' "$out" | grep -q '"queries":2613288'
}

solve_int64_wide() {  # Solve random-piercing at N=2^16 with the x axis spread over 2^62 within 60 s
    # v -> v * 2^45 - 2^62 keeps the order and int64, and (max - min + 1) * N passes
    # 2^63, so the x sorts pack the dense ranks of the keys instead of the keys
    python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
for arm in [doc["xdomain"], *(cr["h"] for cr in doc["crosses"])]:
    arm[:] = [v * 2**45 - 2**62 for v in arm]
json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/rp65536.json" "$RUNNER_TEMP/rp65536-xwide.json"
    s=0; out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp65536-xwide.json") || s=$?
    test "$s" -eq 1
    printf '%s\n' "$out" | grep -q '"queries":2613288'
}

solve_canonical_wide() {  # Solve random-piercing at N=2^16 with x values of up to 17 digits in the canonical text within 60 s
    # v -> v * 1234567890123 - 8 * 10^16 keeps the order and int64, its numbers mostly of 16
    # and 17 digits, of both signs and no run of zeros; written compact, the text is read in
    # bulk, two or three words of eight digits a number
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -c '
import json, sys
from coverpierce import core
doc = json.load(open(sys.argv[1]))
for arm in [doc["xdomain"], *(cr["h"] for cr in doc["crosses"])]:
    arm[:] = [v * 1234567890123 - 8 * 10**16 for v in arm]
text = json.dumps(doc, separators=(",", ":")) + "\n"
assert core._read_canonical(text.encode()) is not None, "the bulk reader declined the wide x axis"
open(sys.argv[2], "w").write(text)' "$RUNNER_TEMP/rp65536.json" "$RUNNER_TEMP/rp65536-xcanonical.json"
    s=0; out=$(timeout 60 coverpierce solve --in "$RUNNER_TEMP/rp65536-xcanonical.json") || s=$?
    test "$s" -eq 1
    printf '%s\n' "$out" | grep -q '"queries":2613288'
}

staircase_2_21() {  # Generate a staircase at N=2^21 under a 1.5 GB address-space cap within 60 s
    # the ladder's arm pairs go straight into int64 columns, with no Cross per member
    (ulimit -v 1500000 && timeout 60 coverpierce generate --family staircase --n 2097152 --out "$RUNNER_TEMP/st2097152.json")
    test "$(tail -c 3 "$RUNNER_TEMP/st2097152.json")" = "]}"
}

staircase_self_check() {  # Staircase self-check at N=3000 within 60 s
    timeout 60 coverpierce generate --family staircase --n 3000 --out "$RUNNER_TEMP/st3000.json"
}

bound_10_6() {  # Bound at N=10^6 within 20 s
    timeout 20 coverpierce bound --n 1000000
}

bound_4177653() {  # Bound at N=4177653 within 20 s
    # lb_union lies within 1e-12 of an integer here, where the exact test of 6^m against N! took 118 s
    out=$(timeout 20 coverpierce bound --n 4177653)
    printf '%s\n' "$out" | grep -q '"lb_union_ceil":33214148'
}

bench_huge_trials() {  # Bench with a 20-digit trial count exits 2 within 20 s
    s=0; timeout 20 coverpierce bench --family disjoint --n 1 --trials 100000000000000000000 || s=$?
    test "$s" -eq 2
}

bulk_merge_cli() {  # Bulk merge sort through the CLI at N=2^16 within 60 s
    timeout 60 coverpierce bench --family chain --family random-coverage --family random-piercing --n 65536 --seed 1
}

stdout_exits_3() {  # Every verb exits 3 when stdout cannot be written
    # a verdict that cannot be written is an I/O failure, never a verdict; the seed-1 file pierces
    coverpierce generate --family random-piercing --n 3 --seed 1 --out "$RUNNER_TEMP/rp3.json"
    exited_3() {  # exit status $1, and one message naming $2 on stderr, no traceback
        test "$1" -eq 3
        test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
        grep -q "^$2: cannot write stdout: " "$RUNNER_TEMP/err.txt"
    }
    for argv in "solve --in $RUNNER_TEMP/rp3.json" "verify --in $RUNNER_TEMP/rp3.json" "bound --n 5" \
                "generate --family chain --n 5" "bench --family chain --n 3" "--help"; do
        name=${argv%% *}; test "$name" != --help || name=coverpierce
        s=0; coverpierce $argv > /dev/full 2> "$RUNNER_TEMP/err.txt" || s=$?
        exited_3 "$s" "$name"
        # fd 1 closed: the interpreter starts with sys.stdout None
        s=0; coverpierce $argv >&- 2> "$RUNNER_TEMP/err.txt" || s=$?
        exited_3 "$s" "$name"
    done
    set +o pipefail  # head's exit is the pipeline's; generate's is PIPESTATUS[0]
    coverpierce generate --family chain --n 200000 2> "$RUNNER_TEMP/err.txt" | head -c 1 > /dev/null
    test "${PIPESTATUS[0]}" -eq 3
    test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
    grep -q "^generate: cannot write stdout: " "$RUNNER_TEMP/err.txt"
}

if [ "$1" = all ]; then
    failed=0
    for name in "${STEPS[@]}"; do
        start=$SECONDS
        if bash .github/gates.sh "$name"; then
            echo "PASS $name $((SECONDS - start)) s"
        else
            echo "FAIL $name $((SECONDS - start)) s"
            failed=1
        fi
    done
    exit "$failed"
fi
if [ $# -ne 1 ] || [[ " ${STEPS[*]} " != *" $1 "* ]]; then
    echo "usage: bash .github/gates.sh all|NAME, NAME one of: ${STEPS[*]}" >&2
    exit 2
fi
"$1"
