#!/usr/bin/env bash
# bench.sh — reproducible benchmark runs for the engine fixtures.
#
# Usage:
#   scripts/bench.sh [output-file]             # run, save raw `go test -bench` output
#   scripts/bench.sh old.txt new.txt           # compare two saved runs with benchstat
#   scripts/bench.sh --parallel-json [raw.txt] # emit a BENCH_PARALLEL.json trajectory entry
#
# The run mode executes the BENCH_ENGINE.json fixtures (BenchmarkEngine_*)
# plus the sharded-engine comparison (BenchmarkParallel_vs_Serial) with a
# fixed -benchtime and -count, so two runs are comparable point estimates.
# Save the output before a change and after it, then use the compare mode
# (or benchstat directly) to get significance-tested deltas:
#
#   scripts/bench.sh before.txt
#   ... hack hack hack ...
#   scripts/bench.sh after.txt
#   scripts/bench.sh before.txt after.txt
#
# benchstat is optional: compare mode falls back to a side-by-side diff when
# it is not installed (this repo adds no dependencies; install it with
# `go install golang.org/x/perf/cmd/benchstat@latest` where network allows).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='BenchmarkEngine_|BenchmarkParallel_vs_Serial'
BENCHTIME=${BENCHTIME:-3x}
COUNT=${COUNT:-1}

# --parallel-json: run (or parse a saved run of) BenchmarkParallel_vs_Serial
# and print a trajectory entry in the BENCH_PARALLEL.json shape, ready to
# append to its "trajectory" array. The parallel-scaling CI job uses this to
# record the multi-core scaling point from the run the gate was enforced on.
# Columns: serial, per-FPGA adaptive ("parallel") and per-FPGA fixed-window
# ("parallel_fixed").
if [ "${1:-}" = "--parallel-json" ]; then
    RAW=${2:-}
    if [ -z "$RAW" ]; then
        RAW=$(mktemp)
        trap 'rm -f "$RAW"' EXIT
        echo "running: go test -run '^\$' -bench BenchmarkParallel_vs_Serial -benchtime $BENCHTIME -count 1 ." >&2
        go test -run '^$' -bench 'BenchmarkParallel_vs_Serial' -benchtime "$BENCHTIME" -count 1 . >"$RAW"
    fi
    HOST="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | sed 's/.*: //;s/  */ /g' || echo unknown), $(nproc) core(s) (GOMAXPROCS=${GOMAXPROCS:-$(nproc)})"
    awk -v date="$(date +%F)" -v host="$HOST" -v gover="$(go version | sed 's/^go version //')" '
        /^BenchmarkParallel_vs_Serial\// {
            split($1, path, "/")
            shape = path[2]; sub(/-[0-9]+$/, "", path[3]); mode = path[3]
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op")      ns[shape, mode] = $i
                if ($(i+1) == "sim_cycles") cyc[shape]      = $i
            }
            shapes[shape] = 1
        }
        END {
            label["4node"] = "4node_4x1x2"; label["8node"] = "8node_4x2x2"
            printf "{\n  \"date\": \"%s\",\n  \"host\": \"%s\",\n  \"go\": \"%s\",\n  \"results\": {\n", date, host, gover
            n = 0
            pref[1] = "4node"; pref[2] = "8node"
            for (i = 1; i <= 2; i++) if (pref[i] in shapes) { order[++n] = pref[i]; delete shapes[pref[i]] }
            for (s in shapes) order[++n] = s
            for (i = 1; i <= n; i++) {
                s = order[i]
                printf "    \"%s\": {\"serial_ns_op\": %d, \"parallel_ns_op\": %d, \"parallel_fixed_ns_op\": %d, \"speedup\": %.2f, \"fixed_speedup\": %.2f, \"sim_cycles\": %d}%s\n", \
                    (s in label ? label[s] : s), ns[s, "serial"], ns[s, "parallel"], ns[s, "parallel-fixed"], \
                    ns[s, "serial"] / ns[s, "parallel"], ns[s, "serial"] / ns[s, "parallel-fixed"], cyc[s], (i < n ? "," : "")
            }
            printf "  }\n}\n"
        }' "$RAW"
    exit 0
fi

if [ $# -eq 2 ]; then
    if command -v benchstat >/dev/null 2>&1; then
        exec benchstat "$1" "$2"
    fi
    echo "benchstat not installed; raw side-by-side (old | new):" >&2
    paste -d'|' <(grep '^Benchmark' "$1") <(grep '^Benchmark' "$2") | column -t -s'|'
    exit 0
fi

OUT=${1:-/dev/stdout}
echo "running: go test -run '^\$' -bench '$BENCH' -benchtime $BENCHTIME -count $COUNT -benchmem ." >&2
go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee "$OUT"
