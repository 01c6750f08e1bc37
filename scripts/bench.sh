#!/usr/bin/env bash
# bench.sh — tier-1 gate + simulator benchmark family, emitting a JSON
# perf record so successive PRs accumulate a trajectory (BENCH_1.json,
# BENCH_2.json, ...).
#
# Usage:
#   scripts/bench.sh [output.json]      # default BENCH_9.json
#   BENCHTIME=2s scripts/bench.sh       # longer benchtime for stabler numbers
#   BASELINE=BENCH_2.json scripts/bench.sh  # record to diff against (default BENCH_8.json)
#   SINK_RUNS=100000 scripts/bench.sh   # shorter streaming sweep (default 1M)
#   FABRIC_PORT=35001 scripts/bench.sh  # loopback port for the fabric section
#
# The emitted file carries ns/op, events/op and ns/event per benchmark,
# the frozen seed baseline (the goroutine-engine numbers before the
# direct-execution engine landed), a check_suite section timing
# cfccheck -n 3 at -workers 1 versus one worker per cpu, in the default
# DPOR mode and the unreduced reference mode, with the rows of each pair
# diffed for equality first, plus a multicore honesty flag (a speedup
# measured on one core is coordination overhead, not speedup), por and
# dpor sections recording the three-way reduction differential
# (cfccheck -pordiff): per portfolio entry the state counts, wall-clock
# and reduction ratios of the static ample-set POR and of source-DPOR
# with symmetry against the unreduced reference, with agreeing verdicts
# enforced — a fleet section with the fixed-seed smoke fleet's
# throughput (runs/sec, events/sec from cmd/cfcfleet's FLEET-SUMMARY
# line), a fabric section timing the default n=2 portfolio single-process
# versus a coordinator plus two local worker processes over loopback TCP
# (jobs/sec and wall-clock from cfccheck -serve's FABRIC-SUMMARY line,
# with the outputs diffed for equality first) — plus a wave leg running
# the full DPOR portfolio with -shards 2 through the distributed wave
# engine, byte-diffed against its single-process run first — and a sink
# section measuring the zero-alloc streaming pipeline:
# a SINK_RUNS-run (default one million) single-cell fleet sweep whose
# per-run observation happens entirely in event sinks, recording
# runs/sec, events/sec, final heap and peak RSS — the RSS is the bounded
# -memory proof, since the sweep retains no traces.
#
# After writing the record it is diffed against the committed baseline
# record. Wall-clock comparisons are only meaningful on like hardware:
# when the baseline's cpu count differs from this host's, a HARDWARE
# MISMATCH note is printed and the time-based comparisons (check_suite
# speedup, ns/op regression warnings) are suppressed instead of
# reporting misleading ratios.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_9.json}"
BASELINE="${BASELINE:-BENCH_8.json}"
BENCHTIME="${BENCHTIME:-500ms}"
SINK_RUNS="${SINK_RUNS:-1000000}"
FABRIC_PORT="${FABRIC_PORT:-34871}"
RAW="$(mktemp)"
PORRAW="$(mktemp)"
OLDTAB="$(mktemp)"
NEWTAB="$(mktemp)"
trap 'rm -f "$RAW" "$PORRAW" "$OLDTAB" "$NEWTAB"' EXIT

go build ./...
go test ./...

# Model-checker wall clock: cfccheck -n 3 at -workers 1 versus one
# worker per cpu, in the default DPOR mode and in the unreduced
# reference mode. -workers k explores up to k portfolio jobs at once and
# prints rows in job order, so each pair's rows must be byte-identical;
# any difference fails the bench run. On a single-core machine the two
# are expected to tie; the speedup is meaningful on multi-core only, so
# the record carries the cpu count alongside.
CPUS="$(getconf _NPROCESSORS_ONLN)"
now_ms() { date +%s%3N; }
CHKDIR="$(mktemp -d)"
go build -o "$CHKDIR/cfccheck" ./cmd/cfccheck
check_pair() { # check_pair <label> <flags...> -> "<ms at -workers 1> <ms at -workers CPUS>", rows diffed
    local label="$1"; shift
    local t0 t1 t2
    t0=$(now_ms)
    "$CHKDIR/cfccheck" -n 3 "$@" -workers 1 > "$CHKDIR/$label-1.txt"
    t1=$(now_ms)
    "$CHKDIR/cfccheck" -n 3 "$@" -workers "$CPUS" > "$CHKDIR/$label-$CPUS.txt"
    t2=$(now_ms)
    diff "$CHKDIR/$label-1.txt" "$CHKDIR/$label-$CPUS.txt" >&2 \
        || { echo "cfccheck -n 3 ($label mode) rows differ between -workers 1 and $CPUS" >&2; exit 1; }
    echo "$((t1 - t0)) $((t2 - t1))"
}
CHECK_DPOR_MS="$(check_pair dpor)"
CHECK_REF_MS="$(check_pair ref -dpor=false -por=false)"
read -r CHECK_DPOR_SERIAL_MS CHECK_DPOR_PAR_MS <<< "$CHECK_DPOR_MS"
read -r CHECK_REF_SERIAL_MS CHECK_REF_PAR_MS <<< "$CHECK_REF_MS"
rm -rf "$CHKDIR"
echo "cfccheck -n 3: DPOR ${CHECK_DPOR_SERIAL_MS}ms at -workers 1, ${CHECK_DPOR_PAR_MS}ms at -workers ${CPUS};" \
    "reference ${CHECK_REF_SERIAL_MS}ms, ${CHECK_REF_PAR_MS}ms (cpus: ${CPUS})"

# Partial-order-reduction differential over the default portfolio: the
# gate fails the whole bench run if any verdict disagrees (set -e), and
# the per-entry lines become the record's por section.
go run ./cmd/cfccheck -pordiff | tee "$PORRAW"

# Fleet throughput: a fixed-seed randomized fleet over the default
# scenarios at n=16 (cmd/cfcfleet). The FLEET-SUMMARY line carries
# runs/sec and simulator events/sec; cfcfleet exits 1 on a violation or
# degraded scenario, failing the bench run (set -e).
FLEETRAW="$(mktemp)"
go run ./cmd/cfcfleet -seed 1 -n 16 -runs 200 | tee "$FLEETRAW"
FLEET_SUMMARY="$(grep '^FLEET-SUMMARY ' "$FLEETRAW")"
fleet_val() { # fleet_val key -> value from the FLEET-SUMMARY line
    awk -v key="$1" '{
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) { print substr($i, length(key) + 2); exit }
        }
    }' <<< "$FLEET_SUMMARY"
}
rm -f "$FLEETRAW"

# Streaming-sink sweep: one fleet cell (uniform × mutex/tas-lock, n=16)
# for SINK_RUNS runs. Every run streams through the sink pipeline — no
# trace is retained — so max_rss_mb stays flat no matter how large
# SINK_RUNS is; it is recorded as the bounded-memory evidence next to
# the throughput.
SINKRAW="$(mktemp)"
go run ./cmd/cfcfleet -seed 1 -n 16 -runs "$SINK_RUNS" -scenarios uniform -workloads mutex/tas-lock | tail -3 | tee "$SINKRAW"
SINK_SUMMARY="$(grep '^FLEET-SUMMARY ' "$SINKRAW")"
sink_val() { # sink_val key -> value from the sweep's FLEET-SUMMARY line
    awk -v key="$1" '{
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) { print substr($i, length(key) + 2); exit }
        }
    }' <<< "$SINK_SUMMARY"
}
rm -f "$SINKRAW"

# Distributed fabric: the default n=2 portfolio run single-process, then
# by a coordinator plus two local worker processes over loopback TCP.
# The outputs must be identical modulo the FABRIC-SUMMARY line (the same
# gate scripts/fabric_smoke.sh enforces in CI), and the record carries
# both wall-clocks plus the coordinator's jobs/sec. On a single-core
# host the three processes time-slice one cpu, so the distributed
# wall-clock measures coordination overhead, not speedup — the record's
# multicore flag (check_suite section) qualifies this number too.
FABDIR="$(mktemp -d)"
go build -o "$FABDIR/cfccheck" ./cmd/cfccheck
t0=$(now_ms)
"$FABDIR/cfccheck" -n 2 > "$FABDIR/single.txt"
t1=$(now_ms)
FABRIC_SINGLE_MS=$((t1 - t0))
"$FABDIR/cfccheck" -n 2 -serve "127.0.0.1:$FABRIC_PORT" > "$FABDIR/fabric.txt" &
FABCOORD=$!
"$FABDIR/cfccheck" -join "127.0.0.1:$FABRIC_PORT" 2>/dev/null &
"$FABDIR/cfccheck" -join "127.0.0.1:$FABRIC_PORT" 2>/dev/null &
wait "$FABCOORD"
wait
diff <(grep -v '^FABRIC-SUMMARY' "$FABDIR/fabric.txt") "$FABDIR/single.txt" \
    || { echo "fabric output differs from single-process run" >&2; exit 1; }
FABRIC_SUMMARY="$(grep '^FABRIC-SUMMARY ' "$FABDIR/fabric.txt")"
fabric_val() { # fabric_val key -> value from the FABRIC-SUMMARY line
    awk -v key="$1" '{
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) { print substr($i, length(key) + 2); exit }
        }
    }' <<< "$FABRIC_SUMMARY"
}
echo "$FABRIC_SUMMARY"
echo "fabric portfolio: single-process ${FABRIC_SINGLE_MS}ms, coordinator+2 workers $(fabric_val wall_ms)ms (cpus: ${CPUS})"

run_fabric() { # run_fabric <outfile> <flags...> -> outputs diffed vs a single-process run
    local out="$1"; shift
    "$FABDIR/cfccheck" "$@" > "$FABDIR/sharded-single.txt"
    "$FABDIR/cfccheck" "$@" -serve "127.0.0.1:$FABRIC_PORT" > "$out" &
    local coord=$!
    "$FABDIR/cfccheck" -join "127.0.0.1:$FABRIC_PORT" 2>/dev/null &
    "$FABDIR/cfccheck" -join "127.0.0.1:$FABRIC_PORT" 2>/dev/null &
    wait "$coord"
    wait
    diff <(grep -v '^FABRIC-SUMMARY' "$out") "$FABDIR/sharded-single.txt" \
        || { echo "sharded fabric output differs from single-process run ($*)" >&2; exit 1; }
}

# Wave leg: the full DPOR portfolio with every job split into
# distributed expansion waves (-shards 2); the diff proves the BSP
# split is invisible, the summary records how many wave tasks crossed
# the wire.
run_fabric "$FABDIR/waves.txt" -n 2 -shards 2
WAVE_SUMMARY="$(grep '^FABRIC-SUMMARY ' "$FABDIR/waves.txt")"
wave_val() {
    awk -v key="$1" '{
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) { print substr($i, length(key) + 2); exit }
        }
    }' <<< "$WAVE_SUMMARY"
}
echo "$WAVE_SUMMARY"
rm -rf "$FABDIR"

go test -run '^$' -bench 'BenchmarkSim' -benchtime "$BENCHTIME" . | tee "$RAW"

{
    printf '{\n'
    printf '  "schema": "cfc-bench-v1",\n'
    printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "cpus": %d,\n' "$CPUS"
    # Frozen reference: BenchmarkSimThroughput on the seed (goroutine
    # engine, round-robin scheduler) before the direct-execution engine.
    printf '  "seed_baseline": {\n'
    printf '    "SimThroughput": {"ns_per_op": 2406599, "events_per_op": 4000, "ns_per_event": 601.6},\n'
    printf '    "SimExhaustiveCheck": {"ns_per_op": 6397282},\n'
    printf '    "go_test_internal_check_seconds": 13.3\n'
    printf '  },\n'
    # cfccheck -n 3 at -workers 1 vs -workers <cpus>, DPOR and
    # reference mode, rows diffed identical before recording. Each
    # speedup is serial/workers; on a single-core host (cpus = 1) it
    # cannot exceed ~1 and records coordination overhead instead.
    # multicore is the honesty flag for every time-based ratio in the
    # record: false means the host had one core, so the speedups and the
    # parallel dpor_ms numbers measure time-slicing, not parallelism.
    printf '  "check_suite": {"cpus": %d, "multicore": %s, "workers": %d, "dpor_serial_seconds": %.2f, "dpor_workers_seconds": %.2f, "dpor_speedup": %.2f, "ref_serial_seconds": %.2f, "ref_workers_seconds": %.2f, "ref_speedup": %.2f},\n' \
        "$CPUS" "$([[ "$CPUS" -gt 1 ]] && echo true || echo false)" "$CPUS" \
        "$(awk "BEGIN{print $CHECK_DPOR_SERIAL_MS/1000.0}")" "$(awk "BEGIN{print $CHECK_DPOR_PAR_MS/1000.0}")" \
        "$(awk "BEGIN{print ($CHECK_DPOR_PAR_MS > 0) ? $CHECK_DPOR_SERIAL_MS/$CHECK_DPOR_PAR_MS : 0}")" \
        "$(awk "BEGIN{print $CHECK_REF_SERIAL_MS/1000.0}")" "$(awk "BEGIN{print $CHECK_REF_PAR_MS/1000.0}")" \
        "$(awk "BEGIN{print ($CHECK_REF_PAR_MS > 0) ? $CHECK_REF_SERIAL_MS/$CHECK_REF_PAR_MS : 0}")"
    # Fleet throughput from the fixed-seed smoke fleet's FLEET-SUMMARY.
    printf '  "fleet": {"seed": %s, "n": %s, "runs": %s, "events": %s, "runs_per_s": %s, "events_per_s": %s},\n' \
        "$(fleet_val seed)" "$(fleet_val n)" "$(fleet_val runs)" "$(fleet_val events)" \
        "$(fleet_val runs_per_s)" "$(fleet_val events_per_s)"
    # Distributed fabric: the n=2 portfolio single-process vs a
    # coordinator plus two local loopback-TCP workers, outputs verified
    # identical before timing. Like every wall-clock ratio in the
    # record, the speedup is only meaningful when multicore is true.
    printf '  "fabric": {"workers": %s, "shards": %s, "jobs": %s, "single_ms": %d, "fabric_wall_ms": %s, "jobs_per_s": %s, "speedup": %.2f},\n' \
        "$(fabric_val workers)" "$(fabric_val shards)" "$(fabric_val jobs)" \
        "$FABRIC_SINGLE_MS" "$(fabric_val wall_ms)" "$(fabric_val jobs_per_s)" \
        "$(awk "BEGIN{w=$(fabric_val wall_ms); print (w > 0) ? $FABRIC_SINGLE_MS/w : 0}")"
    # Wave leg: the DPOR portfolio through the distributed wave engine,
    # byte-identical to single-process (diffed before recording).
    printf '  "fabric_waves": {"jobs": %s, "shards": %s, "workers": %s, "wave_tasks": %s, "wall_ms": %s},\n' \
        "$(wave_val jobs)" "$(wave_val shards)" "$(wave_val workers)" \
        "$(wave_val wave_tasks)" "$(wave_val wall_ms)"
    # Streaming-sink sweep: single-cell throughput and memory ceiling of
    # the zero-alloc sink pipeline (uniform × mutex/tas-lock at n=16).
    printf '  "sink": {"scenario": "uniform", "workload": "mutex/tas-lock", "n": %s, "runs": %s, "events": %s, "runs_per_s": %s, "events_per_s": %s, "heap_mb": %s, "max_rss_mb": %s},\n' \
        "$(sink_val n)" "$(sink_val runs)" "$(sink_val events)" \
        "$(sink_val runs_per_s)" "$(sink_val events_per_s)" \
        "$(sink_val heap_mb)" "$(sink_val max_rss_mb)"
    # POR differential: states and wall-clock with the reduction on and
    # off per portfolio entry, from cfccheck -pordiff.
    awk '
    function val(key,    i) {
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) return substr($i, length(key) + 2)
        }
        return ""
    }
    BEGIN { printf "  \"por\": {\"jobs\": [\n"; first = 1 }
    /^PORDIFF / {
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"verdict\": \"%s\", \"por_states\": %s, \"ref_states\": %s, \"ratio\": %s, \"por_ms\": %s, \"ref_ms\": %s, \"reduced_nodes\": %s}", \
            val("name"), val("verdict"), val("por_states"), val("ref_states"), val("ratio"), val("por_ms"), val("ref_ms"), val("reduced_nodes")
    }
    /^PORDIFF-SUMMARY / { max = val("max_ratio") }
    END { printf "\n  ], \"max_ratio\": %s},\n", (max == "" ? "0" : max) }
    ' "$PORRAW"
    # DPOR differential: source-DPOR (+symmetry where declared) states,
    # runs and wall-clock against the same reference, from the dpor_*
    # keys of the same cfccheck -pordiff lines.
    awk '
    function val(key,    i) {
        for (i = 2; i <= NF; i++) {
            if (index($i, key "=") == 1) return substr($i, length(key) + 2)
        }
        return ""
    }
    BEGIN { printf "  \"dpor\": {\"jobs\": [\n"; first = 1 }
    /^PORDIFF / {
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"verdict\": \"%s\", \"dpor_states\": %s, \"dpor_runs\": %s, \"ref_states\": %s, \"ratio\": %s, \"dpor_ms\": %s, \"reduced_nodes\": %s, \"sym\": %s}", \
            val("name"), val("verdict"), val("dpor_states"), val("dpor_runs"), val("ref_states"), val("dpor_ratio"), val("dpor_ms"), val("dpor_reduced"), val("sym")
    }
    /^PORDIFF-SUMMARY / { max = val("max_dpor_ratio") }
    END { printf "\n  ], \"max_ratio\": %s},\n", (max == "" ? "0" : max) }
    ' "$PORRAW"
    awk '
    function jsonkey(unit) {
        gsub(/\//, "_per_", unit)
        gsub(/-/, "_", unit)
        return unit
    }
    BEGIN { printf "  \"benchmarks\": [\n"; first = 1 }
    /^Benchmark/ {
        name = $1
        sub(/^Benchmark/, "", name)
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"iterations\": %s", name, $2
        for (i = 3; i < NF; i += 2) {
            printf ", \"%s\": %s", jsonkey($(i + 1)), $i
        }
        printf "}"
    }
    END { printf "\n  ]\n}\n" }
    ' "$RAW"
} > "$OUT"

echo "wrote $OUT"

# Comparisons against the committed baseline record. Wall-clock numbers
# from different hardware are not comparable: a parallel suite timed on
# one core measures coordination overhead, not speedup, and ns/op moves
# with the core count and clock. So first check the recorded cpu count.
json_num() { # json_num file key -> first numeric value of "key"
    awk -F'[:,}]' -v key="\"$2\"" '
        $0 ~ key {
            for (i = 1; i < NF; i++) if ($i ~ key) { gsub(/[ "]/, "", $(i+1)); print $(i+1); exit }
        }' "$1"
}
extract_ns() {
    awk -F'"' '/"name":/ {
        name = $4
        sub(/-[0-9]+$/, "", name)
        # The serial explorer row compares against records from before
        # the workers dimension existed (BENCH_1.json has a plain
        # "SimExhaustiveCheck" entry).
        sub(/\/workers=1$/, "", name)
        if (match($0, /"ns_per_op": [0-9.e+]+/)) {
            v = substr($0, RSTART + 13, RLENGTH - 13)
            print name, v
        }
    }' "$1"
}
if [[ -f "$BASELINE" && "$BASELINE" != "$OUT" ]]; then
    BASE_CPUS="$(json_num "$BASELINE" cpus)"
    if [[ -n "$BASE_CPUS" && "$BASE_CPUS" != "$CPUS" ]]; then
        echo "HARDWARE MISMATCH: $BASELINE was recorded on ${BASE_CPUS} cpu(s), this host has ${CPUS};"
        echo "  suppressing the check_suite speedup comparisons and the ns/op regression diff"
        echo "  (time-based ratios across differing hardware are not meaningful; compare records from like hardware)"
    else
        # Records before BENCH_9 timed a different check_suite (the
        # TestExhaustive suite against a work-stealing explorer) and lack
        # these keys, so there is nothing like to compare with.
        for key in dpor_speedup ref_speedup; do
            BASE_SPEEDUP="$(json_num "$BASELINE" "$key")"
            if [[ -n "$BASE_SPEEDUP" ]]; then
                echo "check_suite $key: $(json_num "$OUT" "$key") (baseline ${BASE_SPEEDUP}, cpus ${CPUS})"
            fi
        done
        extract_ns "$BASELINE" > "$OLDTAB"
        extract_ns "$OUT" > "$NEWTAB"
        awk -v base="$BASELINE" '
            NR == FNR { old[$1] = $2; next }
            ($1 in old) && old[$1] > 0 && $2 > old[$1] * 1.25 {
                printf "REGRESSION WARNING: %s slowed %.0f%% vs %s (%s -> %s ns/op)\n",
                    $1, ($2 / old[$1] - 1) * 100, base, old[$1], $2
                bad = 1
            }
            END { if (!bad) printf "no benchmark regressions vs %s\n", base }
        ' "$OLDTAB" "$NEWTAB"
    fi
else
    echo "no baseline record ($BASELINE) to diff against"
fi
