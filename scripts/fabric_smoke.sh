#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end equality gate for the distributed check
# fabric over real loopback TCP: a coordinator plus two worker processes
# must produce byte-identical portfolio output to a single-process run.
#
# Three passes:
#   1. whole jobs          — the default n=2 portfolio (DPOR engines and
#      all), fanned out one portfolio entry per job;
#   2. whole jobs, sharded — the reference portfolio (-dpor=false) with
#      -shards 2: only DPOR jobs split, so every reference job still
#      travels whole;
#   3. wave sharding       — the full portfolio with -shards 2, putting
#      the DPOR entries on the distributed wave path (pure expansion at
#      the workers, serial commit at the coordinator).
#
# In every pass the comparison strips only the FABRIC-SUMMARY line (it
# carries wall-clock and worker counts that have no single-process
# analogue); every verdict row, state/run count and witness schedule must
# match exactly. Any diff fails the script.
#
# Each worker's stderr goes to its own file and each worker is waited
# for on its own. A worker that logged "fabric: joined" and then exited
# non-zero fails the script. A worker that never joined (a short pass
# can end before it dials) is reported, not failed; the OK line prints
# the workers= count from FABRIC-SUMMARY, so a pass that ran on one
# worker says so.
#
# Usage: scripts/fabric_smoke.sh [port]     # default 34517
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-34517}"
ADDR="127.0.0.1:${PORT}"
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$BIN/cfccheck" ./cmd/cfccheck

run_pass() { # run_pass <label> <extra flags...>
    local label="$1"; shift
    echo "== fabric smoke: $label =="

    "$BIN/cfccheck" -n 2 "$@" > "$BIN/single.txt"

    "$BIN/cfccheck" -n 2 "$@" -serve "$ADDR" > "$BIN/fabric.txt" &
    local coord=$!
    # Workers retry the dial for 5s, so racing the coordinator's bind is
    # fine; they exit cleanly when the coordinator says bye.
    local pids=() i status
    for i in 1 2; do
        "$BIN/cfccheck" -join "$ADDR" 2> "$BIN/worker$i.err" &
        pids+=($!)
    done
    wait "$coord"
    for i in 1 2; do
        status=0
        wait "${pids[i-1]}" || status=$?
        if grep -q 'fabric: joined' "$BIN/worker$i.err"; then
            if (( status != 0 )); then
                echo "FAIL: $label: worker $i joined, then exited with status $status:" >&2
                cat "$BIN/worker$i.err" >&2
                exit 1
            fi
        else
            echo "note: $label: worker $i never joined (exit status $status): $(tail -n 1 "$BIN/worker$i.err")"
        fi
    done

    local workers
    workers="$(grep -o 'workers=[0-9]*' "$BIN/fabric.txt" | cut -d= -f2)"
    if ! diff <(grep -v '^FABRIC-SUMMARY' "$BIN/fabric.txt") "$BIN/single.txt"; then
        echo "FAIL: $label: fabric output (workers=$workers) differs from single-process run" >&2
        exit 1
    fi
    grep '^FABRIC-SUMMARY' "$BIN/fabric.txt"
    echo "OK: $label output identical to single-process run (workers=$workers)"
}

# Pass 1: whole portfolio entries as jobs (includes the DPOR engines).
run_pass "whole jobs"

# Pass 2: sharding on, but no DPOR job to split: the -dpor=false
# portfolio, every job a reference exploration, travels whole under
# -shards 2.
run_pass "whole jobs under -shards 2 (-dpor=false)" -dpor=false -shards 2

# Pass 3: wave sharding. The full portfolio (DPOR engines included) with
# -shards 2 routes DPOR jobs through the distributed wave engine; the
# byte-diff above proves the BSP split is invisible in the output, and a
# sanity grep asserts wave tasks actually crossed the wire.
run_pass "wave sharding (-shards 2, DPOR included)" -shards 2
WAVES="$(grep -o 'wave_tasks=[0-9]*' "$BIN/fabric.txt" | cut -d= -f2)"
if [[ -z "$WAVES" || "$WAVES" -eq 0 ]]; then
    echo "FAIL: wave pass reported wave_tasks=$WAVES — DPOR wave distribution never engaged" >&2
    exit 1
fi
echo "fabric smoke passed (wave pass: $WAVES wave tasks)"
