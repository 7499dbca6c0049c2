#!/usr/bin/env bash
# Bit-determinism gate: run fig6, fig9 (the table, --fault-sweep,
# --breakdown, --drives 64, --drives 8 --slow-drive 3,3.0 and
# --kill-drive), active_disks, andrew, table1 and fig7 twice each and
# require the two BENCH_*.json dumps (metrics + timeseries) and printed
# outputs to be byte-identical. table1 and fig7 exercise the drive's
# per-op costs directly.
# Every bench baseline and seeded-fault test silently assumes the
# simulator replays the same event sequence for the same inputs; this
# is the check that notices when someone breaks that — e.g. by keying
# a container on pointers or reading a wall clock.
#
# The one sanctioned wall-clock quantity, the sim/events_per_sec gauge
# (scheduler throughput, see bench_util.h), is normalized out of the
# JSON before comparison; it is never printed to stdout.
#
# Runs marked "journal" (fig9_mining --kill-drive, --breakdown) also
# dump their flight-recorder journal on each pass, and the two journals
# must be byte-identical — the journal's whole contract is sim-time
# stamps and counter-derived sequence numbers, nothing wall-clock.
#
# With a second build dir, pass 1 runs that build's binaries (say, the
# parent commit's) and pass 2 this one's, so the same comparison shows
# a change is byte-identical to its parent.
#
# Usage: tools/check_determinism.sh [build-dir [parent-build-dir]]
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
PARENT_DIR="${2:-}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
STATUS=0

# same NAME WHAT FILE1 FILE2: require FILE1 and FILE2 to be identical.
same() {
    if ! cmp -s "$3" "$4"; then
        echo "$1: $2 differ between the two passes:"
        diff "$3" "$4" | head -20
        return 1
    fi
}

run_twice() {
    local name="$1" journal="$2" bench="$3"
    shift 3
    local rc=0
    for pass in 1 2; do
        local bin="$BUILD_DIR/bench/$bench"
        if [ "$pass" = 1 ] && [ -n "$PARENT_DIR" ]; then
            bin="$PARENT_DIR/bench/$bench"
        fi
        if [ ! -x "$bin" ]; then
            echo "missing bench binary $bin; build first"
            return 1
        fi
        local journal_args=()
        if [ "$journal" = "journal" ]; then
            journal_args=(--journal "$WORK/${name}_$pass.flight.json")
        fi
        if ! "$bin" "$@" --json "$WORK/${name}_$pass.json" \
                "${journal_args[@]}" \
                > "$WORK/${name}_$pass.txt" 2>&1; then
            echo "$name: pass $pass exited non-zero"
            tail -5 "$WORK/${name}_$pass.txt"
            return 1
        fi
        # The dump paths appear in the printed output; normalize them
        # so only real divergence fails the stdout comparison.
        sed -i "s|$WORK/${name}_$pass.flight.json|JOURNAL|g" \
            "$WORK/${name}_$pass.txt"
        sed -i "s|$WORK/${name}_$pass.json|DUMP|g" "$WORK/${name}_$pass.txt"
        # Scheduler wall-clock throughput legitimately differs between
        # runs; everything else in the dump must not. Normalize to 0
        # (not a placeholder token) so the dump stays valid JSON for
        # the dashboard render below.
        if [ -f "$WORK/${name}_$pass.json" ]; then
            sed -i 's|"sim/events_per_sec": [^,}]*|"sim/events_per_sec": 0|' \
                "$WORK/${name}_$pass.json"
        fi
    done
    same "$name" "BENCH json dumps" "$WORK/${name}_1.json" \
        "$WORK/${name}_2.json" || rc=1
    if [ "$journal" = "journal" ]; then
        same "$name" "flight journals" "$WORK/${name}_1.flight.json" \
            "$WORK/${name}_2.flight.json" || rc=1
    fi
    same "$name" "printed outputs" "$WORK/${name}_1.txt" \
        "$WORK/${name}_2.txt" || rc=1
    if [ $rc -eq 0 ] && [ -n "$PARENT_DIR" ]; then
        echo "$name: identical to the parent build (json + stdout)"
    elif [ $rc -eq 0 ]; then
        echo "$name: deterministic (json + stdout identical)"
    fi
    return $rc
}

run_twice fig6 nojournal fig6_bandwidth || STATUS=1
run_twice fig9 nojournal fig9_mining || STATUS=1
run_twice fig9_faults nojournal fig9_mining --fault-sweep || STATUS=1
run_twice fig9_breakdown journal fig9_mining --breakdown || STATUS=1
run_twice fig9_scale64 nojournal fig9_mining --drives 64 || STATUS=1
run_twice fig9_slow8 nojournal fig9_mining --drives 8 --slow-drive 3,3.0 \
    || STATUS=1
run_twice rebuild journal fig9_mining --kill-drive || STATUS=1
run_twice active_disks nojournal active_disks || STATUS=1
run_twice andrew nojournal andrew_benchmark || STATUS=1
run_twice table1 nojournal table1_op_costs || STATUS=1
run_twice fig7 nojournal fig7_cache_scaling || STATUS=1

# The fleet dashboard must be a pure function of its input dump: two
# renders of the same BENCH json must produce byte-identical HTML, or
# the CI artifact stops being diffable across runs.
if [ -f "$WORK/fig9_scale64_1.json" ]; then
    for pass in 1 2; do
        if ! python3 "$ROOT/tools/fleet_dashboard.py" \
                "$WORK/fig9_scale64_1.json" \
                --out "$WORK/dashboard_$pass.html" >/dev/null; then
            echo "dashboard: render pass $pass failed"
            STATUS=1
        fi
    done
    if ! cmp -s "$WORK/dashboard_1.html" "$WORK/dashboard_2.html"; then
        echo "dashboard: HTML differs between identical renders"
        STATUS=1
    else
        echo "dashboard: deterministic (double render byte-identical)"
    fi
fi

exit $STATUS
