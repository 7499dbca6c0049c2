#!/usr/bin/env python3
"""Validate a bench metrics dump (BENCH_*.json) and compare headline
throughput gauges against a checked-in baseline.

Schema (written by bench::writeBenchJson):

    {"schema_version": 1,
     "bench": "<name>",
     "reference": "<paper figure/table>",
     "metrics": {"counters": {path: int, ...},
                 "gauges": {path: float, ...},
                 "latencies": {path: {count, sum, min, max, mean,
                                      p50, p95, p99,
                                      "buckets": [[lower, n], ...]},
                               ...}},
     "timeseries": {"interval_ns": int, "start_ns": int,
                    "samples": int, "series": {name: [float, ...]}},
     "fleet_rollup": {"score_threshold": float, "min_instances": int,
                      "ops": {group: {"merged": <latency histogram>,
                                      "median_p99_ns": float,
                                      "mad_ns": float,
                                      "instances": {name: {...}},
                                      "stragglers": [name, ...]}}}}

The "timeseries" section is optional (present when the bench sampled a
sim::StatsPoller run); when present every series must carry one value
per sampling interval.

The "metrics.latencies" section (util::LogHistogram instruments) is
optional for older dumps; when present every histogram's bucket lower
bounds must be strictly increasing and the bucket counts must sum to
the histogram's count — a violation means merge() broke.

The "fleet_rollup" section (util::FleetRollup; merged per-op latency
across instrument siblings + straggler verdicts) is REQUIRED: every
writeBenchJson dump carries one. Per op group the merged histogram is
validated like a latency instrument, its count must equal the sum of
the per-instance counts (exact-merge invariant), and the "stragglers"
list must be exactly the instances flagged "straggler": true. The
optional "fleet_rollups" section (fig9_mining --drives) maps drive
count -> one rollup per sweep point, each validated the same way.

The "fleet_health" section is optional (written by fig9_mining
--kill-drive from the flight-recorder journal): {"phases": [{"name":
str, "events": {kind: count, ...}}, ...]}. A rebuild dump must carry
the four kill-drive phases in execution order (healthy, degraded,
rebuild, post_rebuild), and when the baseline carries a fleet_health
section too, the phase list must match and per-phase event counts are
gated with the same tolerance as headline gauges — the simulator is
deterministic, so a count drifting past tolerance means the
control-plane event flow changed, not noise.

Every dump must carry the ``sim/events_per_sec`` gauge (scheduler
throughput: simulated events executed per wall-clock second, written
by bench::writeBenchJson). It is the one wall-clock-derived number in
a dump, so it is validated for shape (positive, finite) but NEVER
compared against a baseline — machine speed is not a regression.
tools/check_determinism.sh normalizes it away before byte-diffing.

Baseline comparison covers every headline gauge present in the
baseline file (itself a BENCH_*.json snapshot): ``*_mbps`` throughput
points, ``*_instr`` instruction counts, and ``*_ms`` latencies. The
simulator is deterministic, so identical code produces identical
numbers; the tolerance absorbs intentional model recalibration without
letting a real regression through. When any baseline comparison
fails, a baseline / dump / delta table of every headline gauge follows
the error list, so the drift is readable in one place.

A baseline needs nothing but what this gate reads: its headline
gauges, plus the fleet_health section for a rebuild baseline.

Usage:
    tools/check_bench_json.py BENCH_fig9.json \
        [--baseline bench/baselines/fig9.json] [--tolerance 0.25]

Exit status: 0 clean, 1 schema violation or baseline mismatch.
"""

import argparse
import json
import math
import sys

HEADLINE_SUFFIXES = ("_mbps", "_instr", "_ms")
EVENTS_PER_SEC_GAUGE = "sim/events_per_sec"


def fail(errors, message):
    errors.append(message)


def check_schema(doc, errors):
    if not isinstance(doc, dict):
        fail(errors, "top level is not a JSON object")
        return
    if doc.get("schema_version") != 1:
        fail(errors, f"schema_version is {doc.get('schema_version')!r},"
                     " expected 1")
    for key in ("bench", "reference"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            fail(errors, f"'{key}' missing or not a non-empty string")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(errors, "'metrics' missing or not an object")
        return
    for section in ("counters", "gauges"):
        if not isinstance(metrics.get(section), dict):
            fail(errors, f"metrics.{section} missing or not an object")
            return
    for path, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(errors, f"counter '{path}' is not a non-negative int:"
                         f" {value!r}")
    for path, value in metrics["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(errors, f"gauge '{path}' is not a number: {value!r}")
    eps = metrics["gauges"].get(EVENTS_PER_SEC_GAUGE)
    if eps is None:
        fail(errors, f"missing gauge '{EVENTS_PER_SEC_GAUGE}'"
                     " (scheduler throughput; written by writeBenchJson)")
    elif isinstance(eps, bool) or not isinstance(eps, (int, float)) \
            or not math.isfinite(eps) or eps <= 0:
        fail(errors, f"gauge '{EVENTS_PER_SEC_GAUGE}' must be a positive"
                     f" finite number, got {eps!r}")
    for path, summary in metrics.get("latencies", {}).items():
        check_latency_histogram(summary, f"latency '{path}'", errors)
    if "timeseries" in doc:
        check_timeseries(doc["timeseries"], errors)
    if "fleet_health" in doc:
        check_fleet_health(doc, errors)
    if "fleet_rollup" not in doc:
        fail(errors, "missing 'fleet_rollup' section (every"
                     " writeBenchJson dump carries one)")
    else:
        check_fleet_rollup(doc["fleet_rollup"], "fleet_rollup", errors)
    rollups = doc.get("fleet_rollups")
    if rollups is not None:
        if not isinstance(rollups, dict):
            fail(errors, "'fleet_rollups' is not an object")
        else:
            for count, rollup in rollups.items():
                if not count.isdigit() or int(count) <= 0:
                    fail(errors, f"fleet_rollups key '{count}' is not a"
                                 " positive drive count")
                check_fleet_rollup(rollup, f"fleet_rollups[{count}]",
                                   errors)


LATENCY_KEYS = {"count", "sum", "min", "max", "mean",
                "p50", "p95", "p99", "buckets"}


def check_latency_histogram(summary, where, errors):
    """Validate one LogHistogram JSON object: required keys, strictly
    increasing bucket lower bounds, bucket counts summing to count."""
    if not isinstance(summary, dict):
        fail(errors, f"{where} is not an object")
        return
    missing = LATENCY_KEYS - summary.keys()
    if missing:
        fail(errors, f"{where} missing keys: {sorted(missing)}")
        return
    for key in ("count", "sum", "min", "max"):
        v = summary[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(errors, f"{where} '{key}' is not a non-negative int:"
                         f" {v!r}")
            return
    buckets = summary["buckets"]
    if not isinstance(buckets, list):
        fail(errors, f"{where} 'buckets' is not a list")
        return
    total = 0
    prev_lower = -1
    for i, bucket in enumerate(buckets):
        if (not isinstance(bucket, list) or len(bucket) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           and x >= 0 for x in bucket)):
            fail(errors, f"{where} buckets[{i}] is not a"
                         f" [lower, count] pair of non-negative ints:"
                         f" {bucket!r}")
            return
        lower, n = bucket
        if lower <= prev_lower:
            fail(errors, f"{where} bucket lower bounds are not strictly"
                         f" increasing at index {i}: {lower} after"
                         f" {prev_lower}")
            return
        if n == 0:
            fail(errors, f"{where} buckets[{i}] has a zero count"
                         " (empty buckets are omitted on export)")
        prev_lower = lower
        total += n
    if total != summary["count"]:
        fail(errors, f"{where} bucket counts sum to {total}, expected"
                     f" count {summary['count']}")


INSTANCE_KEYS = {"count", "p50_ns", "p99_ns", "score", "straggler"}


def check_fleet_rollup(rollup, where, errors):
    """Validate one util::FleetRollup JSON object, including the
    exact-merge invariant (merged count == sum of instance counts) and
    straggler-list consistency with the per-instance verdicts."""
    if not isinstance(rollup, dict):
        fail(errors, f"{where} is not an object")
        return
    for key in ("score_threshold", "min_instances"):
        v = rollup.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or v <= 0:
            fail(errors, f"{where} '{key}' is not a positive number:"
                         f" {v!r}")
    ops = rollup.get("ops")
    if not isinstance(ops, dict):
        fail(errors, f"{where} 'ops' missing or not an object")
        return
    for group, op in ops.items():
        opw = f"{where} op '{group}'"
        if not isinstance(op, dict):
            fail(errors, f"{opw} is not an object")
            continue
        check_latency_histogram(op.get("merged"), f"{opw} merged", errors)
        for key in ("median_p99_ns", "mad_ns"):
            v = op.get(key)
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or v < 0:
                fail(errors, f"{opw} '{key}' is not a non-negative"
                             f" number: {v!r}")
        instances = op.get("instances")
        if not isinstance(instances, dict) or not instances:
            fail(errors, f"{opw} 'instances' missing or empty")
            continue
        flagged = []
        total = 0
        for name, inst in sorted(instances.items()):
            instw = f"{opw} instance '{name}'"
            if not isinstance(inst, dict):
                fail(errors, f"{instw} is not an object")
                continue
            missing = INSTANCE_KEYS - inst.keys()
            if missing:
                fail(errors, f"{instw} missing keys: {sorted(missing)}")
                continue
            if not isinstance(inst["count"], int) or inst["count"] < 0:
                fail(errors, f"{instw} 'count' is not a non-negative"
                             f" int: {inst['count']!r}")
                continue
            if not isinstance(inst["straggler"], bool):
                fail(errors, f"{instw} 'straggler' is not a bool:"
                             f" {inst['straggler']!r}")
                continue
            total += inst["count"]
            if inst["straggler"]:
                flagged.append(name)
        merged = op.get("merged")
        if isinstance(merged, dict) \
                and isinstance(merged.get("count"), int) \
                and merged["count"] != total:
            fail(errors, f"{opw} merged count {merged['count']} !="
                         f" sum of instance counts {total}"
                         " (exact-merge invariant)")
        stragglers = op.get("stragglers")
        if not isinstance(stragglers, list):
            fail(errors, f"{opw} 'stragglers' is not a list")
        elif stragglers != flagged:
            fail(errors, f"{opw} straggler list {stragglers} does not"
                         f" match flagged instances {flagged}")


KILL_DRIVE_PHASES = ["healthy", "degraded", "rebuild", "post_rebuild"]


def fleet_phases(doc):
    """[(name, events-dict), ...] of a dump's fleet_health section."""
    return [(p.get("name"), p.get("events", {}))
            for p in doc.get("fleet_health", {}).get("phases", [])]


def check_fleet_health(doc, errors):
    fh = doc["fleet_health"]
    if not isinstance(fh, dict) or not isinstance(fh.get("phases"), list):
        fail(errors, "'fleet_health' is not {'phases': [...]}")
        return
    for i, phase in enumerate(fh["phases"]):
        if not isinstance(phase, dict) \
                or not isinstance(phase.get("name"), str):
            fail(errors, f"fleet_health.phases[{i}] missing 'name'")
            return
        events = phase.get("events")
        if not isinstance(events, dict):
            fail(errors, f"fleet_health phase '{phase['name']}'"
                         " missing 'events' object")
            continue
        for kind, count in events.items():
            if not isinstance(count, int) or count < 0 \
                    or isinstance(count, bool):
                fail(errors, f"fleet_health phase '{phase['name']}'"
                             f" event '{kind}' is not a non-negative"
                             f" int: {count!r}")
    if doc.get("bench") == "rebuild":
        names = [name for name, _ in fleet_phases(doc)]
        if names != KILL_DRIVE_PHASES:
            fail(errors, f"fleet_health phases are {names}, expected"
                         f" {KILL_DRIVE_PHASES} in execution order")


def check_fleet_baseline(doc, baseline, tolerance, errors):
    want = fleet_phases(baseline)
    if not want:
        return
    have = fleet_phases(doc)
    if [n for n, _ in have] != [n for n, _ in want]:
        fail(errors, "fleet_health phase list differs from baseline:"
                     f" {[n for n, _ in have]} vs"
                     f" {[n for n, _ in want]}")
        return
    got = dict(have)
    for name, events in want:
        for kind, expected in sorted(events.items()):
            actual = got[name].get(kind, 0)
            if expected == 0:
                if actual != 0:
                    fail(errors, f"fleet_health {name}/{kind}:"
                                 f" baseline 0, got {actual}")
                continue
            rel = abs(actual - expected) / abs(expected)
            if rel > tolerance:
                fail(errors,
                     f"fleet_health {name}/{kind}: {actual} vs baseline"
                     f" {expected} ({rel:+.1%} > ±{tolerance:.0%})")


def check_timeseries(ts, errors):
    if not isinstance(ts, dict):
        fail(errors, "'timeseries' is not an object")
        return
    interval = ts.get("interval_ns")
    if not isinstance(interval, int) or interval <= 0:
        fail(errors, f"timeseries.interval_ns is not a positive int:"
                     f" {interval!r}")
    if not isinstance(ts.get("start_ns"), int):
        fail(errors, f"timeseries.start_ns is not an int:"
                     f" {ts.get('start_ns')!r}")
    samples = ts.get("samples")
    if not isinstance(samples, int) or samples < 0:
        fail(errors, f"timeseries.samples is not a non-negative int:"
                     f" {samples!r}")
        return
    series = ts.get("series")
    if not isinstance(series, dict) or not series:
        fail(errors, "timeseries.series missing or empty")
        return
    for name, values in series.items():
        if not isinstance(values, list):
            fail(errors, f"timeseries series '{name}' is not a list")
            continue
        if len(values) != samples:
            fail(errors, f"timeseries series '{name}' has {len(values)}"
                         f" values, expected {samples}")
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(errors, f"timeseries series '{name}' holds a"
                             f" non-number: {v!r}")
                break


def headline_gauges(doc):
    return {
        path: value
        for path, value in doc.get("metrics", {}).get("gauges", {}).items()
        if path.endswith(HEADLINE_SUFFIXES)
    }


def print_headline_table(doc, baseline):
    """One baseline / dump / delta row per headline gauge of either."""
    want, got = headline_gauges(baseline), headline_gauges(doc)
    paths = sorted(set(want) | set(got))
    if not paths:
        return
    width = max(len(p) for p in paths)
    print(f"\n{'gauge':<{width}} {'baseline':>14} {'dump':>14}"
          f" {'delta':>9}")
    for path in paths:
        base, now = want.get(path), got.get(path)
        cells = " ".join(f"{v:>14.3f}" if v is not None else f"{'-':>14}"
                         for v in (base, now))
        if base is None or now is None:
            delta = "new" if base is None else "gone"
        elif base == 0:
            delta = "+0.0%" if now == 0 else "0-base"
        else:
            delta = f"{(now - base) / abs(base) * 100.0:+.1f}%"
        print(f"{path:<{width}} {cells} {delta:>9}")


def check_baseline(doc, baseline, tolerance, errors):
    gauges = doc.get("metrics", {}).get("gauges", {})
    expected = headline_gauges(baseline)
    if not expected:
        fail(errors, "baseline has no headline gauges to compare"
                     f" (suffixes: {', '.join(HEADLINE_SUFFIXES)})")
        return
    for path, want in sorted(expected.items()):
        if path not in gauges:
            fail(errors, f"missing headline gauge '{path}'")
            continue
        got = gauges[path]
        if want == 0:
            if got != 0:
                fail(errors, f"'{path}': baseline 0, got {got}")
            continue
        rel = abs(got - want) / abs(want)
        if rel > tolerance:
            fail(errors,
                 f"'{path}': {got:.2f} vs baseline {want:.2f}"
                 f" ({rel:+.1%} > ±{tolerance:.0%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dump", help="BENCH_*.json produced by a bench run")
    parser.add_argument("--baseline",
                        help="checked-in BENCH_*.json to compare against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max relative headline deviation"
                             " (default 0.25)")
    args = parser.parse_args()

    errors = []
    try:
        with open(args.dump) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.dump}: {e}")
        return 1

    check_schema(doc, errors)
    baseline = None
    if args.baseline and not errors:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{args.baseline}: {e}")
            return 1
        check_baseline(doc, baseline, args.tolerance, errors)
        if "fleet_health" in doc and "fleet_health" in baseline:
            check_fleet_baseline(doc, baseline, args.tolerance, errors)

    for e in errors:
        print(f"{args.dump}: {e}")
    if errors:
        if baseline is not None:
            print_headline_table(doc, baseline)
        print(f"\n{len(errors)} problem(s)")
        return 1
    if args.baseline:
        print(f"{args.dump}: schema valid vs {args.baseline},"
              " headline gauges within tolerance")
    else:
        print(f"{args.dump}: schema valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
