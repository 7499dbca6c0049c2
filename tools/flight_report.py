#!/usr/bin/env python3
"""Offline flight-recorder journal reader (stdlib only).

Merges the per-node journals of one or more flight-recorder dumps
(`fig9_mining --kill-drive --journal j.json`, test-failure dumps) into
one causally-ordered timeline — events carry a recorder-global sequence
number, so the merge is a plain sort — and renders views of it:

  flight_report.py j.json                     # summary + phase table
  flight_report.py j.json --trace 42          # timeline window around
                                              # every event of trace 42
  flight_report.py j.json --around 152 --radius 8
  flight_report.py j.json --find-rebuild-race # find a write that raced
                                              # the rebuild engine and
                                              # reconstruct the fence ->
                                              # degraded -> rebuild ->
                                              # re-fence sequence (exit 1
                                              # if no such write exists)

The last mode is the CI check that the journal is good for something:
a kill-drive run must contain at least one foreground write whose
events interleave with the rebuild fence/lock/re-fence events.
"""

import argparse
import json
import sys


def load_events(paths):
    """Merge the events of every dump, tagged with their node name,
    ordered by the recorder-global sequence number."""
    events = []
    exemplars = {}
    for path in paths:
        with open(path) as f:
            dump = json.load(f)
        if dump.get("schema_version") != 1:
            sys.exit(f"{path}: unsupported schema_version "
                     f"{dump.get('schema_version')!r}")
        for node, journal in dump["nodes"].items():
            for ev in journal["events"]:
                ev["node"] = node
                events.append(ev)
        exemplars.update(dump.get("exemplars", {}))
    events.sort(key=lambda e: e["seq"])
    return events, exemplars


def fmt(ev):
    detail = f" {ev['detail']}" if ev.get("detail") else ""
    trace = f" trace={ev['trace']}" if ev["trace"] else ""
    return (f"  [{ev['seq']:>6}] {ev['t_ns'] / 1e6:>12.3f} ms "
            f"{ev['node']:<8} {ev['kind']:<18}{trace} "
            f"a={ev['a']} b={ev['b']}{detail}")


def print_window(events, lo, hi, highlight=frozenset()):
    for ev in events:
        if lo <= ev["seq"] <= hi:
            mark = "*" if ev["seq"] in highlight else " "
            print(mark + fmt(ev)[1:])


def summary(events, exemplars):
    by_kind = {}
    by_node = {}
    for ev in events:
        by_kind[ev["kind"]] = by_kind.get(ev["kind"], 0) + 1
        by_node[ev["node"]] = by_node.get(ev["node"], 0) + 1
    print(f"{len(events)} events across {len(by_node)} nodes")
    print("\nevents by kind:")
    for kind in sorted(by_kind):
        print(f"  {kind:<22} {by_kind[kind]:>8}")

    phases = [e for e in events if e["kind"] in ("phase_begin", "phase_end")]
    if phases:
        print("\nphases:")
        for ev in phases:
            print(fmt(ev))

    if exemplars:
        print("\ntail exemplars (worst sample per op class):")
        for op in sorted(exemplars):
            ex = exemplars[op]
            if not ex["samples"]:
                continue
            worst = max(ex["samples"], key=lambda s: s["value_ns"])
            print(f"  {op:<12} {ex['count']:>8} samples, "
                  f"max {worst['value_ns'] / 1e6:.3f} ms "
                  f"(trace {worst['trace']}, seq {worst['seq']})")


def trace_view(events, trace_id, radius):
    mine = [e for e in events if e["trace"] == trace_id]
    if not mine:
        sys.exit(f"no events for trace {trace_id}")
    lo = max(0, mine[0]["seq"] - radius)
    hi = mine[-1]["seq"] + radius
    print(f"trace {trace_id}: {len(mine)} events, "
          f"seq {mine[0]['seq']}..{mine[-1]['seq']} "
          f"(window +/-{radius}, * = this trace)")
    print_window(events, lo, hi, highlight={e["seq"] for e in mine})


def find_rebuild_race(events, radius):
    """Reconstruct one foreground write that raced the rebuild: the
    version fence, the write's own degraded/write-through events inside
    the rebuild span, and the completion re-fence."""
    def first(pred):
        return next((e for e in events if pred(e)), None)

    fence = first(lambda e: e["kind"] == "version_fence"
                  and e.get("detail") == "rebuild_fence")
    start = first(lambda e: e["kind"] == "rebuild_start")
    done = first(lambda e: e["kind"] == "rebuild_complete")
    refence = first(lambda e: e["kind"] == "version_fence"
                    and e.get("detail") == "rebuild_refence")
    aborted = first(lambda e: e["kind"] == "rebuild_abort")
    if done is None and aborted is not None:
        sys.exit(f"the rebuild aborted ({aborted.get('detail')}) after "
                 f"{aborted['b']} rows: no completed rebuild to race")
    for name, ev in (("rebuild_fence", fence), ("rebuild_start", start),
                     ("rebuild_complete", done),
                     ("rebuild_refence", refence)):
        if ev is None:
            sys.exit(f"no {name} event in the journal — "
                     "was this a --kill-drive run?")

    racing = [e for e in events
              if e["trace"] and start["seq"] < e["seq"] < done["seq"]
              and e["kind"] in ("write_through", "degraded_write")]
    if not racing:
        print("no foreground write raced the rebuild "
              f"(span seq {start['seq']}..{done['seq']})")
        return 1

    # Prefer a write that reached the rebuild target (write_through);
    # any degraded write inside the span otherwise.
    pick = next((e for e in racing if e["kind"] == "write_through"),
                racing[0])
    trace = pick["trace"]
    mine = [e for e in events if e["trace"] == trace]
    print(f"write trace {trace} raced the rebuild "
          f"({len(mine)} events, anchor seq {pick['seq']}):\n")
    for label, ev in (("fence", fence), ("rebuild start", start)):
        print(f"-- {label}")
        print(fmt(ev))
    print(f"-- the racing write (window +/-{radius}, * = trace {trace})")
    print_window(events, max(0, mine[0]["seq"] - radius),
                 mine[-1]["seq"] + radius,
                 highlight={e["seq"] for e in mine})
    for label, ev in (("rebuild complete", done), ("re-fence", refence)):
        print(f"-- {label}")
        print(fmt(ev))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("journals", nargs="+", help="flight journal dump(s)")
    ap.add_argument("--trace", type=int,
                    help="render the window around this trace id")
    ap.add_argument("--around", type=int,
                    help="render the window around this sequence number")
    ap.add_argument("--radius", type=int, default=8,
                    help="window half-width in sequence numbers")
    ap.add_argument("--find-rebuild-race", action="store_true",
                    help="find a write that raced the rebuild (exit 1 "
                         "if none)")
    args = ap.parse_args()

    events, exemplars = load_events(args.journals)
    if args.find_rebuild_race:
        sys.exit(find_rebuild_race(events, args.radius))
    if args.trace is not None:
        trace_view(events, args.trace, args.radius)
    elif args.around is not None:
        print_window(events, max(0, args.around - args.radius),
                     args.around + args.radius)
    else:
        summary(events, exemplars)


if __name__ == "__main__":
    main()
