#!/usr/bin/env python3
"""Check a sampled metrics timeline of health-record lines.

usage: check_fleet_timeline.py FILE [--nodes N] [--fleet-lines N]
                               [--min KEY=VALUE ...] [--positive-per-node KEY ...]

FILE is a whisper_localnet fleet.jsonl, or a whisper_sim_cli --metrics file
written with --sample-secs (its registry lines, which carry "name", are
skipped). Each timeline line is one telemetry::health_to_json record:
{"node":LABEL,"ts_us":..,"pid":..,"inc":..,"seq":..,"uptime_us":..,
"metrics":{KEY:NUMBER-or-null,...}}, a node id as LABEL or "fleet" for a sum.
- Every timeline line carries those fields, and every metric is a number
  or null.
- The "fleet" lines exist, and their seq rises and their ts_us never falls.
- --nodes N: exactly N distinct node labels besides "fleet".
- --fleet-lines N: exactly N "fleet" lines.
- --min KEY=VALUE: the last fleet line's KEY is at least VALUE.
- --positive-per-node KEY: every node's last line has KEY > 0.

Prints one OK line, or exits non-zero with a FAIL line.
"""
import argparse
import json
import sys

HEADER = ("node", "ts_us", "pid", "inc", "seq", "uptime_us", "metrics")


def fail(msg):
    sys.exit(f"FAIL: {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file")
    ap.add_argument("--nodes", type=int)
    ap.add_argument("--fleet-lines", type=int)
    ap.add_argument("--min", nargs="*", default=[], metavar="KEY=VALUE")
    ap.add_argument("--positive-per-node", nargs="*", default=[], metavar="KEY")
    args = ap.parse_args()

    lines = []
    with open(args.file) as f:
        for n, text in enumerate(f, 1):
            if not text.strip():
                continue
            line = json.loads(text)
            if "name" in line:
                continue  # a registry line of a --metrics export
            missing = [k for k in HEADER if k not in line]
            if missing:
                fail(f"line {n} lacks {missing}")
            bad = [k for k, v in line["metrics"].items()
                   if v is not None and not isinstance(v, (int, float))]
            if bad:
                fail(f"line {n}: non-numeric metrics {bad[:5]}")
            lines.append(line)

    fleet = [l for l in lines if l["node"] == "fleet"]
    last = {l["node"]: l for l in lines if l["node"] != "fleet"}
    if not fleet:
        fail("no fleet lines")
    for a, b in zip(fleet, fleet[1:]):
        if b["seq"] <= a["seq"] or b["ts_us"] < a["ts_us"]:
            fail(f"fleet line seq {b['seq']} at {b['ts_us']} us follows "
                 f"seq {a['seq']} at {a['ts_us']} us")
    if args.nodes is not None and len(last) != args.nodes:
        fail(f"expected {args.nodes} nodes, got {sorted(last)}")
    if args.fleet_lines is not None and len(fleet) != args.fleet_lines:
        fail(f"expected {args.fleet_lines} fleet lines, got {len(fleet)}")
    for spec in args.min:
        key, _, want = spec.partition("=")
        got = fleet[-1]["metrics"].get(key) or 0
        if got < float(want):
            fail(f"last fleet line {key} {got} < {want}")
    for key in args.positive_per_node:
        low = [node for node, l in last.items() if not (l["metrics"].get(key) or 0) > 0]
        if low:
            fail(f"nodes without {key} > 0 on their last line: {low}")
    print(f"OK: {len(lines)} timeline lines, {len(last)} nodes, {len(fleet)} fleet lines, "
          f"last at {fleet[-1]['ts_us']} us")


if __name__ == "__main__":
    main()
