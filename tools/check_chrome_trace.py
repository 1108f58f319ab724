#!/usr/bin/env python3
"""Check a Chrome trace rendered from a flight log.

usage: check_chrome_trace.py TRACE.json [--require NAME ...] [--events FILE ...]

TRACE.json comes from `whisper_sim_cli --trace=` or `whisper_trace chrome`.
- Every flow id has exactly one start ("s") and one finish ("f"): each
  arrow is one delivered wire copy.
- Every --require name occurs as an event name.
- With --events, the raw-event exports the trace was rendered from: no two
  wire copies share a (trace, attempt, hop, seq) key, on the sending side or
  on the receiving side. Copies that share a key share one arrow, so a seq
  collision between two processes' recorders fails here.

Prints one OK line, or exits non-zero with a FAIL line.
"""
import argparse
import json
import sys
from collections import Counter


def shared_wire_keys(paths):
    """Wire keys logged more than once, per event kind, over all `paths`."""
    keys = {"wire_out": Counter(), "wire_in": Counter()}
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                ev = json.loads(line)
                if ev["kind"] in keys:
                    keys[ev["kind"]][(ev["trace"], ev["attempt"], ev["hop"], ev["seq"])] += 1
    return {kind: [k for k, n in c.items() if n > 1] for kind, c in keys.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--require", nargs="*", default=[])
    ap.add_argument("--events", nargs="*", default=[])
    args = ap.parse_args()

    with open(args.trace) as f:
        events = json.load(f)["traceEvents"]
    starts = Counter(e["id"] for e in events if e["ph"] == "s")
    finishes = Counter(e["id"] for e in events if e["ph"] == "f")
    if not starts:
        sys.exit("FAIL: no flow events in the trace")
    bad = sorted(i for i in starts.keys() | finishes.keys()
                 if starts[i] != 1 or finishes[i] != 1)
    if bad:
        sys.exit(f"FAIL: {len(bad)} flow ids without exactly one s and one f: {bad[:5]}")
    names = {e["name"] for e in events}
    for want in args.require:
        if want not in names:
            sys.exit(f"FAIL: no {want} event in the trace")
    for kind, shared in shared_wire_keys(args.events).items():
        if shared:
            sys.exit(f"FAIL: {len(shared)} (trace, attempt, hop, seq) keys on more than one "
                     f"{kind} event, e.g. {shared[0]}")
    print(f"OK: {len(events)} events, {len(starts)} flows, each with one s and one f")


if __name__ == "__main__":
    main()
