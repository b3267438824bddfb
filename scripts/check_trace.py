#!/usr/bin/env python3
"""Validate a TAC3D_TRACE Chrome-trace-event JSON artifact.

Checks, in order:

1. The file parses as JSON and has the Chrome trace-event object shape:
   a top-level object with a "traceEvents" list (the format Perfetto and
   chrome://tracing load directly).
2. Every event carries the required fields (name, ph, ts, pid, tid),
   phases are only B/E, and timestamps are non-negative numbers.
3. Per-thread span discipline: within each tid, B/E events form a
   properly nested stack — every E matches the name of the most recent
   unclosed B, nothing closes an empty stack, and nothing is left open
   at the end. (The C++ side emits spans through an RAII guard, so a
   violation means the trace writer — not the instrumentation — broke.)
4. Per-thread timestamps are monotonically non-decreasing (the writer
   serializes each thread's buffer in record order off one steady
   clock).
5. All --require NAME span names appear somewhere in the trace. CI uses
   this to assert a traced mini-sweep actually exercised the sweep,
   bank, solver, and batched control-tail phases.

Usage: check_trace.py TRACE.json [--require sweep/job --require ...]
       check_trace.py --self-test
Exit status: 0 = valid, 1 = invalid trace, 2 = usage/IO error.
"""

import argparse
import json
import os
import sys
import tempfile
from collections import defaultdict


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def check(path, required):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: error reading {path}: {e}", file=sys.stderr)
        return 2

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail("top level must be an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail("traceEvents is not a list")
    if not events:
        return fail("trace contains no events")

    stacks = defaultdict(list)   # tid -> [span names]
    last_ts = {}                 # tid -> last timestamp seen
    names = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"event {i} is not an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in ev:
                return fail(f"event {i} missing required field '{field}'")
        name, ph, ts, tid = ev["name"], ev["ph"], ev["ts"], ev["tid"]
        if ph not in ("B", "E"):
            return fail(f"event {i} has phase '{ph}' (only B/E are emitted)")
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"event {i} has bad timestamp {ts!r}")
        if tid in last_ts and ts < last_ts[tid]:
            return fail(f"event {i} (tid {tid}) goes back in time: "
                        f"{ts} after {last_ts[tid]}")
        last_ts[tid] = ts
        names.add(name)
        if ph == "B":
            stacks[tid].append(name)
        else:
            if not stacks[tid]:
                return fail(f"event {i}: E '{name}' on tid {tid} "
                            f"with no open span")
            top = stacks[tid].pop()
            if top != name:
                return fail(f"event {i}: E '{name}' on tid {tid} "
                            f"closes open span '{top}' (mis-nested)")
    for tid, stack in stacks.items():
        if stack:
            return fail(f"tid {tid} ends with unclosed span(s): {stack}")

    missing = [n for n in required if n not in names]
    if missing:
        return fail(f"required span name(s) absent: {', '.join(missing)}; "
                    f"trace has: {', '.join(sorted(names))}")

    print(f"check_trace: OK — {len(events)} events, "
          f"{len(last_ts)} thread(s), {len(names)} distinct span names: "
          f"{', '.join(sorted(names))}")
    return 0


def self_test():
    """Run the checker on built-in traces: the well-formed one must pass
    and every broken one must fail. Run by CI before the real trace
    checks, so a checker that stopped catching a fault fails there."""

    def ev(name, ph, ts, tid=1):
        return {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": tid}

    good = [ev("sweep/job", "B", 0), ev("bank/prepare", "B", 1),
            ev("bank/prepare", "E", 2), ev("sweep/job", "E", 3),
            ev("sweep/job", "B", 1, tid=2), ev("sweep/job", "E", 4, tid=2)]
    no_pid = [ev("a", "B", 0), ev("a", "E", 1)]
    del no_pid[1]["pid"]
    cases = [
        # (name, file content, --require names, expected to pass)
        ("well-formed", {"traceEvents": good}, ["bank/prepare"], True),
        ("not JSON", "{ this is not json", [], False),
        ("no traceEvents", {"events": good}, [], False),
        ("missing field", {"traceEvents": no_pid}, [], False),
        ("phase other than B/E",
         {"traceEvents": [ev("a", "B", 0), ev("a", "X", 1)]}, [], False),
        ("timestamp goes back",
         {"traceEvents": [ev("a", "B", 5), ev("a", "E", 4)]}, [], False),
        ("E with no open span", {"traceEvents": [ev("a", "E", 0)]}, [],
         False),
        ("mis-nested E",
         {"traceEvents": [ev("a", "B", 0), ev("b", "B", 1), ev("a", "E", 2),
                          ev("b", "E", 3)]}, [], False),
        ("unclosed span",
         {"traceEvents": [ev("a", "B", 0), ev("b", "B", 1),
                          ev("b", "E", 2)]}, [], False),
        ("absent --require name", {"traceEvents": good}, ["solver/krylov"],
         False),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, content, required, should_pass) in enumerate(cases):
            path = os.path.join(tmp, f"case{i}.json")
            with open(path, "w") as f:
                f.write(content if isinstance(content, str)
                        else json.dumps(content))
            print(f"--- self-test: {name}")
            passed = check(path, required) == 0
            if passed != should_pass:
                failures.append(f"{name}: "
                                f"{'passed' if passed else 'failed'}, "
                                f"expected to {'pass' if should_pass else 'fail'}")
    if failures:
        print("check_trace: self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"check_trace: self-test OK ({len(cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace-event JSON file")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="span name that must appear (repeatable)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checker passes a well-formed "
                             "trace and fails each kind of broken one, "
                             "then exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("TRACE is required unless --self-test")
    return check(args.trace, args.require)


if __name__ == "__main__":
    sys.exit(main())
