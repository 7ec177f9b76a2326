#!/usr/bin/env python3
"""Validate a Chrome trace emitted by si_trace against trace_schema.json.

Hand-rolled validation (no third-party jsonschema dependency): checks the
document shape, that every event carries the required keys, that names and
phases come from the schema's taxonomy, that B/E spans balance per thread
with proper nesting (safety-wait strictly inside tx), and that timestamps
are non-decreasing per thread.

    check_trace.py trace.json --schema scripts/trace_schema.json \
        --require-kinds begin,commit,safety-wait-enter \
        --require-wait-spans
    si_trace -out - | check_trace.py - --schema scripts/trace_schema.json

--require-kinds asserts the listed lifecycle kinds occur at least once,
using the mapping begin/commit/abort -> tx span open/close outcomes,
safety-wait-enter/exit -> safety-wait span open/close, everything else ->
the instant of the same name. --require-wait-spans asserts every committed
hw-path (ROT) transaction span contains a safety-wait span, which is the
paper's Algorithm 1 invariant for update transactions.

Exits 0 when the trace conforms, 1 with a message per violation otherwise.
"""
import argparse
import json
import sys
from pathlib import Path

# Lifecycle kind -> how it is observable in the Chrome trace.
SPAN_KINDS = {
    "begin": ("tx", "B", None),
    "commit": ("tx", "E", "commit"),
    "abort": ("tx", "E", "abort"),
    "safety-wait-enter": ("safety-wait", "B", None),
    "safety-wait-exit": ("safety-wait", "E", None),
}


def fail(errors, msg):
    errors.append(msg)


def validate(doc, schema, require_kinds, require_wait_spans):
    errors = []
    for key in schema["top_level_required"]:
        if key not in doc:
            fail(errors, f"top-level key missing: {key}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, "traceEvents is not an array")
        return errors
    if not events:
        fail(errors, "traceEvents is empty")

    span_names = set(schema["span_names"])
    instant_names = set(schema["instant_names"])
    meta_names = set(schema["meta_names"])
    phases = set(schema["phases"])
    paths = set(schema["tx_paths"])
    outcomes = set(schema["tx_outcomes"])
    causes = set(schema["abort_causes"])

    seen_kinds = set()
    stacks = {}   # tid -> [(name, args)]
    last_ts = {}  # tid -> ts
    committed_hw_tx = 0
    committed_hw_tx_with_wait = 0

    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            fail(errors, f"{where}: not an object")
            continue
        for key in schema["event_required_keys"]:
            if key not in ev:
                fail(errors, f"{where}: missing key {key!r}")
        name, ph, tid = ev.get("name"), ev.get("ph"), ev.get("tid")
        if ph not in phases:
            fail(errors, f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            if name not in meta_names:
                fail(errors, f"{where}: unknown metadata event {name!r}")
            continue

        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail(errors, f"{where}: non-numeric ts {ts!r}")
            continue
        if ts < last_ts.get(tid, float("-inf")):
            fail(errors, f"{where}: ts goes backwards on tid {tid}")
        last_ts[tid] = ts
        stack = stacks.setdefault(tid, [])

        if ph == "i":
            if name not in instant_names:
                fail(errors, f"{where}: unknown instant {name!r}")
            else:
                seen_kinds.add(name)
            if ev.get("s") != "t":
                fail(errors, f"{where}: instant not thread-scoped (s != 't')")
            continue

        if name not in span_names:
            fail(errors, f"{where}: unknown span {name!r}")
            continue

        if ph == "B":
            args = ev.get("args", {})
            if name == "tx":
                if stack:
                    fail(errors, f"{where}: tx opens inside {stack[-1][0]!r} "
                                 f"on tid {tid}")
                for key in schema["tx_begin_args_required"]:
                    if key not in args:
                        fail(errors, f"{where}: tx B missing args.{key}")
                if args.get("path") not in paths:
                    fail(errors, f"{where}: unknown tx path {args.get('path')!r}")
                seen_kinds.add("begin")
            else:  # safety-wait
                if not stack or stack[-1][0] != "tx":
                    fail(errors, f"{where}: safety-wait outside a tx on "
                                 f"tid {tid}")
                for key in schema["wait_begin_args_required"]:
                    if key not in args:
                        fail(errors, f"{where}: wait B missing args.{key}")
                seen_kinds.add("safety-wait-enter")
            stack.append((name, ev.get("args", {})))
        else:  # "E"
            if not stack or stack[-1][0] != name:
                open_name = stack[-1][0] if stack else "nothing"
                fail(errors, f"{where}: {name!r} E closes {open_name!r} on "
                             f"tid {tid}")
                continue
            _, open_args = stack.pop()
            if name == "tx":
                args = ev.get("args", {})
                for key in schema["tx_end_args_required"]:
                    if key not in args:
                        fail(errors, f"{where}: tx E missing args.{key}")
                outcome = args.get("outcome")
                if outcome not in outcomes:
                    fail(errors, f"{where}: unknown outcome {outcome!r}")
                if outcome == "abort":
                    seen_kinds.add("abort")
                    if args.get("cause") not in causes:
                        fail(errors,
                             f"{where}: unknown abort cause {args.get('cause')!r}")
                elif outcome == "commit":
                    seen_kinds.add("commit")
                    if open_args.get("path") == "hw":
                        committed_hw_tx += 1
                        if open_args.pop("_had_wait", False):
                            committed_hw_tx_with_wait += 1
            else:
                seen_kinds.add("safety-wait-exit")
                if stack and stack[-1][0] == "tx":
                    stack[-1][1]["_had_wait"] = True

    for tid, stack in stacks.items():
        if stack:
            fail(errors, f"tid {tid}: {len(stack)} span(s) left open "
                         f"({', '.join(n for n, _ in stack)})")

    for kind in require_kinds:
        if kind in SPAN_KINDS:
            if kind not in seen_kinds:
                fail(errors, f"required kind never occurs: {kind}")
        elif kind in instant_names:
            if kind not in seen_kinds:
                fail(errors, f"required kind never occurs: {kind}")
        else:
            fail(errors, f"--require-kinds: unknown kind {kind!r}")

    if require_wait_spans:
        if committed_hw_tx == 0:
            fail(errors, "--require-wait-spans: no committed hw-path tx at all")
        elif committed_hw_tx_with_wait < committed_hw_tx:
            fail(errors,
                 f"--require-wait-spans: only {committed_hw_tx_with_wait} of "
                 f"{committed_hw_tx} committed hw-path tx have a safety-wait "
                 f"span")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", type=Path, help="trace file, or - for stdin")
    ap.add_argument("--schema", type=Path,
                    default=Path(__file__).with_name("trace_schema.json"))
    ap.add_argument("--require-kinds", default="",
                    help="comma-separated lifecycle kinds that must occur")
    ap.add_argument("--require-wait-spans", action="store_true",
                    help="every committed hw-path tx must contain a "
                         "safety-wait span")
    args = ap.parse_args()

    try:
        text = (sys.stdin.read() if str(args.trace) == "-"
                else args.trace.read_text())
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.trace}: {e}", file=sys.stderr)
        return 1
    schema = json.loads(args.schema.read_text())
    kinds = [k for k in args.require_kinds.split(",") if k]

    errors = validate(doc, schema, kinds, args.require_wait_spans)
    for msg in errors:
        print(f"{args.trace}: {msg}", file=sys.stderr)
    if not errors:
        n = len(doc["traceEvents"])
        print(f"{args.trace}: OK ({n} events)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
