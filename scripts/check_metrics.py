#!/usr/bin/env python3
"""Validate scrapes from si_serve's live admin endpoint (DESIGN.md §13).

Hand-rolled validation (no third-party dependency), covering both routes:

  check_metrics.py --metrics metrics.txt --series series.json
  check_metrics.py --series series.json --reconcile

--metrics lints the Prometheus text exposition (version 0.0.4 subset the
renderer emits): every sample line parses, every family has # HELP and
# TYPE before its first sample, TYPE is counter/gauge/summary, no family is
declared twice, summaries carry quantile/_sum/_count lines, and the
si_tx_aborts_total family covers the full abort taxonomy, and a scrape with
the reactor families carries si_reactor_inline_reads_total and
si_reactor_inline_updates_total too.

--series checks the si-series-v1 JSON: required top-level keys, per-epoch
records with strictly increasing seq and non-negative dt_s, per-epoch abort
maps, and the reconciliation inequality

    series_totals.completed <= counters.completed

(sum of per-epoch completed deltas can lag the cumulative counter mid-run
but never exceed it). With --reconcile (a post-drain scrape) the two must
be exactly equal — the zero-drift acceptance check.

Exits 0 when every check passes, 1 with a message per violation otherwise.
"""
import argparse
import json
import re
import sys
from pathlib import Path

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-][0-9]+)?)$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')

TAXONOMY_CAUSES = {
    "capacity_abort",
    "conflict_abort",
    "straggler_kill",
    "sgl_kill",
    "explicit_abort",
    "sgl_fallback",
    "shared_ro_admit",
    "retry_clamp",
    "hw_kill_initiated",
}

SERIES_REQUIRED = ["schema", "backend", "shards", "uptime_s", "counters",
                   "series_totals", "epochs"]
COUNTER_KEYS = ["accepted", "completed", "failed", "rejected_busy",
                "rejected_full", "rejected_stopped"]
EPOCH_KEYS = ["seq", "t_s", "dt_s", "completed", "accepted", "rejected",
              "failed", "goodput", "req_p50_ns", "req_p99_ns", "req_p999_ns",
              "queue_depth_p99", "commits", "aborts", "watermark",
              "log_appends", "log_bytes", "log_fsyncs", "durable_lsn"]

# Families that must appear together whenever the reactor pool is scraped.
REACTOR_FAMILIES = [
    "si_reactor_conns_accepted_total",
    "si_reactor_flushes_total",
    "si_reactor_bytes_out_total",
    "si_reactor_parse_errors_total",
    "si_reactor_inline_reads_total",
    "si_reactor_inline_updates_total",
]

# Families that must appear when the server runs with -durability on
# (--require-durability, used by the crash-recovery smoke lane).
DURABILITY_FAMILIES = [
    "si_log_appends_total",
    "si_log_bytes_total",
    "si_log_flushes_total",
    "si_log_fsyncs_total",
    "si_log_io_errors_total",
    "si_log_durable_lsn",
    "si_log_acks_held",
    "si_durable_ack_latency_ns",
]


def base_family(name):
    """Summary sample lines share the family name of their TYPE line."""
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_metrics(text, require_durability=False):
    errors = []
    helped, typed = {}, {}
    samples = {}  # family -> list of (labels, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                errors.append(f"line {lineno}: HELP without text: {line!r}")
                continue
            name = parts[2]
            if name in helped:
                errors.append(f"line {lineno}: duplicate HELP for {name}")
            helped[name] = lineno
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "summary"):
                errors.append(f"line {lineno}: bad TYPE line: {line!r}")
                continue
            name = parts[2]
            if name in typed:
                errors.append(f"line {lineno}: duplicate TYPE for {name}")
            typed[name] = (lineno, parts[3])
            if name not in helped:
                errors.append(f"line {lineno}: TYPE for {name} without HELP")
        elif line.startswith("#"):
            errors.append(f"line {lineno}: unknown comment: {line!r}")
        else:
            m = SAMPLE_RE.match(line)
            if not m:
                errors.append(f"line {lineno}: unparseable sample: {line!r}")
                continue
            family = base_family(m.group("name"))
            if family not in typed:
                errors.append(
                    f"line {lineno}: sample for {family} before its TYPE")
            labels = m.group("labels")
            if labels is not None:
                for pair in labels.split(","):
                    if not LABEL_RE.match(pair):
                        errors.append(
                            f"line {lineno}: bad label pair {pair!r}")
            samples.setdefault(family, []).append(
                (m.group("name"), labels, m.group("value")))

    for family, (lineno, kind) in typed.items():
        fam_samples = samples.get(family, [])
        if not fam_samples:
            errors.append(f"family {family} declared (line {lineno}) "
                          "but has no samples")
            continue
        if kind == "counter":
            if not family.endswith("_total"):
                errors.append(f"counter {family} should end in _total")
            for _, _, value in fam_samples:
                if float(value) < 0:
                    errors.append(f"counter {family} has negative sample")
        if kind == "summary":
            quantiles = [lbl for _, lbl, _ in fam_samples
                         if lbl and "quantile=" in lbl]
            if not quantiles:
                errors.append(f"summary {family} has no quantile samples")
            names = {name for name, _, _ in fam_samples}
            if f"{family}_sum" not in names or f"{family}_count" not in names:
                errors.append(f"summary {family} missing _sum/_count")

    # Exact duplicate series (same sample name + same label set) forbidden.
    for family, fam_samples in samples.items():
        seen = set()
        for name, labels, _ in fam_samples:
            if (name, labels) in seen:
                errors.append(f"duplicate series {name}{{{labels}}}")
            seen.add((name, labels))

    abort_family = samples.get("si_tx_aborts_total", [])
    causes = set()
    for _, labels, _ in abort_family:
        m = re.search(r'cause="([^"]*)"', labels or "")
        if m:
            causes.add(m.group(1))
    if causes != TAXONOMY_CAUSES:
        errors.append(
            "si_tx_aborts_total causes mismatch: "
            f"missing={sorted(TAXONOMY_CAUSES - causes)} "
            f"unexpected={sorted(causes - TAXONOMY_CAUSES)}")

    for required in ("si_requests_completed_total", "si_requests_accepted_total",
                     "si_request_latency_ns", "si_uptime_seconds"):
        if required not in typed:
            errors.append(f"required family absent: {required}")
    if any(f in typed for f in REACTOR_FAMILIES):
        for required in REACTOR_FAMILIES:
            if required not in typed:
                errors.append(f"reactor family absent: {required}")
    if require_durability:
        for required in DURABILITY_FAMILIES:
            if required not in typed:
                errors.append(f"durability family absent: {required}")
    return errors


def check_series(doc, reconcile):
    errors = []
    for key in SERIES_REQUIRED:
        if key not in doc:
            errors.append(f"series: top-level key missing: {key}")
    if doc.get("schema") != "si-series-v1":
        errors.append(f"series: bad schema tag: {doc.get('schema')!r}")
        return errors

    counters = doc.get("counters", {})
    for key in COUNTER_KEYS:
        if not isinstance(counters.get(key), (int, float)):
            errors.append(f"series: counters.{key} missing or non-numeric")

    totals = doc.get("series_totals", {})
    for key in ("epochs", "completed"):
        if not isinstance(totals.get(key), (int, float)):
            errors.append(f"series: series_totals.{key} missing")

    epochs = doc.get("epochs", [])
    if not isinstance(epochs, list):
        errors.append("series: epochs is not an array")
        return errors
    prev_seq = None
    ring_completed = 0
    for i, epoch in enumerate(epochs):
        for key in EPOCH_KEYS:
            if key not in epoch:
                errors.append(f"series: epoch[{i}] missing key {key}")
        seq = epoch.get("seq")
        if prev_seq is not None and isinstance(seq, (int, float)):
            if seq <= prev_seq:
                errors.append(
                    f"series: epoch[{i}] seq {seq} not increasing")
        if isinstance(seq, (int, float)):
            prev_seq = seq
        if epoch.get("dt_s", 0) < 0:
            errors.append(f"series: epoch[{i}] negative dt_s")
        aborts = epoch.get("aborts")
        if not isinstance(aborts, dict):
            errors.append(f"series: epoch[{i}] aborts is not an object")
        elif set(aborts) != TAXONOMY_CAUSES:
            errors.append(f"series: epoch[{i}] aborts keys mismatch")
        ring_completed += int(epoch.get("completed", 0))

    total = int(totals.get("completed", 0))
    cumulative = int(counters.get("completed", 0))
    if ring_completed > total:
        errors.append(
            f"series: ring completed {ring_completed} exceeds "
            f"series_totals.completed {total}")
    if total > cumulative:
        errors.append(
            f"series: series_totals.completed {total} exceeds "
            f"counters.completed {cumulative}")
    if reconcile and total != cumulative:
        errors.append(
            f"series: post-drain drift: series_totals.completed {total} "
            f"!= counters.completed {cumulative}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", type=Path,
                    help="Prometheus text scrape of /metrics")
    ap.add_argument("--series", type=Path, help="JSON scrape of /series")
    ap.add_argument("--reconcile", action="store_true",
                    help="post-drain scrape: require exact zero-drift "
                         "reconciliation between the series totals and the "
                         "cumulative counters")
    ap.add_argument("--require-durability", action="store_true",
                    help="the scrape came from a -durability run: require "
                         "the si_log_* families in --metrics")
    args = ap.parse_args()
    if not args.metrics and not args.series:
        ap.error("nothing to check: pass --metrics and/or --series")

    errors = []
    if args.metrics:
        errors += check_metrics(args.metrics.read_text(),
                                args.require_durability)
    if args.series:
        try:
            doc = json.loads(args.series.read_text())
        except json.JSONDecodeError as e:
            errors.append(f"series: not valid JSON: {e}")
        else:
            errors += check_series(doc, args.reconcile)

    if errors:
        for err in errors:
            print(f"check_metrics: {err}", file=sys.stderr)
        return 1
    checked = " and ".join(
        p.name for p in (args.metrics, args.series) if p is not None)
    print(f"check_metrics: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
