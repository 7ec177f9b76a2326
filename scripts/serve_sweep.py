#!/usr/bin/env python3
"""Saturation sweep over the serving front end (DESIGN.md section 12).

For each reactor count the script starts one si_serve, drives it with
closed-loop si_loadgen points at increasing connection counts, and merges
the per-point client-side records (goodput + request-latency percentiles,
including p999) into a single si-bench-v1 document — the format of the
committed BENCH_serve.json baseline that CI diffs with
`bench_to_csv.py --compare --max-regression`.

Systems swept by default (both over the pipelined binary protocol):
    serve-bin-r1    the epoll reactor front end, one reactor
    serve-bin-r4    four reactors

Points are named c{conns}-d{depth} (connection count x pipeline depth);
the record's `threads` field carries the connection count so --compare
keys stay unique.

Two optional axes (DESIGN.md §14):

  --durability off,fsync   re-runs every system under each -durability
                    mode (a fresh log dir per point). Non-off systems are
                    suffixed `-fsync` etc., so the committed baseline's
                    keys stay untouched and the durability cost reads off
                    as column-vs-column at the same point.
  --rates 20000,50000      an open-loop arrival-rate sweep (system
                    serve-bin-open: Poisson arrivals via si_loadgen -mode
                    open against one reactor): fixed --open-conns
                    connections, points named r{rate}. This is the axis
                    that shows where ack-gating moves the saturation knee,
                    since offered load does not adapt to service capacity.

Usage:
    python3 scripts/serve_sweep.py --out BENCH_serve.json
    python3 scripts/serve_sweep.py --out smoke.json --quick
    python3 scripts/serve_sweep.py --out full.json --conns 8,64,512
    python3 scripts/serve_sweep.py --out dur.json \
        --durability off,buffered,fsync --rates 10000,30000,60000

The server is restarted for every point so no point inherits another's
admission-control state. Each run's exit code is checked: a loadgen
exit of 1 (lost / misrouted / failed responses) aborts the sweep.
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def start_server(args, reactors, durability="off", log_dir=None):
    cmd = [
        args.serve,
        "-backend", args.backend,
        "-workload", "hashmap",
        "-shards", str(args.shards),
        "-port", "0",
        "-reactors", str(reactors),
        "-buckets", str(args.buckets),
        "-elements", str(args.elements),
    ]
    if durability != "off":
        cmd += ["-durability", durability, "-log-dir", log_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 10
    port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        m = LISTEN_RE.search(line)
        if m:
            port = int(m.group(1))
            break
    if port is None:
        proc.kill()
        raise SystemExit(f"server never reported a port: {' '.join(cmd)}")
    return proc, port


def stop_server(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    # Drain the rest of stdout so the pipe closes cleanly.
    if proc.stdout:
        proc.stdout.read()


def run_point(args, system, reactors, durability, point, loadgen_args):
    log_dir = None
    if durability != "off":
        log_dir = tempfile.mkdtemp(prefix="si-sweep-wal-")
    proc, port = start_server(args, reactors, durability, log_dir)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    cmd = [
        args.loadgen,
        "-port", str(port),
        "-keys", str(args.elements * 2),
        "-json", tmp_path,
        "-system", system,
        "-point", point,
    ] + loadgen_args
    print(f"  {system} {point} ...", flush=True)
    try:
        rc = subprocess.run(cmd, timeout=args.timeout).returncode
        if rc != 0:
            raise SystemExit(
                f"loadgen failed (exit {rc}, lost/misrouted responses?): "
                f"{' '.join(cmd)}")
        with open(tmp_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(tmp_path)
        stop_server(proc)
        if log_dir is not None:
            shutil.rmtree(log_dir, ignore_errors=True)
    return doc


def closed_point(args, system, reactors, durability, conns, depth):
    loadgen_args = ["-conns", str(conns), "-requests", str(args.requests),
                    "-pipeline", str(depth),
                    "-client-threads", str(args.client_threads)]
    return run_point(args, system, reactors, durability,
                     f"c{conns}-d{depth}", loadgen_args)


def open_point(args, system, durability, rate):
    loadgen_args = ["-mode", "open", "-conns", str(args.open_conns),
                    "-rate", str(rate), "-duration-s", str(args.duration_s),
                    "-ro", str(args.open_ro),
                    "-client-threads", str(args.client_threads)]
    return run_point(args, system, 1, durability, f"r{rate}", loadgen_args)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--serve", default="build/tools/si_serve")
    ap.add_argument("--loadgen", default="build/tools/si_loadgen")
    ap.add_argument("--out", required=True)
    ap.add_argument("--backend", default="si-htm")
    ap.add_argument("--shards", type=int, default=2)
    ap.add_argument("--buckets", type=int, default=4096)
    ap.add_argument("--elements", type=int, default=20000)
    ap.add_argument("--requests", type=int, default=200000)
    ap.add_argument("--conns", default="8,32,128",
                    help="comma-separated connection counts per system")
    ap.add_argument("--depth", type=int, default=8,
                    help="pipeline depth for the closed-loop points")
    ap.add_argument("--client-threads", type=int, default=2)
    ap.add_argument("--durability", default="off",
                    help="comma-separated -durability modes to sweep "
                         "(off,buffered,fsync,odirect); non-off modes "
                         "suffix the system name")
    ap.add_argument("--rates", default="",
                    help="comma-separated open-loop arrival rates (req/s); "
                         "adds a serve-bin-open system swept over -rate "
                         "at --open-conns connections")
    ap.add_argument("--open-conns", type=int, default=16,
                    help="connection count for the open-loop rate points")
    ap.add_argument("--open-ro", type=int, default=50,
                    help="read percentage for the open-loop points")
    ap.add_argument("--duration-s", type=float, default=5.0,
                    help="send window per open-loop point, seconds")
    ap.add_argument("--timeout", type=int, default=600,
                    help="per-point loadgen timeout, seconds")
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: fewer requests, fewer points")
    args = ap.parse_args()

    conns_list = [int(c) for c in args.conns.split(",") if c]
    rates_list = [int(r) for r in args.rates.split(",") if r]
    modes = [m.strip() for m in args.durability.split(",") if m.strip()]
    for mode in modes:
        if mode not in ("off", "buffered", "fsync", "odirect"):
            raise SystemExit(f"unknown durability mode: {mode}")
    if args.quick:
        args.requests = min(args.requests, 40000)
        args.duration_s = min(args.duration_s, 2.0)
        conns_list = conns_list[:2]
        rates_list = rates_list[:2]

    # (system, reactors)
    systems = [("serve-bin-r1", 1), ("serve-bin-r4", 4)]

    records = []
    provenance = None

    def collect(doc):
        nonlocal provenance
        if provenance is None:
            provenance = doc.get("provenance", {})
        records.extend(doc.get("records", []))

    for mode in modes:
        suffix = "" if mode == "off" else f"-{mode}"
        for system, reactors in systems:
            name = system + suffix
            print(f"== {name} (reactors={reactors}, depth={args.depth}, "
                  f"durability={mode})", flush=True)
            for conns in conns_list:
                collect(closed_point(args, name, reactors, mode,
                                     conns, args.depth))
        for rate in rates_list:
            name = "serve-bin-open" + suffix
            print(f"== {name} r{rate} (open loop, durability={mode})",
                  flush=True)
            collect(open_point(args, name, mode, rate))

    out = {
        "schema": "si-bench-v1",
        "bench": "serve_sweep",
        "provenance": provenance or {},
        "records": records,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
