#!/usr/bin/env python3
"""Crash-recovery smoke (DESIGN.md §14): kill -9 a loaded server, recover,
prove zero acked-write loss.

The acceptance chain, end to end:

  1. start si_serve with -durability (fsync by default) on an ephemeral port
  2. drive it with si_loadgen writing an acked-write ledger (-ledger): one
     `id op key arg` line per put/del the server acknowledged — closed loop
     by default, or Poisson arrivals at a fixed rate with --open-rate, where
     acks arrive while sends keep going
  3. mid-load, scrape /metrics and lint it (check_metrics.py
     --require-durability), check that no update ran inline on a reactor
     (logged updates must wait for their group's flush on the shard
     worker), then SIGKILL the server — no drain, no flush
  4. run `si_serve -recover -recover-only -recover-verify`: scan the shard
     logs, discard torn tails, replay the trusted records through the
     runtime with a history recorder, and SI-verify the replayed history
  5. dump the trusted records (`si_logdump -ids`) and check every ledger
     line appears among them with the same op/key/arg — an acked write
     missing from the log after recovery is the one unforgivable outcome

Exit 0 when every step passes. Used by the CI crash-recovery lane and
runnable by hand:

  python3 scripts/crash_recovery_smoke.py --build-dir build
  python3 scripts/crash_recovery_smoke.py --build-dir build --open-rate 20000
"""
import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
ADMIN_RE = re.compile(r"admin endpoint on 127\.0\.0\.1:(\d+)")
INLINE_UPDATES_RE = re.compile(r"^si_reactor_inline_updates_total (\S+)$",
                               re.MULTILINE)


def fail(msg):
    print(f"crash_recovery_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def wait_for_ports(proc, deadline_s):
    """Reads the server's stdout until both the data and admin ports are
    announced (they are printed and flushed right after bind)."""
    port = admin = None
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"server exited early with status {proc.returncode}")
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        sys.stdout.write("  server: " + line)
        m = LISTEN_RE.search(line)
        if m:
            port = int(m.group(1))
        m = ADMIN_RE.search(line)
        if m:
            admin = int(m.group(1))
        if port is not None and admin is not None:
            return port, admin
    fail("timed out waiting for the server to announce its ports")


def parse_ledger(path):
    """-> {id: (op, key, arg)} from the si_loadgen acked-write ledger."""
    entries = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if len(parts) != 4:
                fail(f"ledger line {lineno} malformed: {line!r}")
            rid, op, key, arg = (int(p) for p in parts)
            entries[rid] = (op, key, arg)
    return entries


def parse_logdump_ids(text):
    """-> {id: (op, key, arg)} from `si_logdump -ids` (summary lines have
    non-numeric tokens and are skipped; id lines are six integers)."""
    entries = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 6:
            continue
        try:
            rid, op, key, arg, _lsn, _shard = (int(p) for p in parts)
        except ValueError:
            continue
        entries[rid] = (op, key, arg)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir holding tools/si_serve etc.")
    ap.add_argument("--mode", default="fsync",
                    choices=["buffered", "fsync", "odirect"],
                    help="-durability mode under test")
    ap.add_argument("--backend", default="si-htm")
    ap.add_argument("--shards", type=int, default=2)
    ap.add_argument("--conns", type=int, default=8)
    ap.add_argument("--ro", type=int, default=20,
                    help="read percentage (low = write-heavy = bigger log)")
    ap.add_argument("--load-seconds", type=float, default=2.0,
                    help="how long to load the server before the SIGKILL")
    ap.add_argument("--open-rate", type=float, default=0,
                    help="drive the open loop at this many req/s instead of "
                         "the closed loop")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch dir for inspection")
    args = ap.parse_args()

    build = os.path.abspath(args.build_dir)
    si_serve = os.path.join(build, "tools", "si_serve")
    si_loadgen = os.path.join(build, "tools", "si_loadgen")
    si_logdump = os.path.join(build, "tools", "si_logdump")
    for tool in (si_serve, si_loadgen, si_logdump):
        if not os.path.exists(tool):
            fail(f"missing tool {tool} (build first)")
    check_metrics = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "check_metrics.py")

    scratch = tempfile.mkdtemp(prefix="si-crash-smoke-")
    wal_dir = os.path.join(scratch, "wal")
    ledger = os.path.join(scratch, "ledger.txt")
    metrics_txt = os.path.join(scratch, "metrics.txt")
    server = loadgen = None
    # The workload shape must be identical across the serving run and the
    # recovery run: the replay target is a fresh app seeded from these flags.
    workload_flags = ["-workload", "hashmap", "-backend", args.backend,
                      "-shards", str(args.shards)]
    ok = False
    try:
        load = (f"open loop {args.open_rate:g} req/s" if args.open_rate > 0
                else "closed loop")
        print(f"crash_recovery_smoke: scratch={scratch} mode={args.mode} "
              f"load={load}")
        server = subprocess.Popen(
            [si_serve, *workload_flags, "-port", "0", "-admin-port", "0",
             "-durability", args.mode, "-log-dir", wal_dir],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        port, admin = wait_for_ports(server, deadline_s=30)

        if args.open_rate > 0:
            load_flags = ["-mode", "open", "-rate", str(args.open_rate),
                          "-duration-s", "600"]
        else:
            load_flags = ["-requests", "500000000"]
        loadgen = subprocess.Popen(
            [si_loadgen, "-port", str(port), "-conns", str(args.conns),
             *load_flags, "-ro", str(args.ro), "-ledger", ledger],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        time.sleep(args.load_seconds)
        if loadgen.poll() is not None:
            fail("loadgen finished before the kill")

        # Mid-load scrape: the si_log_* families must be live.
        with urllib.request.urlopen(
                f"http://127.0.0.1:{admin}/metrics", timeout=10) as resp:
            with open(metrics_txt, "wb") as f:
                f.write(resp.read())
        lint = subprocess.run(
            [sys.executable, check_metrics, "--metrics", metrics_txt,
             "--require-durability"])
        if lint.returncode != 0:
            fail("mid-load /metrics scrape failed the durability lint")
        with open(metrics_txt) as f:
            inline_updates = INLINE_UPDATES_RE.search(f.read())
        if inline_updates is None:
            fail("mid-load /metrics scrape has no "
                 "si_reactor_inline_updates_total")
        elif float(inline_updates.group(1)) != 0:
            fail(f"{inline_updates.group(1)} logged updates ran inline on a "
                 "reactor instead of behind their group commit")

        print(f"crash_recovery_smoke: SIGKILL server pid={server.pid}")
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)

        out, _ = loadgen.communicate(timeout=120)
        for line in out.splitlines():
            print("  loadgen:", line)
        # A nonzero loadgen exit is EXPECTED: in-flight requests died with
        # the server. The ledger holds only acked writes — that is the
        # entire point.

        acked = parse_ledger(ledger)
        if not acked:
            fail("ledger is empty: the run never acknowledged a write")
        print(f"crash_recovery_smoke: {len(acked)} acked writes in ledger")

        recover = subprocess.run(
            [si_serve, *workload_flags, "-durability", args.mode,
             "-log-dir", wal_dir, "-recover", "-recover-only",
             "-recover-verify"],
            capture_output=True, text=True, timeout=300)
        for line in (recover.stdout + recover.stderr).splitlines():
            print("  recover:", line)
        if recover.returncode != 0:
            fail(f"recovery exited {recover.returncode}")

        dump = subprocess.run([si_logdump, "-dir", wal_dir, "-ids"],
                              capture_output=True, text=True, timeout=120)
        if dump.returncode != 0:
            fail(f"si_logdump exited {dump.returncode}: {dump.stderr}")
        logged = parse_logdump_ids(dump.stdout)

        missing = [rid for rid in acked if rid not in logged]
        if missing:
            fail(f"{len(missing)} acked writes missing from the recovered "
                 f"log (first: {sorted(missing)[:5]})")
        mismatched = [rid for rid, v in acked.items() if logged[rid] != v]
        if mismatched:
            fail(f"{len(mismatched)} acked writes recovered with different "
                 f"op/key/arg (first: {sorted(mismatched)[:5]})")

        print(f"crash_recovery_smoke: PASS — {len(acked)} acked writes, "
              f"0 lost, {len(logged)} records recovered, SI verified")
        ok = True
    finally:
        for proc in (server, loadgen):
            if proc is not None and proc.poll() is None:
                proc.kill()
        if args.keep or not ok:
            print(f"crash_recovery_smoke: scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
