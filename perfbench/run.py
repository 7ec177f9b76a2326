#!/usr/bin/env python3
"""Serving benchmark for the SI-HTM stack (see README.md next to this file).

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

One run builds what it needs (the repository's si_serve and the two load
generators in this directory) under $CARGO_TARGET_DIR (default .bench_build),
then measures one workload:

  setup      si_serve is launched several times; launch-to-listening median.
  TCP        si_serve -shards 2 -reactors 1, driven by pb_client: one open-loop
             thread, 4 connections, Poisson arrivals, every sample kept.
  recovery   (kv-durable) SIGTERM, then `si_serve -recover-only` is timed over
             the log the run wrote; replayed records must equal acked updates.
  in-process (--trace 1 only) pb_inproc drives serve::Service through
             submit(), traced: a sleeping fixed-rate generator for latency and
             a fixed-window closed loop for capacity.

Every answer is checked against a sequential oracle. The last line of stdout
is one JSON object: correct, attempted, failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Exit 1 when an answer was
wrong, lost, misrouted or refused, or recovery disagrees with the acks.
"""
import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Share of --seconds each phase measures. The untraced run is all TCP; the
# traced run splits it between TCP and the two in-process phases.
TRACED_TCP_SHARE, TRACED_RATE_SHARE, TRACED_CAPACITY_SHARE = 0.4, 0.45, 0.15
SETUP_LAUNCHES = 9
# The latency phases run on one vCPU (README, "Thread budget and steadiness"):
# the highest one this process may use, away from CPU 0 and its interrupts.
# pb_inproc picks the same one from the same mask.
LATENCY_CPU = max(os.sched_getaffinity(0))


def on_latency_cpu():
    os.sched_setaffinity(0, {LATENCY_CPU})


# Each workload: the served app, its preload, the op mix in per mille (the
# rest is put/del), the open-loop rate, and whether updates go through the
# write-ahead log. si_serve's flags and both generators' flags come from it.
WORKLOADS = {
    "kv-read": {"app": "kv", "elements": 20000, "buckets": 1000,
                "get_pm": 950, "range_pm": 0, "rate": 10000, "durable": False},
    "kv-durable": {"app": "kv", "elements": 20000, "buckets": 100,
                   "get_pm": 500, "range_pm": 0, "rate": 4000, "durable": True},
    "map-scan": {"app": "map", "elements": 200000,
                 "get_pm": 700, "range_pm": 200, "rate": 5000, "durable": False},
}
# Group commit writes the log without fdatasync (see README, "Flush policy").
DURABILITY = "buffered"


def app_flags(wl):
    """si_serve's flags for the workload's app (its range cap is the default
    the generators assume)."""
    if wl["app"] == "map":
        return ["-workload", "map", "-struct", "skiplist", "-elements", str(wl["elements"])]
    return ["-workload", "hashmap", "-buckets", str(wl["buckets"]),
            "-elements", str(wl["elements"])]


def spec_flags(wl):
    """The generators' flags for the same app and the request stream."""
    flags = ["-app", wl["app"], "-elements", wl["elements"],
             "-get-pm", wl["get_pm"], "-range-pm", wl["range_pm"], "-rate", wl["rate"]]
    if wl["app"] == "kv":
        flags += ["-buckets", wl["buckets"]]
    return flags


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build(build_dir):
    """Configures (once) and builds si_serve and the load generators."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "si_serve", "pb_client", "pb_inproc"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return {"si_serve": build_dir / "sihtm" / "tools" / "si_serve",
            "client": build_dir / "pb_client",
            "inproc": build_dir / "pb_inproc"}


class Server:
    """One si_serve process; the constructor returns once it listens."""

    def __init__(self, binary, args):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [str(binary), "-shards", "2", "-reactors", "1", "-port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, preexec_fn=on_latency_cpu)
        self.output = ""
        self.port = None
        while self.port is None:
            if not self._read(deadline=t0 + 60):
                self.kill()
                raise BenchError("si_serve did not listen:\n" + self.output)
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", self.output)
            if m:
                self.port = int(m.group(1))
        self.setup_s = time.monotonic() - t0

    def _read(self, deadline):
        """Appends available output; False at EOF or past the deadline."""
        left = deadline - time.monotonic()
        if left <= 0:
            return False
        ready, _, _ = select.select([self.proc.stdout], [], [], left)
        if not ready:
            return False
        chunk = os.read(self.proc.stdout.fileno(), 65536)
        self.output += chunk.decode(errors="replace")
        return bool(chunk)

    def stop(self):
        """SIGTERM drain; returns (exit code, peak RSS in MiB)."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while self._read(deadline):
            pass
        if time.monotonic() >= deadline:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def run_json(cmd, timeout, preexec_fn=None):
    """Runs a generator; returns (exit code, its JSON report)."""
    res = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=timeout,
                         preexec_fn=preexec_fn)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{Path(str(cmd[0])).name} printed no report (exit {res.returncode})")
    return res.returncode, json.loads(lines[-1])


def server_counter(output, name):
    m = re.search(rf"\b{name}=(\d+)", output)
    return int(m.group(1)) if m else None


def run(args, bins, work_dir):
    wl = WORKLOADS[args.workload]
    seed = ["-seed", str(args.seed)]
    trace = args.trace == 1
    tcp_s = args.seconds * (TRACED_TCP_SHARE if trace else 1.0)
    problems = []
    wal_dirs = []

    def server_args(tag):
        if not wl["durable"]:
            return app_flags(wl)
        wal = work_dir / f"wal-{tag}"
        wal.mkdir()
        wal_dirs.append(wal)
        return [*app_flags(wl), "-durability", DURABILITY, "-log-dir", str(wal)]

    # Set-up: launch to listening, several times; the last server is measured.
    setups = []
    for i in range(SETUP_LAUNCHES - 1):
        s = Server(bins["si_serve"], server_args(f"setup{i}"))
        setups.append(s.setup_s)
        s.stop()
    server = Server(bins["si_serve"], server_args("tcp"))
    setups.append(server.setup_s)
    try:
        rc, tcp = run_json([bins["client"], "-port", server.port, *spec_flags(wl), *seed,
                            "-seconds", tcp_s,
                            *(["-record"] if trace else [])], timeout=tcp_s + 60,
                           preexec_fn=on_latency_cpu)
    finally:
        server_rc, rss_mb = server.stop()
    if rc != 0:
        problems.append(f"TCP client: {tcp.get('first_error') or 'lost or misrouted answers'}")
    if server_rc != 0:
        problems.append(f"si_serve exited {server_rc}")
    out = server.output
    parsed = server_counter(out, "parsed")
    refused = sum(server_counter(out, k) or 0
                  for k in ("failed", "rejected-busy", "rejected-full", "rejected-stopped"))
    if parsed != tcp["sent"]:
        problems.append(f"si_serve parsed {parsed} of {tcp['sent']} requests")
    errors = refused + int(tcp["misrouted"]) + sum(
        int(tcp[k]) for k in ("unanswered", "duplicates", "bad_status", "wrong"))
    attempted = int(tcp["sent"])
    log(f"TCP: {tcp['sent']} requests, generator late p50/p99/max "
        f"{tcp['late_p50_us']:.1f}/{tcp['late_p99_us']:.1f}/{tcp['late_max_us']:.0f} us")

    recover_s = 0.0
    if wl["durable"]:
        t0 = time.monotonic()
        rec = subprocess.run([str(bins["si_serve"]), *app_flags(wl), "-log-dir",
                              str(wal_dirs[-1]), "-recover-only"],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=120, preexec_fn=on_latency_cpu)
        recover_s = time.monotonic() - t0
        replayed = server_counter(rec.stdout, "replayed")
        if rec.returncode != 0 or replayed != tcp["acked_updates"] or \
                server_counter(rec.stdout, "failed") != 0:
            problems.append(f"recovery replayed {replayed} of {tcp['acked_updates']} "
                            f"acked updates (exit {rec.returncode})")

    if trace:
        cmd = [bins["inproc"], *spec_flags(wl), *seed,
               "-rate-s", args.seconds * TRACED_RATE_SHARE,
               "-capacity-s", args.seconds * TRACED_CAPACITY_SHARE,
               "-spans-out", work_dir.parent / f"spans-{args.workload}.jsonl"]
        if wl["durable"]:
            wal = work_dir / "wal-inproc"
            wal.mkdir()
            cmd += ["-durability", DURABILITY, "-log-dir", wal]
        rc, svc = run_json(cmd, timeout=args.seconds + 120)
        if rc != 0:
            problems.append(f"in-process: {svc.get('first_error') or 'recovery mismatch'}")
        errors += sum(int(svc[k]) for k in ("unanswered", "duplicates", "bad_status", "wrong"))
        attempted += int(svc["sent"])
        log(f"in-process: {svc['sent']} requests, generator late p50/p99/max "
            f"{svc['late_p50_us']:.1f}/{svc['late_p99_us']:.1f}/{svc['late_max_us']:.0f} us")
    for p in problems:
        log("FAILED: " + p)

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "rss_mb": (rss_mb, "MiB"),
            "ok_pct": (100.0 * (attempted - errors) / attempted, "%"),
            "get_p50_us": (tcp["get_p50_us"], "us"),
            "update_p50_us": (tcp["update_p50_us"], "us"),
        }
    else:
        metrics = {
            "reactor.share_p50_us": (tcp["get_p50_us"] - svc["get_p50_us"], "us"),
            "reactor.wakeups_per_req": ((server_counter(out, "wakeups") or 0) / max(parsed or 1, 1), "ratio"),
            "reactor.flushes_per_req": ((server_counter(out, "flushes") or 0) / max(parsed or 1, 1), "ratio"),
            "wire.decode_ns": (tcp["decode_ns"], "ns"),
            "client.late_p99_us": (tcp["late_p99_us"], "us"),
            "tcp.range_p50_us": (tcp["range_p50_us"], "us"),
            "service.get_p50_us": (svc["get_p50_us"], "us"),
            "service.update_p50_us": (svc["update_p50_us"], "us"),
            "service.range_p50_us": (svc["range_p50_us"], "us"),
            "service.get_p99_us": (svc["get_p99_us"], "us"),
            "service.update_p99_us": (svc["update_p99_us"], "us"),
            "service.range_p99_us": (svc["range_p99_us"], "us"),
            "service.capacity_kops": (svc["capacity_kops"], "kops/s"),
            "service.late_p99_us": (svc["late_p99_us"], "us"),
            "service.wait_p50_us": (svc["wait_p50_us"], "us"),
            "service.wait_p99_us": (svc["wait_p99_us"], "us"),
            "service.queue_depth_mean": (svc["queue_depth_mean"], "count"),
            "app.get_us": (svc["app_get_us"], "us"),
            "app.update_us": (svc["app_update_us"], "us"),
            "app.range_us": (svc["app_range_us"], "us"),
            "tx.aborts_per_kcommit": (svc["aborts_per_kcommit"], "count"),
            "tx.capacity_aborts_per_kcommit": (svc["capacity_aborts_per_kcommit"], "count"),
            "tx.sgl_commit_pct": (svc["sgl_commit_pct"], "%"),
            "tx.safety_wait_mean_us": (svc["safety_wait_mean_us"], "us"),
            "tx.sgl_hold_mean_us": (svc["sgl_hold_mean_us"], "us"),
            "p8htm.owned_hit_pct": (svc["owned_hit_pct"], "%"),
            "wal.records_per_flush": (svc["records_per_flush"], "ratio"),
            "wal.durable_ack_mean_us": (svc["durable_ack_mean_us"], "us"),
            "wal.bytes_per_user_byte": (svc["bytes_per_user_byte"], "ratio"),
            "recover.total_s": (recover_s, "s"),
            "recover.scan_s": (svc.get("recover_scan_s", 0.0), "s"),
            "recover.replay_s": (svc.get("recover_replay_s", 0.0), "s"),
            "recover.krecords_per_s": (svc.get("recover_krecords_per_s", 0.0), "krec/s"),
            "setup.seed_s": (svc["seed_s"], "s"),
            "maps.keys_per_range": (tcp["keys_per_range"], "count"),
            "trace.overhead_pct": (svc["trace_overhead_pct"], "%"),
        }
    return {
        "correct": not problems and errors == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(build_dir):
    """Short run of every workload in both modes; validates each report
    against BENCHMARK.json. Returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for wl in WORKLOADS:
        for trace in (0, 1):
            names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            res = subprocess.run([sys.executable, __file__, "--workload", wl, "--seed", "7",
                                  "--seconds", "2", "--trace", str(trace)],
                                 stdout=subprocess.PIPE, text=True, timeout=600,
                                 env=dict(os.environ, CARGO_TARGET_DIR=str(build_dir)))
            report = json.loads(res.stdout.strip().splitlines()[-1])
            bad = []
            if res.returncode != 0 or report.get("correct") is not True:
                bad.append(f"exit {res.returncode}, correct={report.get('correct')}")
            if set(report) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"keys {sorted(report)}")
            if set(report["metrics"]) != set(names):
                bad.append(f"metrics differ: {sorted(set(report['metrics']) ^ set(names))}")
            for name, m in report["metrics"].items():
                if m.get("unit") != names.get(name) or not isinstance(m.get("value"), (int, float)):
                    bad.append(f"{name}: {m}")
                elif not trace and m["value"] <= 0:
                    bad.append(f"{name} is {m['value']}")
            log(f"smoke {wl} trace={trace}: {'ok' if not bad else '; '.join(bad)}")
            ok = ok and not bad
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload, validating the reports")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve").is_dir():
        log(f"no SI-HTM sources under {ROOT}; nothing to build")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if args.smoke:
        return smoke(build_dir)
    try:
        bins = build(build_dir)
        work_dir = ROOT / ".bench_out" / f"run-{os.getpid()}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        try:
            result = run(args, bins, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
