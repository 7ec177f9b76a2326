// Shared harness for the figure benches: runs thread-count sweeps of a
// workload on the simulated 10-core SMT-8 POWER8 for each concurrency
// control and prints paper-style series (throughput + abort breakdown).
//
// Every figure binary accepts:
//   -threads 1,2,4,8,16,32,40,80   thread counts (paper's x-axis)
//   -ms 2.0                        virtual milliseconds simulated per point
//   -quick                         coarse sweep (1,8,40) for smoke runs
//   -json out.json                 also write machine-readable records
//   -trace out.trace.json          Chrome trace of the sweep's last point
#pragma once

#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/backend.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace si::bench {

// Run provenance baked in at configure time (root CMakeLists.txt); "unknown"
// when building outside CMake or a git checkout.
#ifdef SI_GIT_SHA
inline constexpr const char* kGitSha = SI_GIT_SHA;
#else
inline constexpr const char* kGitSha = "unknown";
#endif
#ifdef SI_BUILD_TYPE
inline constexpr const char* kBuildType = SI_BUILD_TYPE;
#else
inline constexpr const char* kBuildType = "unknown";
#endif

using si::runtime::Backend;

/// Interactive progress marker; suppressed when stderr is redirected so
/// captured bench output stays clean.
inline void progress_dot(char c = '.') {
  static const bool tty = isatty(2) != 0;
  if (tty) std::fputc(c, stderr);
}

struct Sweep {
  std::vector<int> threads{1, 2, 4, 8, 16, 32, 40, 80};
  double virtual_ns = 2e6;

  static Sweep from_cli(const si::util::Cli& cli) {
    Sweep s;
    if (cli.has("quick")) s.threads = {1, 8, 40};
    s.threads = si::util::parse_int_list(cli.get("threads"), s.threads);
    s.virtual_ns = cli.get_double("ms", s.virtual_ns / 1e6) * 1e6;
    return s;
  }
};

/// One machine-readable result row: a (system, threads) point with the
/// quantities the paper plots. `point` distinguishes rows within a binary
/// that runs several named benchmarks (the primitives harness) or panels;
/// figure sweeps leave it as the panel title. Shared between the figure
/// benches and bench_primitives so scripts/bench_to_csv.py reads both.
struct BenchRecord {
  std::string system;
  std::string point;
  int threads = 1;
  double throughput = 0.0;  ///< committed tx/s (items/s for primitives)
  std::uint64_t commits = 0;
  double abort_pct = 0.0;
  double abort_pct_transactional = 0.0;
  double abort_pct_non_transactional = 0.0;
  double abort_pct_capacity = 0.0;
  double fast_path_hit_rate = -1.0;  ///< emulation fast path; <0 = not measured
  double lock_acqs_per_iter = -1.0;  ///< bucket-lock takes; <0 = not measured
  double safety_wait_p50_ns = -1.0;  ///< obs metrics; <0 = not measured
  double safety_wait_p99_ns = -1.0;
  double req_latency_p50_ns = -1.0;  ///< serve layer; <0 = not a serving run
  double req_latency_p99_ns = -1.0;
  double req_latency_p999_ns = -1.0;
  /// Futex wake-ups taken while blocked on the SGL (slim lock only;
  /// <0 = not measured, 0 = measured and never slept).
  std::int64_t sgl_sleep_wakeups = -1;
  /// Serve AIMD controller state at end of run; watermark < 0 = disabled.
  std::int64_t aimd_watermark = -1;
  std::int64_t aimd_raises = 0;
  std::int64_t aimd_cuts = 0;
  double aimd_last_p99_ns = -1.0;
};

/// Collects BenchRecords and writes them as a `si-bench-v1` JSON document.
/// Disabled (all calls no-ops) when constructed without a path, so call
/// sites can pass it unconditionally.
class JsonSink {
 public:
  JsonSink() = default;
  JsonSink(std::string path, std::string bench)
      : path_(std::move(path)), bench_(std::move(bench)) {}

  static JsonSink from_cli(const si::util::Cli& cli, std::string bench) {
    return JsonSink(cli.get("json"), std::move(bench));
  }

  bool enabled() const noexcept { return !path_.empty(); }

  /// Provenance backend tag; figure sweeps that run several systems keep the
  /// default "mixed" (each record still names its system).
  void set_backend(std::string backend) { backend_ = std::move(backend); }

  void add(BenchRecord rec) {
    if (enabled()) records_.push_back(std::move(rec));
  }

  void add(const std::string& point, Backend system, int threads,
           const si::util::RunStats& rs,
           const si::obs::MetricsSnapshot* m = nullptr) {
    if (!enabled()) return;
    BenchRecord rec;
    rec.system = si::runtime::to_string(system);
    rec.point = point;
    rec.threads = threads;
    rec.throughput = rs.throughput();
    rec.commits = rs.totals.commits;
    rec.abort_pct = rs.abort_pct();
    rec.abort_pct_transactional =
        rs.abort_pct(si::util::AbortClass::kTransactional);
    rec.abort_pct_non_transactional =
        rs.abort_pct(si::util::AbortClass::kNonTransactional);
    rec.abort_pct_capacity = rs.abort_pct(si::util::AbortClass::kCapacity);
    const auto& fp = rs.totals.fast_path;
    if (fp.hits + fp.misses > 0) rec.fast_path_hit_rate = fp.hit_rate();
    rec.sgl_sleep_wakeups =
        static_cast<std::int64_t>(rs.totals.sgl_sleep_wakeups);
    if (m != nullptr) {
      // 0 with metrics attached means "measured, no waits" (e.g. plain HTM);
      // -1 (metrics off) means "not measured". --compare needs the difference.
      rec.safety_wait_p50_ns = static_cast<double>(m->safety_wait_p50_ns());
      rec.safety_wait_p99_ns = static_cast<double>(m->safety_wait_p99_ns());
      if (m->request_latency.count() > 0) {
        rec.req_latency_p50_ns =
            static_cast<double>(m->request_latency_p50_ns());
        rec.req_latency_p99_ns =
            static_cast<double>(m->request_latency_p99_ns());
      }
    }
    records_.push_back(std::move(rec));
  }

  /// Writes the collected records; returns false (with a message on stderr)
  /// if the file cannot be opened. Safe to call when disabled.
  bool flush() const {
    if (!enabled()) return true;
    std::ofstream os(path_);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    si::util::JsonWriter w(os);
    w.begin_object();
    w.key("schema");
    w.value("si-bench-v1");
    w.key("bench");
    w.value(bench_);
    w.key("provenance");
    w.begin_object();
    w.key("sha");
    w.value(kGitSha);
    w.key("build_type");
    w.value(kBuildType);
    w.key("backend");
    w.value(backend_);
    w.end_object();
    w.key("records");
    w.begin_array();
    for (const auto& r : records_) {
      w.begin_object();
      w.key("system");
      w.value(r.system);
      w.key("point");
      w.value(r.point);
      w.key("threads");
      w.value(r.threads);
      w.key("throughput");
      w.value(r.throughput);
      w.key("commits");
      w.value(r.commits);
      w.key("abort_pct");
      w.value(r.abort_pct);
      w.key("abort_pct_transactional");
      w.value(r.abort_pct_transactional);
      w.key("abort_pct_non_transactional");
      w.value(r.abort_pct_non_transactional);
      w.key("abort_pct_capacity");
      w.value(r.abort_pct_capacity);
      if (r.fast_path_hit_rate >= 0) {
        w.key("fast_path_hit_rate");
        w.value(r.fast_path_hit_rate);
      }
      if (r.lock_acqs_per_iter >= 0) {
        w.key("lock_acqs_per_iter");
        w.value(r.lock_acqs_per_iter);
      }
      if (r.safety_wait_p50_ns >= 0) {
        w.key("safety_wait_p50_ns");
        w.value(r.safety_wait_p50_ns);
        w.key("safety_wait_p99_ns");
        w.value(r.safety_wait_p99_ns);
      }
      if (r.req_latency_p50_ns >= 0) {
        w.key("req_latency_p50_ns");
        w.value(r.req_latency_p50_ns);
        w.key("req_latency_p99_ns");
        w.value(r.req_latency_p99_ns);
        if (r.req_latency_p999_ns >= 0) {
          w.key("req_latency_p999_ns");
          w.value(r.req_latency_p999_ns);
        }
      }
      if (r.sgl_sleep_wakeups >= 0) {
        w.key("sgl_sleep_wakeups");
        w.value(static_cast<std::uint64_t>(r.sgl_sleep_wakeups));
      }
      if (r.aimd_watermark >= 0) {
        w.key("aimd_watermark");
        w.value(static_cast<std::uint64_t>(r.aimd_watermark));
        w.key("aimd_raises");
        w.value(static_cast<std::uint64_t>(r.aimd_raises));
        w.key("aimd_cuts");
        w.value(static_cast<std::uint64_t>(r.aimd_cuts));
        w.key("aimd_last_p99_ns");
        w.value(r.aimd_last_p99_ns);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return bool(os);
  }

 private:
  std::string path_;
  std::string bench_;
  std::string backend_ = "mixed";
  std::vector<BenchRecord> records_;
};

/// Runs one (system, thread-count) point. `make_workload(threads)` must
/// return a fresh workload object exposing `step(cc, tid)`. `obs` optionally
/// attaches tracing/metrics sinks; the hooks never advance virtual time, so
/// the simulated results are identical with and without them.
template <typename MakeWorkload>
si::util::RunStats run_point(Backend system, int threads, double virtual_ns,
                             MakeWorkload&& make_workload,
                             si::obs::ObsConfig obs = {}) {
  si::sim::SimMachineConfig mcfg;  // the paper's machine: 10 cores, SMT-8
  si::sim::SimEngine eng(mcfg, threads);
  auto workload = make_workload(threads);
  return si::sim::with_sim_backend(
      system, eng, {.obs = obs}, 10, [&](auto& cc) {
        return eng.run(virtual_ns, [&](int tid) { workload->step(cc, tid); });
      });
}

/// Full panel: every system over the sweep; prints the paper-style block.
/// `tx_scale` matches the paper's y-axis units (1e6 for the hash map's
/// "10^6 Tx/s", 1e4 for TPC-C's "10^4 Tx/s").
///
/// When the sink is enabled, per-point obs metrics (safety-wait percentiles)
/// ride along in the records. `trace_path` (the -trace flag) additionally
/// writes a Chrome trace; each point overwrites it, so the file ends up
/// holding the panel's last (system, threads) point.
template <typename MakeWorkload>
void run_panel(const std::string& title, const std::vector<Backend>& systems,
               const Sweep& sweep, double tx_scale, MakeWorkload&& make_workload,
               JsonSink* sink = nullptr, const std::string& trace_path = {}) {
  std::printf("== %s ==\n", title.c_str());
  const bool want_obs = (sink && sink->enabled()) || !trace_path.empty();
  for (Backend system : systems) {
    std::vector<si::util::SeriesPoint> points;
    for (int n : sweep.threads) {
      if (want_obs) {
        si::obs::Tracer tracer(trace_path.empty() ? 0 : n);
        si::obs::Metrics metrics(n);
        const si::obs::ObsConfig obs{trace_path.empty() ? nullptr : &tracer,
                                     &metrics};
        points.push_back(
            {n, run_point(system, n, sweep.virtual_ns, make_workload, obs)});
        const auto snap = metrics.snapshot();
        if (sink) sink->add(title, system, n, points.back().stats, &snap);
        if (!trace_path.empty()) {
          std::ofstream os(trace_path);
          if (os) {
            si::obs::write_chrome_trace(
                os, tracer,
                std::string(si::runtime::to_string(system)) + " " +
                    std::to_string(n) + "t");
          } else {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
          }
        }
      } else {
        points.push_back(
            {n, run_point(system, n, sweep.virtual_ns, make_workload)});
        if (sink) sink->add(title, system, n, points.back().stats);
      }
      progress_dot();
    }
    si::util::print_series(std::cout, si::runtime::to_string(system), points,
                           tx_scale);
  }
  progress_dot('\n');
  std::printf("\n");
}

/// Peak throughput across a printed sweep (for the summary lines).
inline double peak_throughput(const std::vector<si::util::SeriesPoint>& pts) {
  double best = 0;
  for (const auto& p : pts) best = std::max(best, p.stats.throughput());
  return best;
}

}  // namespace si::bench
