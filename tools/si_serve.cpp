// si_serve — TCP front end for the sharded transactional serving layer
// (src/serve, DESIGN.md sections 9 and 12).
//
//   si_serve -backend si-htm -workload hashmap -shards 2 -port 7070
//   si_serve -backend silo -workload tpcc -shards 4 -port 0   # ephemeral
//
// The front end is N epoll reactor threads (serve/reactor.hpp, `-reactors
// N`) with SO_REUSEPORT listeners speaking the length-prefixed binary
// protocol of serve/wire.hpp: clients pipeline many requests per connection,
// completions route back to the owning reactor over MPSC rings and flush
// with writev. A point read on a connection with nothing in flight skips the
// shards: the reactor runs it on a runtime tid of its own, so the backend's
// thread population is shards + reactors. An unlogged put or del on such a
// connection skips them too while no shard worker is executing: the reactor
// runs it on its shard's tid. Admission-control rejections are
// answered inline by the reactor with Status::kRejected and the retry hint,
// so overload sheds at the socket instead of queueing.
//
// Runs until SIGINT/SIGTERM, then drains in-flight requests and prints the
// service counters plus request-latency percentiles. `-json FILE` also
// writes an si-bench-v1 record of the run (with provenance).
#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "bench/common.hpp"
#include "check/history.hpp"
#include "check/verify.hpp"
#include "durability/recover.hpp"
#include "durability/wal.hpp"
#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/skiplist.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "serve/admin.hpp"
#include "serve/kv_app.hpp"
#include "serve/map_app.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "serve/tpcc_app.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [-backend si-htm|htm|p8tm|silo|raw-rot]\n"
               "          [-workload hashmap|map|tpcc] [-shards N] [-port P]\n"
               "          [-reactors N] [-max-outbuf BYTES]\n"
               "          [-queue-cap N] [-watermark N] [-batch N]\n"
               "          [-adaptive] [-target-p99-us N] [-aimd-epoch-us N]\n"
               "          [-aimd-wakeup-cut N] [-adaptive-retries]\n"
               "          [-admin-port P] [-series-epoch-ms N] [-series-ring N]\n"
               "          [-buckets N] [-elements N] [-warehouses N]\n"
               "          [-struct skiplist|bst|btree] [-scan-cap N]\n"
               "          [-durability off|buffered|fsync|odirect] [-log-dir D]\n"
               "          [-recover] [-recover-only] [-recover-verify]\n"
               "          [-json FILE]\n",
               prog);
}

/// Front-end settings and exit-report sinks, read in main() before anything
/// starts, so a flag that lost its value fails before the port opens.
struct FrontEndOptions {
  si::serve::ReactorConfig reactor;
  si::bench::JsonSink sink;
  std::string backend_name;
};

/// Starts the admin/observability endpoint when `-admin-port` was given
/// (DESIGN.md §13). Handlers run on the admin thread and read snapshot
/// copies only, so a scrape never touches the data plane.
template <typename ServiceT, typename PoolT>
std::unique_ptr<si::serve::AdminServer> start_admin(
    ServiceT& service, const PoolT& pool, si::util::Cli& cli,
    si::obs::Metrics& metrics, const std::string& backend_name) {
  const long long port = cli.get_int("admin-port", -1);
  if (port < 0) return nullptr;
  auto admin =
      std::make_unique<si::serve::AdminServer>(static_cast<std::uint16_t>(port));
  const double t0 = si::obs::wall_ns();
  auto scrape = [&service, &pool, &metrics, backend_name,
                 t0](bool prometheus) {
    const si::obs::MetricsSnapshot snap = metrics.snapshot();
    const si::serve::AimdState aimd = service.aimd_state();
    const si::serve::ReactorStats rstats = pool.stats();
    si::serve::DurabilityStats lstats;
    si::serve::TelemetrySources src;
    src.snap = &snap;
    src.counters = service.counters();
    if (service.config().aimd.enabled) src.aimd = &aimd;
    src.series = service.timeseries();
    src.reactor = &rstats;
    if (service.config().durability.enabled()) {
      lstats = service.durability_stats();
      src.log = &lstats;
    }
    src.backend = backend_name;
    src.shards = service.shards();
    src.uptime_s = (si::obs::wall_ns() - t0) / 1e9;
    return prometheus ? si::serve::render_prometheus(src)
                      : si::serve::render_series_json(src);
  };
  admin->handle("/metrics", "text/plain; version=0.0.4",
                [scrape] { return scrape(true); });
  admin->handle("/series", "application/json",
                [scrape] { return scrape(false); });
  std::string err;
  if (!admin->start(&err)) {
    std::fprintf(stderr, "si_serve: admin endpoint: %s\n", err.c_str());
    return nullptr;
  }
  std::printf("si_serve: admin endpoint on 127.0.0.1:%u (/metrics, /series)\n",
              admin->port());
  std::fflush(stdout);
  return admin;
}

/// Post-run reporting: front-end and service counters, latency percentiles,
/// AIMD state and the optional si-bench-v1 JSON record.
template <typename ServiceT>
int report_run(ServiceT& service, si::obs::Metrics& metrics,
               FrontEndOptions& fe, const si::serve::ReactorStats& rs) {
  const std::string& backend_name = fe.backend_name;
  const auto c = service.counters();
  const auto snap = metrics.snapshot();
  std::printf("si_serve: conns=%llu parsed=%llu parse-errors=%llu\n",
              static_cast<unsigned long long>(rs.conns_accepted),
              static_cast<unsigned long long>(rs.requests),
              static_cast<unsigned long long>(rs.parse_errors));
  std::printf("si_serve: accepted=%llu completed=%llu failed=%llu "
              "rejected-busy=%llu rejected-full=%llu rejected-stopped=%llu\n",
              static_cast<unsigned long long>(c.accepted),
              static_cast<unsigned long long>(c.completed),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.rejected_busy),
              static_cast<unsigned long long>(c.rejected_full),
              static_cast<unsigned long long>(c.rejected_stopped));
  if (snap.request_latency.count() > 0) {
    std::printf("si_serve: request latency p50=%llu p99=%llu p999=%llu "
                "max=%llu ns (queue depth p99=%llu)\n",
                static_cast<unsigned long long>(snap.request_latency_p50_ns()),
                static_cast<unsigned long long>(snap.request_latency_p99_ns()),
                static_cast<unsigned long long>(snap.request_latency_p999_ns()),
                static_cast<unsigned long long>(snap.request_latency.max()),
                static_cast<unsigned long long>(snap.queue_depth.quantile(0.99)));
  }
  if (snap.taxonomy.total_aborts() > 0 ||
      snap.taxonomy.count(si::obs::TaxonomyCounter::kSglFallback) > 0) {
    std::printf("si_serve: abort taxonomy:");
    for (int i = 0; i < si::obs::kTaxonomyCounters; ++i) {
      const auto tc = static_cast<si::obs::TaxonomyCounter>(i);
      const std::uint64_t n = snap.taxonomy.count(tc);
      if (n == 0) continue;
      std::printf(" %.*s=%llu",
                  static_cast<int>(si::obs::to_string(tc).size()),
                  si::obs::to_string(tc).data(),
                  static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
  if (service.config().durability.enabled()) {
    const si::serve::DurabilityStats d = service.durability_stats();
    std::printf("si_serve: wal appends=%llu bytes=%llu flushes=%llu "
                "fsyncs=%llu io-errors=%llu durable-lsn=%llu\n",
                static_cast<unsigned long long>(d.appends),
                static_cast<unsigned long long>(d.bytes),
                static_cast<unsigned long long>(d.flushes),
                static_cast<unsigned long long>(d.fsyncs),
                static_cast<unsigned long long>(d.io_errors),
                static_cast<unsigned long long>(d.durable_lsn));
    if (snap.durable_ack.count() > 0) {
      std::printf("si_serve: durable-ack latency p50=%llu p99=%llu ns "
                  "(%llu held acks released)\n",
                  static_cast<unsigned long long>(snap.durable_ack.quantile(0.50)),
                  static_cast<unsigned long long>(snap.durable_ack.quantile(0.99)),
                  static_cast<unsigned long long>(snap.durable_ack.count()));
    }
  }
  const auto aimd = service.aimd_state();
  if (service.config().aimd.enabled) {
    std::printf("si_serve: aimd watermark=%zu epochs=%llu raises=%llu "
                "cuts=%llu last-p99=%llu ns last-abort=%.1f%%\n",
                aimd.watermark, static_cast<unsigned long long>(aimd.epochs),
                static_cast<unsigned long long>(aimd.raises),
                static_cast<unsigned long long>(aimd.cuts),
                static_cast<unsigned long long>(aimd.last_p99_ns),
                aimd.last_abort_pct);
  }

  si::bench::JsonSink& sink = fe.sink;
  sink.set_backend(backend_name);
  if (sink.enabled()) {
    // Open-ended run: throughput is left 0 (no measured window); commits and
    // latency percentiles are the headline numbers.
    const auto rs = si::util::aggregate(service.runtime().thread_stats(), 0.0);
    si::bench::BenchRecord rec;
    rec.system = backend_name;
    rec.point = "serve";
    rec.threads = service.shards();
    rec.commits = rs.totals.commits;
    rec.abort_pct = rs.abort_pct();
    if (snap.request_latency.count() > 0) {
      rec.req_latency_p50_ns =
          static_cast<double>(snap.request_latency_p50_ns());
      rec.req_latency_p99_ns =
          static_cast<double>(snap.request_latency_p99_ns());
      rec.req_latency_p999_ns =
          static_cast<double>(snap.request_latency_p999_ns());
    }
    rec.sgl_sleep_wakeups =
        static_cast<std::int64_t>(rs.totals.sgl_sleep_wakeups);
    if (service.config().aimd.enabled) {
      rec.aimd_watermark = static_cast<std::int64_t>(aimd.watermark);
      rec.aimd_raises = static_cast<std::int64_t>(aimd.raises);
      rec.aimd_cuts = static_cast<std::int64_t>(aimd.cuts);
      rec.aimd_last_p99_ns = static_cast<double>(aimd.last_p99_ns);
    }
    sink.add(rec);
    sink.flush();
  }
  return c.failed == 0 ? 0 : 1;
}

/// Serves until SIGINT/SIGTERM on the multi-reactor epoll front end, then
/// drains and reports.
template <typename ServiceT>
int run_front_end(ServiceT& service, si::util::Cli& cli,
                  si::obs::Metrics& metrics, FrontEndOptions& fe) {
  const std::string& backend_name = fe.backend_name;
  si::serve::ReactorConfig rcfg = fe.reactor;
  si::obs::Metrics reactor_metrics(rcfg.reactors);
  rcfg.metrics = &reactor_metrics;

  si::serve::ReactorPool<ServiceT> pool(service, rcfg);
  std::string err;
  if (!pool.start(&err)) {
    std::fprintf(stderr, "si_serve: %s\n", err.c_str());
    return 2;
  }
  std::printf(
      "si_serve: listening on 127.0.0.1:%u (%s, %d shards, %d reactors)\n",
      pool.port(), backend_name.c_str(), service.shards(), pool.reactors());
  std::fflush(stdout);

  // The pool outlives service.stop() (three-phase drain below), so both the
  // epoch thread's front-end columns and the admin scrapes may read its
  // counters for the whole serving window.
  service.set_front_end_stats([&pool](std::uint64_t* conns,
                                      std::uint64_t* flushes,
                                      std::uint64_t* bytes_out) {
    const auto rs = pool.stats();
    *conns = rs.conns_accepted;
    *flushes = rs.flushes;
    *bytes_out = rs.bytes_out;
  });
  auto admin = start_admin(service, pool, cli, metrics, backend_name);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Three-phase drain (serve/reactor.hpp): quiesce reads, drain the service,
  // flush what is left and tear the reactors down.
  pool.drain_begin();
  service.stop();
  pool.finish();
  if (admin) admin->stop();  // after the drain, so a final scrape reconciles
  service.set_front_end_stats(nullptr);

  const auto rs = pool.stats();
  const auto rsnap = reactor_metrics.snapshot();
  std::printf(
      "si_serve: reactors completions=%llu inline-reads=%llu "
      "inline-updates=%llu wakeups=%llu flushes=%llu batch-p50=%llu "
      "flush-bytes-p50=%llu overflow-drops=%llu\n",
      static_cast<unsigned long long>(rs.completions),
      static_cast<unsigned long long>(rs.inline_reads),
      static_cast<unsigned long long>(rs.inline_updates),
      static_cast<unsigned long long>(rs.wakeups),
      static_cast<unsigned long long>(rs.flushes),
      static_cast<unsigned long long>(rsnap.reactor_batch.quantile(0.50)),
      static_cast<unsigned long long>(
          rsnap.reactor_flush_bytes.quantile(0.50)),
      static_cast<unsigned long long>(rs.overflow_drops));
  return report_run(service, metrics, fe, rs);
}

/// `-recover`: scan the shard logs, replay the trusted records into `app`
/// (DESIGN.md §14), and with `-recover-verify` run the replayed history
/// through the src/check SI verifier. Uses a private single-thread runtime
/// so the replay neither pollutes the serving metrics nor needs the Service
/// up. Returns 0 when the replay (and the verifier, if asked) is clean.
template <typename App>
int run_recovery(App& app, const si::serve::ServiceConfig& scfg,
                 si::util::Cli& cli) {
  const std::string dir = cli.get("log-dir", "");
  si::runtime::RuntimeConfig rcfg = scfg.runtime;
  rcfg.max_threads = 1;
  rcfg.obs = {};
  std::unique_ptr<si::check::HistoryRecorder> recorder;
  if (cli.has("recover-verify")) {
    recorder = std::make_unique<si::check::HistoryRecorder>(1);
    rcfg.recorder = recorder.get();
  }
  si::runtime::Runtime rt(rcfg);
  const si::durability::RecoveryReport rep =
      si::durability::recover_into(app, rt, dir);
  if (!rep.ok) {
    std::fprintf(stderr, "si_serve: recovery failed: %s\n", rep.error.c_str());
    return 3;
  }
  for (const si::durability::ShardScan& s : rep.scans) {
    std::printf("si_serve: recover %s: records=%zu last-lsn=%llu "
                "torn-bytes=%zu%s\n",
                s.path.c_str(), s.scan.records.size(),
                static_cast<unsigned long long>(s.scan.last_lsn),
                s.scan.torn_bytes,
                s.scan.end == si::durability::ScanEnd::kLsnGap
                    ? " (lsn gap)" : "");
  }
  std::printf("si_serve: recovery replayed=%llu failed=%llu shards=%u "
              "torn-bytes=%llu\n",
              static_cast<unsigned long long>(rep.replayed),
              static_cast<unsigned long long>(rep.failed),
              rep.shards, static_cast<unsigned long long>(rep.torn_bytes));
  if (rep.failed != 0) {
    std::fprintf(stderr, "si_serve: recovery replay had failures\n");
    return 3;
  }
  if (recorder != nullptr) {
    const auto result = si::check::verify_si(recorder->merged());
    std::printf("si_serve: %s\n", si::check::describe(result).c_str());
    if (!result.ok()) return 4;
  }
  std::fflush(stdout);
  return 0;
}

/// Shared tail of main(): optional recovery into the freshly seeded app,
/// then (unless -recover-only) the service + front end.
template <typename App>
int serve_app(App& app, si::serve::ServiceConfig& scfg, si::util::Cli& cli,
              si::obs::Metrics& metrics, FrontEndOptions& fe) {
  if (cli.has("recover") || cli.has("recover-only")) {
    const int rc = run_recovery(app, scfg, cli);
    if (rc != 0 || cli.has("recover-only")) return rc;
  }
  try {
    si::serve::Service<App> service(app, scfg);
    if (scfg.durability.enabled()) {
      std::printf("si_serve: durability %s dir=%s\n",
                  si::durability::to_string(scfg.durability.mode),
                  scfg.durability.dir.c_str());
      std::fflush(stdout);
    }
    return run_front_end(service, cli, metrics, fe);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "si_serve: %s\n", e.what());
    return 2;
  }
}

int run(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    usage(argv[0]);
    return 0;
  }

  si::serve::ServiceConfig scfg;
  try {
    scfg.runtime.backend =
        si::runtime::backend_from_string(cli.get("backend", "si-htm"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }
  const std::string workload = cli.get("workload", "hashmap");
  if (workload != "hashmap" && workload != "map" && workload != "tpcc") {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    usage(argv[0]);
    return 2;
  }
  scfg.shards = static_cast<int>(cli.get_int("shards", 2));
  scfg.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 1024));
  scfg.admit_watermark =
      static_cast<std::size_t>(cli.get_int("watermark", 0));
  scfg.batch_max = static_cast<std::size_t>(cli.get_int("batch", 32));
  scfg.aimd.enabled = cli.has("adaptive");
  scfg.aimd.target_p99_ns =
      static_cast<std::uint64_t>(cli.get_int("target-p99-us", 1000)) * 1000;
  scfg.aimd.epoch_us =
      static_cast<std::uint32_t>(cli.get_int("aimd-epoch-us", 5000));
  scfg.aimd.wakeup_cut_per_epoch =
      static_cast<std::uint64_t>(cli.get_int("aimd-wakeup-cut", 0));
  FrontEndOptions fe;
  fe.reactor.reactors = static_cast<int>(cli.get_int("reactors", 2));
  if (fe.reactor.reactors < 1) fe.reactor.reactors = 1;
  fe.reactor.port = static_cast<std::uint16_t>(cli.get_int("port", 7070));
  fe.reactor.max_outbuf = static_cast<std::size_t>(
      cli.get_int("max-outbuf", 4 * 1024 * 1024));
  fe.sink = si::bench::JsonSink::from_cli(cli, "si_serve");
  // One tid per shard worker plus one per reactor: each reactor serves point
  // reads inline on a tid of its own (Service::attach_reader).
  scfg.runtime.max_threads = scfg.shards + fe.reactor.reactors;
  scfg.runtime.retry_budget.enabled = cli.has("adaptive-retries");
  // The admin endpoint is useless without the epoch aggregator behind it, so
  // -admin-port implies telemetry (and with it a private metrics sink).
  if (cli.get_int("admin-port", -1) >= 0) {
    scfg.telemetry.enabled = true;
    scfg.telemetry.epoch_us =
        static_cast<std::uint32_t>(cli.get_int("series-epoch-ms", 250)) * 1000;
    scfg.telemetry.ring =
        static_cast<std::size_t>(cli.get_int("series-ring", 256));
  }

  // Durability tier (DESIGN.md §14).
  if (!si::durability::mode_from_string(cli.get("durability", "off"),
                                        &scfg.durability.mode)) {
    std::fprintf(stderr, "unknown durability mode: %s\n",
                 cli.get("durability", "off").c_str());
    usage(argv[0]);
    return 2;
  }
  scfg.durability.dir = cli.get("log-dir", "");
  const bool wants_recovery = cli.has("recover") || cli.has("recover-only");
  if ((scfg.durability.enabled() || wants_recovery) &&
      scfg.durability.dir.empty()) {
    std::fprintf(stderr, "si_serve: -durability/-recover require -log-dir\n");
    return 2;
  }
  if ((scfg.durability.enabled() || wants_recovery) && workload == "tpcc") {
    // TpccApp::logged_op is false for every opcode: kSampled draws its
    // parameters from a per-thread RNG, so a log replay could not reproduce
    // the crashed run. Refuse rather than gate nothing.
    std::fprintf(stderr,
                 "si_serve: -durability/-recover not supported for tpcc\n");
    return 2;
  }

  si::obs::Metrics metrics(scfg.runtime.max_threads);
  scfg.runtime.obs.metrics = &metrics;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  fe.backend_name = si::runtime::to_string(scfg.runtime.backend);
  if (workload == "hashmap") {
    si::serve::KvAppConfig acfg;
    acfg.buckets = static_cast<std::size_t>(cli.get_int("buckets", 1000));
    acfg.seed_elements =
        static_cast<std::uint64_t>(cli.get_int("elements", 20000));
    acfg.key_space = acfg.seed_elements * 2;
    si::serve::KvApp app(acfg, scfg.shards);
    return serve_app(app, scfg, cli, metrics, fe);
  }

  if (workload == "map") {
    si::serve::MapAppConfig acfg;
    acfg.seed_elements =
        static_cast<std::uint64_t>(cli.get_int("elements", 20000));
    acfg.key_space = acfg.seed_elements * 2;
    acfg.scan_cap = static_cast<std::size_t>(cli.get_int("scan-cap", 128));
    si::maps::Struct st;
    try {
      st = si::maps::struct_from_string(cli.get("struct", "skiplist"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
      return 2;
    }
    auto serve_map = [&](auto map_tag) {
      using Map = typename decltype(map_tag)::type;
      si::serve::MapApp<Map> app(acfg, scfg.shards);
      return serve_app(app, scfg, cli, metrics, fe);
    };
    switch (st) {
      case si::maps::Struct::kSkiplist:
        return serve_map(std::type_identity<si::maps::SkipList>{});
      case si::maps::Struct::kBst:
        return serve_map(std::type_identity<si::maps::Bst>{});
      case si::maps::Struct::kBtree:
        return serve_map(std::type_identity<si::maps::Btree>{});
    }
    return 2;  // unreachable
  }

  si::tpcc::DbConfig dcfg;
  dcfg.warehouses = static_cast<int>(cli.get_int("warehouses", 2));
  dcfg.items = 1000;
  dcfg.customers_per_district = 300;
  dcfg.initial_orders_per_district = 200;
  dcfg.order_ring_bits = 10;
  si::serve::TpccApp app(dcfg, si::tpcc::Mix::standard(), scfg.shards);
  return serve_app(app, scfg, cli, metrics, fe);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {  // a value flag without a value
    std::fprintf(stderr, "si_serve: %s\n", e.what());
    usage(argv[0]);
    return 2;
  }
}
