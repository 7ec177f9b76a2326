// Live telemetry plane (DESIGN.md §13): histogram window edge cases, the
// abort-taxonomy counters, the epoch aggregator and its reconciliation
// invariant, the /metrics and /series renderers, the admin HTTP endpoint,
// trace/live taxonomy parity, and the obs-equivalence guarantee extended to
// the metrics hooks.
#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "hashmap/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/taxonomy.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/kv_app.hpp"
#include "serve/net.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"
#include "util/histogram.hpp"
#include "util/json_parse.hpp"
#include "util/stats.hpp"

namespace {

using si::obs::EpochAggregator;
using si::obs::EpochExternals;
using si::obs::kTaxonomyCounters;
using si::obs::MetricsSnapshot;
using si::obs::Taxonomy;
using si::obs::TaxonomyCounter;
using si::obs::taxonomy_of;
using si::obs::TimeSeries;
using si::util::AbortCause;
using si::util::Histogram;

// --- histogram window edge cases (the aggregator's diffing primitive) --------

TEST(HistogramWindow, QuantileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(0.999), 0u);
}

TEST(HistogramWindow, SubtractLeavesTheWindow) {
  Histogram earlier;
  for (int i = 0; i < 100; ++i) earlier.record(100);
  Histogram cum = earlier;
  for (int i = 0; i < 50; ++i) cum.record(100000);
  cum.subtract(earlier);
  EXPECT_EQ(cum.count(), 50u);
  // Only the window's large samples remain, so even p50 sits at their scale.
  EXPECT_GE(cum.quantile(0.5), 100000u);
}

TEST(HistogramWindow, SubtractRegressedBucketsSaturates) {
  // A torn snapshot pair can present an "earlier" with more counts than
  // "current"; the subtraction must clamp at zero, never wrap.
  Histogram earlier;
  for (int i = 0; i < 10; ++i) earlier.record(64);
  Histogram cum;
  cum.record(64);
  cum.subtract(earlier);
  EXPECT_EQ(cum.count(), 0u);
  EXPECT_EQ(cum.quantile(0.99), 0u);
}

TEST(HistogramWindow, SubtractEqualSnapshotsIsEmpty) {
  Histogram a;
  for (int i = 1; i <= 32; ++i) a.record(static_cast<std::uint64_t>(i) * 7);
  Histogram b = a;
  b.subtract(a);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.quantile(0.5), 0u);
}

// --- taxonomy ----------------------------------------------------------------

TEST(TaxonomyTest, AbortCausePartitionIsTotal) {
  EXPECT_EQ(taxonomy_of(AbortCause::kCapacity), TaxonomyCounter::kCapacityAbort);
  EXPECT_EQ(taxonomy_of(AbortCause::kConflictRead),
            TaxonomyCounter::kConflictAbort);
  EXPECT_EQ(taxonomy_of(AbortCause::kConflictWrite),
            TaxonomyCounter::kConflictAbort);
  EXPECT_EQ(taxonomy_of(AbortCause::kKilledAsStraggler),
            TaxonomyCounter::kStragglerKill);
  EXPECT_EQ(taxonomy_of(AbortCause::kKilledBySgl), TaxonomyCounter::kSglKill);
  EXPECT_EQ(taxonomy_of(AbortCause::kExplicit), TaxonomyCounter::kExplicitAbort);
}

TEST(TaxonomyTest, TotalAbortsCountsOnlyTheAbortPartition) {
  Taxonomy t;
  t.bump(TaxonomyCounter::kCapacityAbort, 3);
  t.bump(TaxonomyCounter::kConflictAbort, 2);
  t.bump(TaxonomyCounter::kSglFallback, 7);    // fall-back, not an abort
  t.bump(TaxonomyCounter::kSharedRoAdmit, 5);  // adaptation, not an abort
  t.bump(TaxonomyCounter::kHwKillInit, 4);     // killer side, not an abort
  EXPECT_EQ(t.total_aborts(), 5u);
  EXPECT_EQ(t.count(TaxonomyCounter::kSglFallback), 7u);
}

TEST(TaxonomyTest, MergeAddsAndSubtractSaturates) {
  Taxonomy a, b;
  a.bump(TaxonomyCounter::kConflictAbort, 10);
  b.bump(TaxonomyCounter::kConflictAbort, 4);
  b.bump(TaxonomyCounter::kCapacityAbort, 9);

  Taxonomy merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(TaxonomyCounter::kConflictAbort), 14u);
  EXPECT_EQ(merged.count(TaxonomyCounter::kCapacityAbort), 9u);

  Taxonomy window = a;
  window.subtract(b);  // capacity regresses (0 - 9): clamps, no wrap
  EXPECT_EQ(window.count(TaxonomyCounter::kConflictAbort), 6u);
  EXPECT_EQ(window.count(TaxonomyCounter::kCapacityAbort), 0u);
}

TEST(TaxonomyTest, MetricsResetClearsTaxonomyAndHistograms) {
  si::obs::Metrics m(2);
  m.of(0).taxonomy.bump(TaxonomyCounter::kCapacityAbort);
  m.of(1).taxonomy.bump(TaxonomyCounter::kSglFallback, 3);
  m.of(0).request_latency.record(1234);
  ASSERT_EQ(m.snapshot().taxonomy.count(TaxonomyCounter::kSglFallback), 3u);

  m.reset();
  const MetricsSnapshot s = m.snapshot();
  for (int i = 0; i < kTaxonomyCounters; ++i) EXPECT_EQ(s.taxonomy.count(i), 0u);
  EXPECT_EQ(s.request_latency.count(), 0u);
}

TEST(MetricsSnapshotTest, P999AccessorsTrackTheTail) {
  si::obs::Metrics m(1);
  for (int i = 0; i < 999; ++i) m.of(0).request_latency.record(100);
  m.of(0).request_latency.record(1'000'000);
  for (int i = 0; i < 999; ++i) m.of(0).safety_wait.record(50);
  m.of(0).safety_wait.record(500'000);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_GE(s.request_latency_p999_ns(), 1'000'000u);
  EXPECT_LT(s.request_latency_p50_ns(), 1000u);
  EXPECT_GE(s.safety_wait_p999_ns(), 500'000u);
  EXPECT_GE(s.safety_wait_p999_ns(), s.safety_wait_p99_ns());
}

// --- epoch aggregator --------------------------------------------------------

TEST(EpochAggregatorTest, ScriptedSequenceDiffsCumulatives) {
  TimeSeries series(8);
  EpochAggregator agg(&series);

  si::obs::Metrics m(1);
  EpochExternals ext;

  // Epoch 0: 10 requests completed, 10 commits, 2 conflict aborts.
  for (int i = 0; i < 10; ++i) m.of(0).request_latency.record(1000);
  for (int i = 0; i < 10; ++i) m.of(0).commit_latency.record(500);
  m.of(0).taxonomy.bump(TaxonomyCounter::kConflictAbort, 2);
  ext.now_s = 1.0;
  ext.completed = 10;
  ext.accepted = 12;
  ext.rejected = 2;
  ext.watermark = 64;
  const auto r0 = agg.on_epoch(m.snapshot(), ext);
  EXPECT_EQ(r0.seq, 0u);
  EXPECT_DOUBLE_EQ(r0.dt_s, 1.0);
  EXPECT_EQ(r0.completed, 10u);
  EXPECT_EQ(r0.accepted, 12u);
  EXPECT_EQ(r0.rejected, 2u);
  EXPECT_DOUBLE_EQ(r0.goodput, 10.0);
  EXPECT_EQ(r0.commits, 10u);
  EXPECT_EQ(r0.aborts[static_cast<int>(TaxonomyCounter::kConflictAbort)], 2u);
  EXPECT_EQ(r0.watermark, 64u);

  // Epoch 1: 5 more completions, 1 capacity abort, slower requests.
  for (int i = 0; i < 5; ++i) m.of(0).request_latency.record(100000);
  for (int i = 0; i < 5; ++i) m.of(0).commit_latency.record(500);
  m.of(0).taxonomy.bump(TaxonomyCounter::kCapacityAbort);
  ext.now_s = 1.5;
  ext.completed = 15;
  ext.accepted = 17;
  const auto r1 = agg.on_epoch(m.snapshot(), ext);
  EXPECT_EQ(r1.seq, 1u);
  EXPECT_DOUBLE_EQ(r1.dt_s, 0.5);
  EXPECT_EQ(r1.completed, 5u);
  EXPECT_DOUBLE_EQ(r1.goodput, 10.0);
  EXPECT_EQ(r1.commits, 5u);
  EXPECT_EQ(r1.aborts[static_cast<int>(TaxonomyCounter::kConflictAbort)], 0u);
  EXPECT_EQ(r1.aborts[static_cast<int>(TaxonomyCounter::kCapacityAbort)], 1u);
  // The window saw only this epoch's slow requests.
  EXPECT_GE(r1.req_p50_ns, 100000u);

  // Epoch 2: idle tick — all deltas zero, quantiles zero on an empty window.
  ext.now_s = 2.0;
  const auto r2 = agg.on_epoch(m.snapshot(), ext);
  EXPECT_EQ(r2.completed, 0u);
  EXPECT_EQ(r2.commits, 0u);
  EXPECT_EQ(r2.req_p50_ns, 0u);
  EXPECT_DOUBLE_EQ(r2.goodput, 0.0);

  // Reconciliation: the per-epoch deltas sum to the final cumulative count.
  EXPECT_EQ(series.epochs(), 3u);
  EXPECT_EQ(series.completed_total(), 15u);
}

TEST(EpochAggregatorTest, RingWrapKeepsReconciliationTotals) {
  TimeSeries series(2);
  EpochAggregator agg(&series);
  si::obs::Metrics m(1);
  EpochExternals ext;
  for (int e = 1; e <= 5; ++e) {
    ext.now_s = static_cast<double>(e);
    ext.completed = static_cast<std::uint64_t>(e) * 10;
    agg.on_epoch(m.snapshot(), ext);
  }
  EXPECT_EQ(series.dump().size(), 2u);       // ring kept only the newest two
  EXPECT_EQ(series.epochs(), 5u);            // ...but the totals cover all five
  EXPECT_EQ(series.completed_total(), 50u);  // == final cumulative completed
  const auto recs = series.dump();
  EXPECT_EQ(recs.front().seq + 1, recs.back().seq);  // oldest-first order
}

TEST(EpochAggregatorTest, ResetRebaselines) {
  TimeSeries series(4);
  EpochAggregator agg(&series);
  si::obs::Metrics m(1);
  EpochExternals ext;
  ext.now_s = 1.0;
  ext.completed = 100;
  agg.on_epoch(m.snapshot(), ext);
  agg.reset();
  EXPECT_EQ(series.epochs(), 0u);
  ext.now_s = 2.0;
  ext.completed = 130;
  const auto r = agg.on_epoch(m.snapshot(), ext);
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(r.completed, 130u);  // diffs against zero after the re-baseline
}

// --- renderers ---------------------------------------------------------------

si::serve::TelemetrySources scripted_sources(const MetricsSnapshot* snap,
                                             const TimeSeries* series) {
  si::serve::TelemetrySources src;
  src.snap = snap;
  src.counters.accepted = 120;
  src.counters.completed = 100;
  src.counters.failed = 1;
  src.counters.rejected_busy = 17;
  src.counters.rejected_full = 2;
  src.counters.rejected_stopped = 1;
  src.series = series;
  src.backend = "SI-HTM";
  src.shards = 2;
  src.uptime_s = 3.5;
  return src;
}

TEST(RendererTest, PrometheusExpositionShape) {
  si::obs::Metrics m(1);
  m.of(0).request_latency.record(1000);
  m.of(0).commit_latency.record(400);
  m.of(0).taxonomy.bump(TaxonomyCounter::kCapacityAbort, 5);
  const MetricsSnapshot snap = m.snapshot();
  TimeSeries series(4);
  si::obs::EpochRecord rec;
  rec.completed = 100;
  series.push(rec);

  const std::string text =
      si::serve::render_prometheus(scripted_sources(&snap, &series));

  // Every family: HELP, then TYPE, then samples — in that order.
  EXPECT_LT(text.find("# HELP si_requests_completed_total"),
            text.find("# TYPE si_requests_completed_total counter"));
  EXPECT_LT(text.find("# TYPE si_requests_completed_total counter"),
            text.find("si_requests_completed_total 100"));
  EXPECT_NE(text.find("si_requests_rejected_total{reason=\"busy\"} 17"),
            std::string::npos);
  EXPECT_NE(text.find("si_tx_commits_total 1"), std::string::npos);
  EXPECT_NE(text.find("si_tx_aborts_total{cause=\"capacity_abort\"} 5"),
            std::string::npos);
  // All nine taxonomy labels appear, even at zero.
  for (int i = 0; i < kTaxonomyCounters; ++i) {
    const std::string label = "si_tx_aborts_total{cause=\"" +
                              std::string(si::obs::metric_name(
                                  static_cast<TaxonomyCounter>(i))) +
                              "\"}";
    EXPECT_NE(text.find(label), std::string::npos) << label;
  }
  EXPECT_NE(text.find("si_request_latency_ns{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("si_request_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("si_series_completed_total 100"), std::string::npos);
  // AIMD off, no reactor: those families are absent, and nothing renders NaN.
  EXPECT_EQ(text.find("si_admission_watermark"), std::string::npos);
  EXPECT_EQ(text.find("si_reactor_"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(RendererTest, SeriesJsonRoundTripsThroughTheParser) {
  si::obs::Metrics m(1);
  for (int i = 0; i < 4; ++i) m.of(0).request_latency.record(2000);
  const MetricsSnapshot snap = m.snapshot();

  TimeSeries series(4);
  EpochAggregator agg(&series);
  EpochExternals ext;
  ext.now_s = 1.0;
  ext.completed = 4;
  ext.accepted = 4;
  ext.watermark = 32;
  agg.on_epoch(snap, ext);

  const std::string json =
      si::serve::render_series_json(scripted_sources(&snap, &series));
  si::util::JsonValue root;
  std::string err;
  ASSERT_TRUE(si::util::json_parse(json, &root, &err)) << err;
  EXPECT_EQ(root["schema"].string, "si-series-v1");
  EXPECT_EQ(root["backend"].string, "SI-HTM");
  EXPECT_EQ(root["counters"]["completed"].u64_or(0), 100u);
  EXPECT_EQ(root["series_totals"]["completed"].u64_or(0), 4u);
  ASSERT_EQ(root["epochs"].array.size(), 1u);
  const auto& e0 = root["epochs"].array[0];
  EXPECT_EQ(e0["seq"].u64_or(99), 0u);
  EXPECT_EQ(e0["completed"].u64_or(0), 4u);
  EXPECT_EQ(e0["watermark"].u64_or(0), 32u);
  EXPECT_TRUE(e0["aborts"].is_object());
  EXPECT_EQ(e0["aborts"]["conflict_abort"].u64_or(99), 0u);
  // No AIMD/reactor sections were supplied, so they must be absent.
  EXPECT_FALSE(root["aimd"].is_object());
  EXPECT_FALSE(root["reactor"].is_object());
}

// The reactor's inline counters reach both routes: /metrics families and
// the /series reactor object.
TEST(RendererTest, ReactorInlineCountersReachBothRoutes) {
  si::obs::Metrics m(1);
  const MetricsSnapshot snap = m.snapshot();
  TimeSeries series(4);
  si::serve::ReactorStats rs;
  rs.inline_reads = 11;
  rs.inline_updates = 7;
  si::serve::TelemetrySources src = scripted_sources(&snap, &series);
  src.reactor = &rs;

  const std::string text = si::serve::render_prometheus(src);
  EXPECT_NE(text.find("# TYPE si_reactor_inline_updates_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("\nsi_reactor_inline_updates_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nsi_reactor_inline_reads_total 11\n"),
            std::string::npos);

  si::util::JsonValue root;
  std::string err;
  ASSERT_TRUE(si::util::json_parse(si::serve::render_series_json(src), &root,
                                   &err))
      << err;
  EXPECT_EQ(root["reactor"]["inline_updates"].u64_or(0), 7u);
  EXPECT_EQ(root["reactor"]["inline_reads"].u64_or(0), 11u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  si::util::JsonValue v;
  EXPECT_FALSE(si::util::json_parse("{\"a\": }", &v));
  EXPECT_FALSE(si::util::json_parse("[1,2", &v));
  EXPECT_FALSE(si::util::json_parse("{} trailing", &v));
  EXPECT_TRUE(si::util::json_parse(" {\"a\": [1, -2.5e3, \"x\\n\"]} ", &v));
  EXPECT_DOUBLE_EQ(v["a"].array[1].num_or(0), -2500.0);
}

// --- admin endpoint ----------------------------------------------------------

std::string blocking_get(std::uint16_t port, const std::string& request) {
  std::string err;
  const int fd = si::serve::net::connect_tcp("127.0.0.1", port, &err);
  EXPECT_GE(fd, 0) << err;
  if (fd < 0) return {};
  EXPECT_TRUE(si::serve::net::send_all(fd, request.data(), request.size()));
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  return raw;
}

TEST(AdminServerTest, ServesRegisteredRoutes) {
  si::serve::AdminServer admin(0);  // ephemeral port
  admin.handle("/metrics", "text/plain; version=0.0.4",
               [] { return std::string("si_up 1\n"); });
  admin.handle("/series", "application/json",
               [] { return std::string("{\"schema\":\"si-series-v1\"}"); });
  std::string err;
  ASSERT_TRUE(admin.start(&err)) << err;
  ASSERT_GT(admin.port(), 0);

  const std::string metrics =
      blocking_get(admin.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("\r\n\r\nsi_up 1\n"), std::string::npos);

  // Query strings strip; the handler still matches.
  const std::string series = blocking_get(
      admin.port(), "GET /series?window=5 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(series.find("si-series-v1"), std::string::npos);

  const std::string missing =
      blocking_get(admin.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post =
      blocking_get(admin.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  admin.stop();
}

// --- service integration -----------------------------------------------------

TEST(ServiceTelemetryTest, SeriesReconcilesWithCountersAfterDrain) {
  si::serve::KvAppConfig acfg;
  acfg.buckets = 64;
  acfg.seed_elements = 500;
  acfg.key_space = 1000;
  si::serve::ServiceConfig scfg;
  scfg.shards = 2;
  scfg.telemetry.enabled = true;
  scfg.telemetry.epoch_us = 1000;  // tick fast so mid-run epochs land too
  scfg.telemetry.ring = 16;

  constexpr std::uint64_t kRequests = 400;
  std::uint64_t completed_calls = 0;
  {
    si::serve::KvApp app(acfg, scfg.shards);
    si::serve::Service<si::serve::KvApp> service(app, scfg);
    ASSERT_NE(service.timeseries(), nullptr);
    ASSERT_NE(service.metrics(), nullptr);  // telemetry forced a private sink

    for (std::uint64_t i = 0; i < kRequests; ++i) {
      si::serve::Request req;
      req.id = i;
      req.op = (i % 3 == 0) ? si::serve::KvApp::kPut : si::serve::KvApp::kGet;
      req.key = i % acfg.key_space;
      req.arg = i;
      req.ro = si::serve::KvApp::is_ro(req.op);
      si::serve::Response resp;
      if (service.call(req, &resp)) ++completed_calls;
    }
    service.stop();

    const auto c = service.counters();
    EXPECT_EQ(c.completed, completed_calls);
    // The final drain epoch (pushed by stop()) closes the books exactly.
    EXPECT_EQ(service.timeseries()->completed_total(), c.completed);
    EXPECT_GE(service.timeseries()->epochs(), 1u);

    // A full scrape of the live objects parses and carries the same totals.
    const MetricsSnapshot snap = service.metrics()->snapshot();
    si::serve::TelemetrySources src;
    src.snap = &snap;
    src.counters = c;
    src.series = service.timeseries();
    src.backend = "SI-HTM";
    src.shards = scfg.shards;
    src.uptime_s = 1.0;
    si::util::JsonValue root;
    std::string err;
    ASSERT_TRUE(
        si::util::json_parse(si::serve::render_series_json(src), &root, &err))
        << err;
    EXPECT_EQ(root["series_totals"]["completed"].u64_or(0), c.completed);
    EXPECT_EQ(snap.request_latency.count(), c.completed);
  }
  EXPECT_EQ(completed_calls, kRequests);
}

// --- trace/live parity and sim equivalence -----------------------------------

#define SKIP_IF_TRACE_COMPILED_OUT()         \
  if (!si::obs::kTraceEnabled) {             \
    GTEST_SKIP() << "built with SI_TRACE=0"; \
  }

struct SimObsRun {
  std::string chrome;
  std::uint64_t commits = 0;
  MetricsSnapshot metrics;
  std::array<std::uint64_t, si::obs::kTaxonomyCounters> trace_taxonomy{};
  std::uint64_t dropped = 0;
};

/// Contended sim hash-map run with the given sinks attached. Deterministic:
/// same arguments → byte-identical trace and identical counters.
SimObsRun run_sim(bool with_tracer, bool with_metrics, int threads = 4,
                  double virtual_ns = 3e5) {
  SimObsRun out;
  si::obs::Tracer tracer(threads, 1u << 16);  // big enough to never drop
  si::obs::Metrics metrics(threads);
  si::obs::ObsConfig obs;
  if (with_tracer) obs.tracer = &tracer;
  if (with_metrics) obs.metrics = &metrics;
  si::sim::SimEngine eng(si::sim::SimMachineConfig{}, threads);
  si::sim::SimSiHtm cc(eng, {.obs = obs});
  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 8;  // small table: plenty of conflicts and SGL traffic
  wcfg.avg_chain = 16;
  wcfg.ro_pct = 20;
  si::hashmap::Workload workload(wcfg, threads);
  const auto rs = eng.run(virtual_ns, [&](int tid) { workload.step(cc, tid); });
  out.commits = rs.totals.commits;
  std::ostringstream os;
  si::obs::write_chrome_trace(os, tracer);
  out.chrome = os.str();
  out.metrics = metrics.snapshot();
  const auto summary = si::obs::summarize_trace(tracer);
  out.trace_taxonomy = summary.taxonomy;
  for (int t = 0; t < threads; ++t) out.dropped += tracer.dropped(t);
  return out;
}

TEST(TaxonomyParityTest, TraceSummaryMatchesLiveMetrics) {
  SKIP_IF_TRACE_COMPILED_OUT();
  const auto run = run_sim(/*with_tracer=*/true, /*with_metrics=*/true);
  ASSERT_EQ(run.dropped, 0u) << "ring too small for parity comparison";
  EXPECT_GT(run.commits, 0u);
  // The contended table must actually exercise the abort machinery,
  // otherwise this parity check is vacuous.
  EXPECT_GT(run.metrics.taxonomy.total_aborts(), 0u);

  // Trace-derivable counters agree exactly between the offline summary and
  // the live metrics surface. shared-ro-admit and retry-clamp are
  // metrics-only hooks (no trace event by design) and are excluded.
  const std::vector<TaxonomyCounter> derivable = {
      TaxonomyCounter::kCapacityAbort, TaxonomyCounter::kConflictAbort,
      TaxonomyCounter::kStragglerKill, TaxonomyCounter::kSglKill,
      TaxonomyCounter::kExplicitAbort, TaxonomyCounter::kSglFallback,
      TaxonomyCounter::kHwKillInit,
  };
  for (const TaxonomyCounter c : derivable) {
    EXPECT_EQ(run.trace_taxonomy[static_cast<int>(c)],
              run.metrics.taxonomy.count(c))
        << si::obs::to_string(c);
  }
  // The metrics-only counters never show up in a trace summary.
  EXPECT_EQ(run.trace_taxonomy[static_cast<int>(TaxonomyCounter::kSharedRoAdmit)],
            0u);
  EXPECT_EQ(run.trace_taxonomy[static_cast<int>(TaxonomyCounter::kRetryClamp)],
            0u);
}

TEST(TelemetryEquivalenceTest, MetricsHooksDoNotChangeSimOutcome) {
  SKIP_IF_TRACE_COMPILED_OUT();
  // The taxonomy/metrics hooks are pure bookkeeping: attaching the metrics
  // sink must leave the simulated schedule — and therefore the emitted
  // trace — byte-identical to a tracer-only run.
  const auto traced_only = run_sim(/*with_tracer=*/true, /*with_metrics=*/false);
  const auto both = run_sim(/*with_tracer=*/true, /*with_metrics=*/true);
  EXPECT_GT(traced_only.commits, 0u);
  EXPECT_EQ(traced_only.commits, both.commits);
  EXPECT_EQ(traced_only.chrome, both.chrome);
  // And the sink actually recorded while changing nothing.
  EXPECT_EQ(both.metrics.commit_latency.count(), both.commits);
  EXPECT_EQ(traced_only.metrics.commit_latency.count(), 0u);
}

TEST(TraceSummaryTest, PrintSummaryListsTaxonomy) {
  SKIP_IF_TRACE_COMPILED_OUT();
  si::obs::Tracer tracer(1, 64);
  tracer.emit(0, si::obs::TraceEventKind::kBegin, 1.0);
  tracer.emit(0, si::obs::TraceEventKind::kAbort, 2.0,
              static_cast<std::uint32_t>(AbortCause::kCapacity));
  tracer.emit(0, si::obs::TraceEventKind::kBegin, 3.0);
  tracer.emit(0, si::obs::TraceEventKind::kSglAcquire, 4.0);
  tracer.emit(0, si::obs::TraceEventKind::kCommit, 5.0, 2);
  const auto summary = si::obs::summarize_trace(tracer);
  EXPECT_EQ(
      summary.taxonomy[static_cast<int>(TaxonomyCounter::kCapacityAbort)], 1u);
  EXPECT_EQ(summary.taxonomy[static_cast<int>(TaxonomyCounter::kSglFallback)],
            1u);
  std::ostringstream os;
  si::obs::print_summary(os, summary);
  EXPECT_NE(os.str().find("abort taxonomy (live-endpoint labels):"),
            std::string::npos);
  EXPECT_NE(os.str().find("capacity-abort: 1"), std::string::npos);
  EXPECT_NE(os.str().find("sgl-fallback: 1"), std::string::npos);
}

}  // namespace
