// Tests of the serving layer (src/serve): queue admission and ordering,
// an in-process mixed burst over the real backends, backpressure shedding,
// request telemetry, and an SI-checked recorded serve run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/verify.hpp"
#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/maps.hpp"
#include "maps/skiplist.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "serve/aimd.hpp"
#include "serve/kv_app.hpp"
#include "serve/map_app.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace si::serve;

Request make_req(std::uint64_t id, std::uint16_t op = KvApp::kGet,
                 std::uint64_t key = 0, std::uint64_t arg = 0) {
  Request r;
  r.id = id;
  r.op = op;
  r.key = key;
  r.arg = arg;
  r.ro = KvApp::is_ro(op);
  return r;
}

void count_completion(void* ctx, const Response&) {
  static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(
      1, std::memory_order_relaxed);
}

TEST(KvAppPreload, MatchesSequentialDrawModel) {
  // The preload draws the value first, then the key, and prepends; so every
  // key's lookup sees its last draw and nothing else is present.
  KvAppConfig cfg;
  cfg.buckets = 64;
  cfg.seed_elements = 3000;
  cfg.key_space = 1000;
  cfg.seed = 7;
  KvApp app(cfg, 1);

  si::util::Xoshiro256 rng(cfg.seed);
  std::vector<std::uint64_t> last(cfg.key_space, 0);
  std::vector<bool> present(cfg.key_space, false);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < cfg.seed_elements; ++i) {
    const std::uint64_t value = rng();
    const std::uint64_t key = rng.below(cfg.key_space);
    last[key] = value;
    present[key] = true;
    sum += value;
  }
  EXPECT_EQ(app.map().count(), cfg.seed_elements);
  EXPECT_EQ(app.map().value_sum(), sum);
  si::maps::DirectTx tx;
  for (std::uint64_t key = 0; key < cfg.key_space; ++key) {
    std::uint64_t got = 0;
    ASSERT_EQ(app.map().lookup(tx, key, &got), present[key]) << "key " << key;
    if (present[key]) {
      ASSERT_EQ(got, last[key]) << "key " << key;
    }
  }
}

TEST(ServeQueue, FifoSingleThreaded) {
  RequestQueue q(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.try_push(make_req(i)), Admit::kAccepted);
  }
  EXPECT_EQ(q.approx_depth(), 10u);

  Request out[16];
  const std::size_t n = q.pop_batch(out, 16);
  ASSERT_EQ(n, 10u);
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(out[i].id, i);
  EXPECT_TRUE(q.empty());
}

TEST(ServeQueue, WatermarkRejectsBeforeCapacity) {
  RequestQueue q(8, 4);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.watermark(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.try_push(make_req(i)), Admit::kAccepted);
  }
  // Admission control refuses at the watermark even though cells remain.
  EXPECT_EQ(q.try_push(make_req(99)), Admit::kBusy);

  Request out[8];
  EXPECT_EQ(q.pop_batch(out, 8), 4u);
  // Draining reopens admission.
  EXPECT_EQ(q.try_push(make_req(100)), Admit::kAccepted);
}

TEST(ServeQueue, CapacityRoundsUpAndBoundsDepth) {
  RequestQueue q(5);  // rounded up to 8; watermark defaults to capacity
  EXPECT_EQ(q.capacity(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(q.try_push(make_req(i)), Admit::kAccepted);
  }
  // With the watermark disabled the hard bound reports kFull, not kBusy.
  EXPECT_EQ(q.try_push(make_req(8)), Admit::kFull);
  EXPECT_EQ(q.approx_depth(), 8u);
}

TEST(ServeQueue, WrapAroundKeepsFifo) {
  RequestQueue q(4);
  Request out[4];
  std::uint64_t next = 0;
  for (int lap = 0; lap < 100; ++lap) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_EQ(q.try_push(make_req(next + i)), Admit::kAccepted);
    }
    ASSERT_EQ(q.pop_batch(out, 4), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) ASSERT_EQ(out[i].id, next + i);
    next += 3;
  }
}

class ServeSmoke : public ::testing::TestWithParam<si::runtime::Backend> {};

// The serve-smoke acceptance burst: 2 shards, 4 producers, mixed RO/update
// traffic, every accepted request completes exactly once, none fail.
TEST_P(ServeSmoke, MixedBurstCompletesEverything) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 256;
  cfg.runtime.backend = GetParam();
  KvAppConfig app_cfg;
  app_cfg.buckets = 128;
  app_cfg.seed_elements = 2000;
  app_cfg.key_space = 4000;
  KvApp app(app_cfg, cfg.shards);
  Service<KvApp> svc(app, cfg);

  // Sanity: a put is visible to a subsequent get.
  Response resp;
  ASSERT_TRUE(svc.call(make_req(1, KvApp::kPut, 77, 1234), &resp));
  ASSERT_TRUE(svc.call(make_req(2, KvApp::kGet, 77), &resp));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.value, 1234u);

  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2500;
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      si::util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(p));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t key = rng.below(app_cfg.key_space);
        const std::uint64_t roll = rng.below(10);
        const std::uint16_t op = roll < 8 ? KvApp::kGet
                                 : roll == 8 ? KvApp::kPut
                                             : KvApp::kDel;
        Request req = make_req((static_cast<std::uint64_t>(p) << 32) | i, op,
                               key, key * 2 + 1);
        req.done = count_completion;
        req.ctx = &done;
        while (!svc.submit(req).accepted()) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();

  const auto c = svc.counters();
  const std::uint64_t total = kProducers * kPerProducer + 2;  // +2 warm-up calls
  EXPECT_EQ(c.accepted, total);
  EXPECT_EQ(c.completed, total);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(done.load(), kProducers * kPerProducer);

  // Every request ran through the backend as a transaction.
  const auto stats = si::util::aggregate(svc.runtime().thread_stats(), 0.0);
  EXPECT_GT(stats.totals.commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServeSmoke,
    ::testing::Values(si::runtime::Backend::kSiHtm,
                      si::runtime::Backend::kHtm),
    [](const ::testing::TestParamInfo<si::runtime::Backend>& info) {
      return info.param == si::runtime::Backend::kSiHtm
                 ? std::string("SiHtm")
                 : std::string("HtmSgl");
    });

// Deliberately slow application: every request takes ~200us, so a flood
// against a tiny queue must trip admission control.
struct SlowApp {
  void execute(si::runtime::Runtime&, int, const Request&, Response* resp) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    resp->value = 1;
  }
};

TEST(ServeBackpressure, OverloadShedsWithoutDeadlock) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 8;
  cfg.admit_watermark = 4;
  cfg.runtime.backend = si::runtime::Backend::kHtm;
  SlowApp app;
  Service<SlowApp> svc(app, cfg);

  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 200;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> hint_seen{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        Request req = make_req((static_cast<std::uint64_t>(p) << 32) | i);
        req.done = count_completion;
        req.ctx = &done;
        const SubmitResult r = svc.submit(req);  // no retry: shed, don't wait
        if (!r.accepted()) {
          hint_seen.fetch_add(r.retry_hint_us > 0 ? 1 : 0,
                              std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();

  const auto c = svc.counters();
  const std::uint64_t offered = kProducers * kPerProducer;
  EXPECT_EQ(c.accepted + c.rejected_busy + c.rejected_full, offered);
  EXPECT_GT(c.rejected_busy + c.rejected_full, 0u);  // overload actually shed
  EXPECT_EQ(c.completed, c.accepted);  // everything accepted still completed
  EXPECT_EQ(done.load(), c.accepted);
  // Every rejection carried a non-zero retry hint.
  EXPECT_EQ(hint_seen.load(), c.rejected_busy + c.rejected_full);
}

// After stop() the workers are gone; a submit must be refused up front, not
// silently queued (which would break completed == accepted and make call()
// spin forever).
TEST(ServeStop, SubmitAfterStopIsRejected) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.runtime.backend = si::runtime::Backend::kHtm;
  SlowApp app;
  Service<SlowApp> svc(app, cfg);
  svc.stop();

  const SubmitResult r = svc.submit(make_req(1));
  EXPECT_EQ(r.admit, Admit::kStopped);
  EXPECT_FALSE(r.accepted());
  EXPECT_FALSE(svc.call(make_req(2), nullptr));

  const auto c = svc.counters();
  EXPECT_EQ(c.accepted, 0u);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.rejected_stopped, 2u);
}

// --- AIMD admission control (serve/aimd.hpp, DESIGN.md section 11) ----------

// The controller is pure arithmetic, so its whole overload -> recovery arc
// is testable deterministically: epochs whose p99 blows the target cut the
// watermark multiplicatively down to the floor, and idle epochs (the shape
// of "the overload passed and the shed clients went away") raise it
// additively back to capacity.
TEST(ServeAimd, ControllerCutsOnOverloadAndIdleEpochsRecover) {
  AimdConfig acfg;
  acfg.enabled = true;
  acfg.target_p99_ns = 1'000'000;  // 1 ms
  acfg.min_watermark = 8;
  acfg.add_step = 16;
  acfg.cut_factor = 0.5;
  constexpr std::size_t kCapacity = 256;
  AimdController ctl(acfg, kCapacity, /*initial_watermark=*/kCapacity);

  si::util::Histogram slow;  // every request an order of magnitude over target
  for (int i = 0; i < 100; ++i) slow.record(10'000'000);
  si::util::Histogram one_attempt;  // retries mean 1.0: no aborts
  one_attempt.record(1);

  std::size_t wm = kCapacity;
  for (int e = 0; e < 10; ++e) {
    const std::size_t prev = wm;
    wm = ctl.on_epoch(slow, one_attempt);
    EXPECT_LE(wm, prev) << "overloaded epoch must never raise";
  }
  EXPECT_EQ(wm, acfg.min_watermark);  // halved down to the floor, not below
  EXPECT_GE(ctl.state().cuts, 5u);    // 256 -> 128 -> 64 -> 32 -> 16 -> 8
  EXPECT_EQ(ctl.state().last_p99_ns, slow.quantile(0.99));

  const si::util::Histogram idle;  // count() == 0
  for (int e = 0; e < 32 && wm < kCapacity; ++e) {
    const std::size_t prev = wm;
    wm = ctl.on_epoch(idle, idle);
    EXPECT_GE(wm, prev) << "idle epoch must never cut";
    EXPECT_LE(wm, prev + acfg.add_step);  // additive, not multiplicative
  }
  EXPECT_EQ(wm, kCapacity);  // fully re-opened
  EXPECT_GT(ctl.state().raises, 0u);
}

// A quiet-latency epoch can still be a bad epoch when most attempts abort:
// the retries histogram's mean is attempts-per-commit, so mean 5 is an 80%
// abort rate — past the 75% default, the controller must cut.
TEST(ServeAimd, ControllerCutsOnAbortStorm) {
  AimdConfig acfg;
  acfg.enabled = true;
  acfg.target_p99_ns = 1'000'000'000;  // latency goal impossible to miss
  constexpr std::size_t kCapacity = 64;
  AimdController ctl(acfg, kCapacity, kCapacity);

  si::util::Histogram fast;
  for (int i = 0; i < 100; ++i) fast.record(1'000);
  si::util::Histogram storm;
  for (int i = 0; i < 100; ++i) storm.record(5);  // 5 attempts per commit

  const std::size_t wm = ctl.on_epoch(fast, storm);
  EXPECT_LT(wm, kCapacity);
  EXPECT_EQ(ctl.state().cuts, 1u);
  EXPECT_GT(ctl.state().last_abort_pct, 75.0);
}

// Third input signal: a storm of SGL futex wake-ups cuts even when latency
// looks fine, and — unlike the latency/abort signals — even on an idle epoch
// (threads parked on the fallback lock with no completions is the convoy at
// its worst, not quiet). Below the threshold the signal must stay silent.
TEST(ServeAimd, ControllerCutsOnSglWakeupStorm) {
  AimdConfig acfg;
  acfg.enabled = true;
  acfg.target_p99_ns = 1'000'000'000;  // latency goal impossible to miss
  acfg.wakeup_cut_per_epoch = 100;
  constexpr std::size_t kCapacity = 256;
  AimdController ctl(acfg, kCapacity, kCapacity);

  si::util::Histogram fast;
  for (int i = 0; i < 100; ++i) fast.record(1'000);
  si::util::Histogram one_attempt;
  one_attempt.record(1);

  // Quiet wake-up counts: a good epoch must still raise (here: stay capped).
  std::size_t wm = ctl.on_epoch(fast, one_attempt, /*wakeups_delta=*/99);
  EXPECT_EQ(wm, kCapacity);
  EXPECT_EQ(ctl.state().cuts, 0u);
  EXPECT_EQ(ctl.state().last_wakeups, 99u);

  // At the threshold: cut despite perfect latency and zero aborts.
  wm = ctl.on_epoch(fast, one_attempt, /*wakeups_delta=*/100);
  EXPECT_LT(wm, kCapacity);
  EXPECT_EQ(ctl.state().cuts, 1u);
  EXPECT_EQ(ctl.state().last_wakeups, 100u);

  // An idle epoch with a storm must also cut, not drift back up.
  const si::util::Histogram idle;
  const std::size_t before = ctl.state().watermark;
  wm = ctl.on_epoch(idle, idle, /*wakeups_delta=*/500);
  EXPECT_LT(wm, before);
  EXPECT_EQ(ctl.state().cuts, 2u);

  // Disabled (the default, wakeup_cut_per_epoch == 0): any count is ignored.
  AimdController off(AimdConfig{.enabled = true,
                                .target_p99_ns = 1'000'000'000},
                     kCapacity, kCapacity);
  (void)off.on_epoch(fast, one_attempt, /*wakeups_delta=*/1'000'000);
  EXPECT_EQ(off.state().cuts, 0u);
}

// End to end through the Service: flood a slow app against an unreachable
// latency target and the epoch thread must cut the shard watermarks; stop
// offering load and the idle epochs must re-open admission to capacity.
// Generous polling deadlines keep this stable on a starved host.
TEST(ServeAimd, ServiceOverloadCutsThenIdleReopens) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 256;
  cfg.runtime.backend = si::runtime::Backend::kHtm;
  cfg.aimd.enabled = true;
  cfg.aimd.target_p99_ns = 1'000;  // 1 us: every busy epoch is an overload
  cfg.aimd.epoch_us = 2'000;
  cfg.aimd.min_watermark = 8;
  cfg.aimd.add_step = 64;
  SlowApp app;
  Service<SlowApp> svc(app, cfg);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::atomic<std::uint64_t> done{0};
  std::uint64_t id = 0;
  // Phase 1: offer load until the controller has visibly cut.
  while (svc.aimd_state().cuts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    Request req = make_req(++id);
    req.done = count_completion;
    req.ctx = &done;
    (void)svc.submit(req);  // rejections are expected and fine
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const AimdState overloaded = svc.aimd_state();
  EXPECT_GT(overloaded.cuts, 0u) << "controller never cut under overload";
  EXPECT_LT(overloaded.watermark, cfg.queue_capacity);

  // Phase 2: go quiet; idle epochs must raise the watermark back up.
  while (svc.aimd_state().watermark < cfg.queue_capacity &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const AimdState recovered = svc.aimd_state();
  EXPECT_EQ(recovered.watermark, cfg.queue_capacity)
      << "admission never re-opened after the overload passed";
  EXPECT_GT(recovered.raises, overloaded.raises);

  svc.stop();
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, c.accepted);
  EXPECT_EQ(done.load(), c.accepted);
}

TEST(ServeMetrics, RequestTelemetryLandsInHistograms) {
  si::obs::Metrics metrics(2);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  cfg.runtime.obs.metrics = &metrics;
  KvAppConfig app_cfg;
  app_cfg.buckets = 64;
  app_cfg.seed_elements = 500;
  app_cfg.key_space = 1000;
  KvApp app(app_cfg, cfg.shards);
  Service<KvApp> svc(app, cfg);

  si::util::Xoshiro256 rng(3);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint16_t op = rng.below(10) < 7 ? KvApp::kGet : KvApp::kPut;
    ASSERT_TRUE(svc.call(make_req(i + 1, op, rng.below(app_cfg.key_space), i),
                         nullptr));
  }
  svc.stop();

  const auto c = svc.counters();
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.request_latency.count(), c.completed);
  EXPECT_GT(snap.queue_depth.count(), 0u);  // one sample per drained batch
  EXPECT_LE(snap.queue_depth.count(), snap.request_latency.count());
  EXPECT_GT(snap.request_latency_p99_ns(), 0u);
}

// A recorded in-process serve run must be admissible under SI. One shard, so
// the backend runs single-threaded and the recorded history is exact (see
// check/history.hpp); the seeded map's pre-run values are wildcard versions.
TEST(ServeHistory, RecordedServeRunPassesSiChecker) {
  si::check::HistoryRecorder rec(1);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  cfg.runtime.recorder = &rec;
  KvAppConfig app_cfg;
  app_cfg.buckets = 64;
  app_cfg.seed_elements = 256;
  app_cfg.key_space = 512;
  KvApp app(app_cfg, cfg.shards);
  Service<KvApp> svc(app, cfg);

  si::util::Xoshiro256 rng(7);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const std::uint64_t key = rng.below(app_cfg.key_space);
    const std::uint64_t roll = rng.below(10);
    const std::uint16_t op = roll < 6 ? KvApp::kGet
                             : roll < 8 ? KvApp::kPut
                                        : KvApp::kDel;
    Response resp;
    ASSERT_TRUE(svc.call(make_req(i + 1, op, key, key * 3), &resp));
    EXPECT_NE(resp.status, Status::kFailed);
  }
  svc.stop();

  const auto verdict = si::check::verify_si(rec.merged());
  EXPECT_TRUE(verdict.ok()) << si::check::describe(verdict);
  EXPECT_GT(verdict.committed, 0u);
  EXPECT_GT(verdict.reads_checked, 0u);
}

// --- map-workload serving (src/serve/map_app.hpp) --------------------------

// Point ops and range scans answered by a quiesced map server must agree
// with the structure's own dump: the packed (count << 32 | checksum)
// response is recomputed from the dump restricted to the scanned window.
template <typename Map>
void run_map_scan_case() {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  MapAppConfig app_cfg;
  app_cfg.seed_elements = 300;
  app_cfg.key_space = 600;
  app_cfg.scan_cap = 64;
  MapApp<Map> app(app_cfg, cfg.shards);
  Service<MapApp<Map>> svc(app, cfg);

  // Point-op sanity through the service: put / get / del round-trip.
  Response resp;
  ASSERT_TRUE(svc.call(make_req(1, MapOps::kPut, 1001, 4242), &resp));
  ASSERT_TRUE(svc.call(make_req(2, MapOps::kGet, 1001), &resp));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.value, 4242u);
  ASSERT_TRUE(svc.call(make_req(3, MapOps::kDel, 1001), &resp));
  EXPECT_EQ(resp.value, 1u);
  ASSERT_TRUE(svc.call(make_req(4, MapOps::kGet, 1001), &resp));
  EXPECT_EQ(resp.value, 0u);

  // No in-flight requests now, so the direct dump sees the served state.
  const auto dump = si::maps::map_dump(app.map());
  ASSERT_GT(dump.size(), 0u);

  si::util::Xoshiro256 rng(11);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t lo = rng.below(app_cfg.key_space);
    const std::uint64_t hi = lo + rng.below(40);
    ASSERT_TRUE(svc.call(make_req(100 + i, MapOps::kRange, lo, hi), &resp));
    ASSERT_EQ(resp.status, Status::kOk);

    std::vector<si::maps::RangeEntry> expect;
    for (const auto& e : dump) {
      if (e.key >= lo && e.key <= hi && expect.size() < app_cfg.scan_cap) {
        expect.push_back(e);
      }
    }
    EXPECT_EQ(resp.value >> 32, expect.size());
    EXPECT_EQ(resp.value & 0xFFFFFFFFULL,
              MapApp<Map>::checksum(expect.data(), expect.size()) &
                  0xFFFFFFFFULL);
  }
  svc.stop();
  EXPECT_EQ(svc.counters().failed, 0u);
}

TEST(ServeMapScan, SkiplistScanMatchesQuiescedState) {
  run_map_scan_case<si::maps::SkipList>();
}
TEST(ServeMapScan, BstScanMatchesQuiescedState) {
  run_map_scan_case<si::maps::Bst>();
}
TEST(ServeMapScan, BtreeScanMatchesQuiescedState) {
  run_map_scan_case<si::maps::Btree>();
}

// The serve acceptance case from ISSUE 6: range scans racing write traffic
// through the service, with the backend recording every transaction; the
// merged history must be admissible under SI. One shard keeps the recorded
// history exact (single executing thread) while the two client threads
// below race their submissions.
template <typename Map>
void run_map_history_case() {
  si::check::HistoryRecorder rec(1);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  cfg.runtime.recorder = &rec;
  MapAppConfig app_cfg;
  app_cfg.seed_elements = 128;
  app_cfg.key_space = 256;
  app_cfg.scan_cap = 48;
  MapApp<Map> app(app_cfg, cfg.shards);
  Service<MapApp<Map>> svc(app, cfg);

  std::thread writer([&] {
    si::util::Xoshiro256 rng(21);
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::uint64_t key = rng.below(app_cfg.key_space);
      const std::uint16_t op = (i & 1) != 0 ? MapOps::kPut : MapOps::kDel;
      Response resp;
      ASSERT_TRUE(svc.call(make_req(i + 1, op, key, key * 7 + 1), &resp));
      ASSERT_NE(resp.status, Status::kFailed);
    }
  });
  std::thread scanner([&] {
    si::util::Xoshiro256 rng(22);
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::uint64_t lo = rng.below(app_cfg.key_space);
      Response resp;
      ASSERT_TRUE(svc.call(
          make_req((1ULL << 32) | i, MapOps::kRange, lo, lo + 31), &resp));
      ASSERT_NE(resp.status, Status::kFailed);
    }
  });
  writer.join();
  scanner.join();
  svc.stop();

  const auto verdict = si::check::verify_si(rec.merged());
  EXPECT_TRUE(verdict.ok()) << si::check::describe(verdict);
  EXPECT_GT(verdict.committed, 0u);
  EXPECT_GT(verdict.reads_checked, 0u);
}

TEST(ServeMapHistory, SkiplistRangeScanRunPassesSiChecker) {
  run_map_history_case<si::maps::SkipList>();
}
TEST(ServeMapHistory, BtreeRangeScanRunPassesSiChecker) {
  run_map_history_case<si::maps::Btree>();
}

}  // namespace
