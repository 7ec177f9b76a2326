// Concurrency stress for the serving layer: the MPSC ring hammered by many
// producers, a full service under sustained multi-producer load, bursts
// separated by idle gaps that make the shard workers park, and inline
// updates racing the shard workers for the shards' leases. These
// run in the TSan lane (CMakePresets.json tsan preset) as well as tier1, so
// they are the data-race canaries for src/serve — keep the iteration counts
// meaningful but TSan-affordable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "serve/kv_app.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace si::serve;

TEST(ServeQueueStress, MpscConservationAndPerProducerFifo) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 20000;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  RequestQueue q(1024);

  std::atomic<std::uint64_t> order_violations{0};
  std::atomic<std::uint64_t> key_sum{0};
  std::thread consumer([&] {
    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    Request batch[64];
    while (total < kTotal) {
      const std::size_t n = q.pop_batch(batch, 64);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto p = static_cast<std::size_t>(batch[i].id >> 32);
        const std::uint64_t seq = batch[i].id & 0xffffffffu;
        if (p >= kProducers || seq != next[p]) {
          order_violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++next[p];
        }
        sum += batch[i].key;
      }
      total += n;
    }
    key_sum.store(sum, std::memory_order_release);
  });

  std::vector<std::thread> producers;
  std::uint64_t expected_sum = 0;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        Request req;
        req.id = (static_cast<std::uint64_t>(p) << 32) | i;
        req.key = static_cast<std::uint64_t>(p) * 1000003u + i;
        while (q.try_push(req) != Admit::kAccepted) std::this_thread::yield();
      }
    });
  }
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      expected_sum += p * 1000003u + i;
    }
  }
  for (auto& t : producers) t.join();
  consumer.join();

  EXPECT_EQ(order_violations.load(), 0u);  // per-producer FIFO held throughout
  EXPECT_EQ(key_sum.load(), expected_sum);  // nothing lost or duplicated
  EXPECT_TRUE(q.empty());
}

TEST(ServeShardStress, ServiceCompletesEverySubmissionUnderLoad) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 128;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  KvAppConfig app_cfg;
  app_cfg.buckets = 128;
  app_cfg.seed_elements = 1000;
  app_cfg.key_space = 2000;
  KvApp app(app_cfg, cfg.shards);
  Service<KvApp> svc(app, cfg);

  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      si::util::Xoshiro256 rng(500 + static_cast<std::uint64_t>(p));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        Request req;
        req.id = (static_cast<std::uint64_t>(p) << 32) | i;
        req.key = rng.below(app_cfg.key_space);
        const std::uint64_t roll = rng.below(10);
        req.op = roll < 7 ? KvApp::kGet : roll < 9 ? KvApp::kPut : KvApp::kDel;
        req.arg = req.key + 1;
        req.ro = KvApp::is_ro(req.op);
        req.done = [](void* ctx, const Response&) {
          static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(
              1, std::memory_order_relaxed);
        };
        req.ctx = &done;
        while (!svc.submit(req).accepted()) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();

  const auto c = svc.counters();
  EXPECT_EQ(c.accepted, kProducers * kPerProducer);
  EXPECT_EQ(c.completed, c.accepted);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(done.load(), c.accepted);
}

// Lost-wake-up canary for the worker park/wake handshake: every burst lands
// on workers that had time to park during the gap before it, so a push that
// slips past a parking worker would strand its request.
TEST(ServeShardStress, ParkedWorkersWakeForEveryBurst) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 128;
  KvAppConfig app_cfg;
  app_cfg.buckets = 128;
  app_cfg.seed_elements = 1000;
  app_cfg.key_space = 2000;
  KvApp app(app_cfg, cfg.shards);
  Service<KvApp> svc(app, cfg);

  constexpr int kProducers = 4;
  constexpr int kBursts = 25;
  constexpr int kBurstSize = 40;
  // One deadline bounds the whole test, so a lost wake-up fails it instead
  // of leaving producers spinning on a full queue that nobody drains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      si::util::Xoshiro256 rng(900 + static_cast<std::uint64_t>(p));
      for (int b = 0; b < kBursts; ++b) {
        for (int i = 0; i < kBurstSize; ++i) {
          Request req;
          req.key = rng.below(app_cfg.key_space);
          req.op = rng.below(4) == 0 ? KvApp::kPut : KvApp::kGet;
          req.arg = req.key + 1;
          req.ro = KvApp::is_ro(req.op);
          while (!svc.submit(req).accepted()) {
            if (std::chrono::steady_clock::now() > deadline) return;
            std::this_thread::yield();
          }
        }
        // Longer than any batch takes, so the workers drain and park.
        std::this_thread::sleep_for(std::chrono::milliseconds(2 + p % 2));
      }
    });
  }
  for (auto& t : producers) t.join();

  // Every accepted request completes without stop() forcing a wake-up.
  while (svc.counters().completed < svc.counters().accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto c = svc.counters();
  EXPECT_EQ(c.accepted, std::uint64_t{kProducers} * kBursts * kBurstSize);
  EXPECT_EQ(c.completed, c.accepted);

  // stop() wakes parked workers at once instead of waiting for work.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  svc.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(stop_ms.count(), 100);
  c = svc.counters();
  EXPECT_EQ(c.completed, c.accepted);
  EXPECT_EQ(c.failed, 0u);
}

/// Set on the thread that calls serve_inline() in the test below.
thread_local bool t_inline_caller = false;

// Adds `arg` to a per-key cell in one transaction, and watches who else is
// inside execute(): an inline update must find no thread there, and a shard
// worker must never find an inline update there. `runs` is plain per-tid
// state, like an app's per-shard pools: TSan flags it if an inline update
// and a worker ever share a tid without the lease ordering them.
struct ExclusiveAddApp {
  static constexpr std::uint16_t kAdd = 1;
  static constexpr int kInlineMark = 1 << 16;

  ExclusiveAddApp(std::size_t keys, int shards)
      : cells(keys), runs(static_cast<std::size_t>(shards)) {}

  static InlineOp inline_op(std::uint16_t op) noexcept {
    return op == kAdd ? InlineOp::kUpdate : InlineOp::kNone;
  }

  void execute(si::runtime::Runtime& rt, int tid, const Request& req,
               Response* resp) {
    const int mark = t_inline_caller ? kInlineMark : 1;
    const int before = executing.fetch_add(mark, std::memory_order_acq_rel);
    if (t_inline_caller ? before != 0 : before >= kInlineMark) {
      overlaps.fetch_add(1, std::memory_order_relaxed);
    }
    Cell& c = cells[req.key];
    rt.execute(false, [&](auto& tx) {
      tx.write(&c.v, tx.read(&c.v) + req.arg);
    });
    ++runs[static_cast<std::size_t>(tid)];
    resp->value = req.arg;
    executing.fetch_sub(mark, std::memory_order_acq_rel);
  }

  struct alignas(64) Cell {
    std::uint64_t v = 0;
  };
  std::vector<Cell> cells;
  std::vector<std::uint64_t> runs;  ///< per shard tid
  std::atomic<int> executing{0};
  std::atomic<std::uint64_t> overlaps{0};
};

// One thread submits updates to the shard workers while another runs
// updates inline through serve_inline(), over disjoint keys. An inline
// update must never overlap a worker's execution, and every cell must end
// at its per-key oracle.
TEST(ServeShardStress, InlineUpdatesNeverOverlapAWorker) {
  constexpr std::uint64_t kKeys = 64;  // per thread
  constexpr std::uint64_t kOps = 2000;  // per thread
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 64;
  cfg.runtime.backend = si::runtime::Backend::kSiHtm;
  ExclusiveAddApp app(2 * kKeys, cfg.shards);
  Service<ExclusiveAddApp> svc(app, cfg);
  std::vector<std::uint64_t> oracle(2 * kKeys, 0);

  std::atomic<std::uint64_t> done{0};
  std::atomic<int> ready{0};  // start line, so the two really overlap
  const auto start = [&ready] {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < 2) std::this_thread::yield();
  };
  std::thread submitter([&] {
    start();
    si::util::Xoshiro256 rng(4242);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      Request req;
      req.id = i;
      req.op = ExclusiveAddApp::kAdd;
      req.key = rng.below(kKeys);
      req.arg = 1 + rng.below(100);
      oracle[req.key] += req.arg;
      req.done = [](void* ctx, const Response&) {
        static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(
            1, std::memory_order_relaxed);
      };
      req.ctx = &done;
      while (!svc.submit(req).accepted()) std::this_thread::yield();
      // Leave gaps, so inline updates get their turns between batches.
      std::this_thread::yield();
    }
  });
  std::uint64_t inlined = 0;
  std::thread inliner([&] {
    t_inline_caller = true;
    const int tid = svc.attach_reader();
    start();
    ASSERT_GE(tid, cfg.shards);
    si::util::Xoshiro256 rng(777);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      Request req;
      req.id = i;
      req.op = ExclusiveAddApp::kAdd;
      req.key = kKeys + rng.below(kKeys);
      req.arg = 1 + rng.below(100);
      oracle[req.key] += req.arg;
      Response resp;
      // Refused while a worker executes or the shard's queue holds work;
      // the submitter finishes, so the leases come free.
      while (svc.serve_inline(tid, req, &resp) == InlineOp::kNone) {
        std::this_thread::yield();
      }
      EXPECT_EQ(resp.value, req.arg);
      ++inlined;
      // A reactor polls and parses between requests; without a pause the
      // inline caller would win every lease back before a woken worker ran.
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  });
  submitter.join();
  inliner.join();
  svc.stop();

  EXPECT_EQ(inlined, kOps);
  EXPECT_EQ(app.overlaps.load(), 0u);
  const auto c = svc.counters();
  EXPECT_EQ(c.accepted, 2 * kOps);
  EXPECT_EQ(c.completed, c.accepted);
  EXPECT_EQ(done.load(), kOps);
  for (std::uint64_t k = 0; k < 2 * kKeys; ++k) {
    EXPECT_EQ(app.cells[k].v, oracle[k]) << "key " << k;
  }
  std::uint64_t runs = 0;
  for (std::uint64_t r : app.runs) runs += r;
  EXPECT_EQ(runs, 2 * kOps);
}

}  // namespace
