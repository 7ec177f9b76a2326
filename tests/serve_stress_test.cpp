// Concurrency stress for the serving layer: the MPSC ring hammered by many
// producers, a full service under sustained multi-producer load, and bursts
// separated by idle gaps that make the shard workers park. These
// run in the TSan lane (CMakePresets.json tsan preset) as well as tier1, so
// they are the data-race canaries for src/serve — keep the iteration counts
// meaningful but TSan-affordable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

}  // namespace
