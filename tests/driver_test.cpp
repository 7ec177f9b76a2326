// Tests of the multi-thread run driver (runtime/driver.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "protocol/tm.hpp"
#include "util/stats.hpp"

namespace {

using namespace si::runtime;

TEST(DriverTest, RunThreadsExecutesSetupAndWorkerPerThread) {
  std::atomic<int> setups{0};
  std::atomic<int> workers{0};
  const double secs = run_threads(
      4, std::chrono::nanoseconds{0},
      [&](int tid) {
        EXPECT_GE(tid, 0);
        EXPECT_LT(tid, 4);
        setups.fetch_add(1);
      },
      [&](WorkerContext ctx) {
        EXPECT_FALSE(ctx.should_stop());
        workers.fetch_add(1);
      });
  EXPECT_EQ(setups.load(), 4);
  EXPECT_EQ(workers.load(), 4);
  EXPECT_GT(secs, 0.0);
}

TEST(DriverTest, TimedRunSetsStopFlag) {
  std::atomic<std::uint64_t> iterations{0};
  run_threads(
      2, std::chrono::milliseconds{50}, [](int) {},
      [&](WorkerContext ctx) {
        while (!ctx.should_stop()) {
          iterations.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      });
  EXPECT_GT(iterations.load(), 0u);
}

TEST(DriverTest, TimedRunHonorsDeadline) {
  const auto t0 = std::chrono::steady_clock::now();
  const double secs = run_threads(
      2, std::chrono::milliseconds{100}, [](int) {},
      [&](WorkerContext ctx) {
        while (!ctx.should_stop()) std::this_thread::yield();
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The run must last at least the deadline (sleep_for never wakes early)
  // and not run unbounded past it — the tolerance is generous because CI
  // machines stall, but a stuck stop flag would blow it by orders of
  // magnitude.
  EXPECT_GE(secs, 0.095);
  EXPECT_LT(secs, 5.0);
  EXPECT_GE(wall, 0.095);
}

TEST(DriverTest, FixedOpsNeverObserveStop) {
  // Fixed-op runs pass a zero duration, so the stop flag must stay false for
  // the whole run on every thread.
  std::atomic<std::uint64_t> observed{0};
  run_threads(
      4, std::chrono::nanoseconds{0}, [](int) {},
      [&](WorkerContext ctx) {
        for (int i = 0; i < 50000; ++i) {
          if (ctx.should_stop()) {
            observed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(observed.load(), 0u);
}

TEST(DriverTest, ResetPhaseCountersZeroesFastPathTelemetry) {
  // Uses SiHtm directly (it exposes htm()): thread_stats() re-mirrors the
  // emulation's fast-path counters on harvest, so a reset that missed the
  // HtmRuntime side would resurrect the old hits here.
  si::protocol::RealSubstrateConfig cc_cfg;
  cc_cfg.max_threads = 2;
  si::protocol::SiHtm cc(cc_cfg);
  struct alignas(128) Cell {
    std::uint64_t v = 0;
  } cells[4];
  auto op = [&](int) {
    cc.execute(false, [&](auto& tx) {
      // Repeat accesses to the same lines exercise the owned-line fast path.
      for (auto& c : cells) tx.write(&c.v, tx.read(&c.v) + 1);
    });
  };

  const auto first = run_fixed_ops(cc, 1, 200, op);
  ASSERT_GT(first.totals.fast_path.hits + first.totals.fast_path.misses, 0u);

  reset_phase_counters(cc);
  const auto totals = cc.substrate().htm().fast_path_totals();
  EXPECT_EQ(totals.hits, 0u);
  EXPECT_EQ(totals.misses, 0u);
  EXPECT_EQ(si::util::aggregate(cc.thread_stats(), 0.0).totals.fast_path.hits,
            0u);

  // A fresh phase after the reset measures only itself: single-threaded, the
  // emulation is deterministic, so the second run reproduces the first.
  const auto second = run_fixed_ops(cc, 1, 200, op);
  EXPECT_EQ(second.totals.commits, first.totals.commits);
  EXPECT_EQ(second.totals.fast_path.hits, first.totals.fast_path.hits);
  EXPECT_EQ(second.totals.fast_path.misses, first.totals.fast_path.misses);
}

TEST(DriverTest, FixedOpsRunsExactQuota) {
  RuntimeConfig cfg;
  cfg.backend = Backend::kSiHtm;
  cfg.max_threads = 4;
  Runtime rt(cfg);
  struct alignas(128) Cell {
    std::uint64_t v = 0;
  } cell;

  const auto stats = run_fixed_ops(rt, 3, 50, [&](int) {
    rt.execute(false, [&](auto& tx) { tx.write(&cell.v, cell.v + 1); });
  });
  EXPECT_EQ(stats.totals.commits, 150u);
}

TEST(DriverTest, StatsResetBetweenRuns) {
  RuntimeConfig cfg;
  cfg.backend = Backend::kSilo;
  cfg.max_threads = 2;
  Runtime rt(cfg);
  struct alignas(128) Cell {
    std::uint64_t v = 0;
  } cell;

  auto op = [&](int) {
    rt.execute(false, [&](auto& tx) { tx.write(&cell.v, tx.read(&cell.v) + 1); });
  };
  const auto first = run_fixed_ops(rt, 2, 20, op);
  const auto second = run_fixed_ops(rt, 2, 10, op);
  EXPECT_EQ(first.totals.commits, 40u);
  EXPECT_EQ(second.totals.commits, 20u);  // not 60: stats were reset
}

}  // namespace
