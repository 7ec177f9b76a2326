// Multi-thread run driver shared by tests, examples and benchmarks.
//
// Spawns N worker threads, registers each with the backend, runs a per-thread
// work function either for a fixed number of operations or until a deadline,
// and aggregates the backend's per-thread statistics into a RunStats.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace si::runtime {

/// Clears per-phase counters a backend keeps outside its ThreadStats: the
/// HTM emulation's fast-path telemetry, and any attached obs metrics sink
/// (latency histograms + abort taxonomy). Without this, a warm-up phase's
/// hits and aborts leak into the measured phase. The pieces are reached
/// through a real-substrate Tm's substrate() or the Runtime's config();
/// backends with neither (sim) skip them.
template <typename CC>
void reset_phase_counters(CC& cc) {
  for (auto& st : cc.thread_stats()) st = si::util::ThreadStats{};
  auto reset_metrics = [](const auto& cfg) {
    if (cfg.obs.metrics != nullptr) cfg.obs.metrics->reset();
  };
  if constexpr (requires { cc.substrate().htm(); }) {
    cc.substrate().htm().reset_fast_path_stats();
    reset_metrics(cc.substrate().config());
  } else if constexpr (requires { cc.config().obs.metrics; }) {
    reset_metrics(cc.config());
  }
}

/// Context handed to each worker: its thread id and the shared stop flag
/// (set when a timed run's deadline passes).
struct WorkerContext {
  int tid = 0;
  const std::atomic<bool>* stop = nullptr;

  bool should_stop() const noexcept {
    return stop->load(std::memory_order_relaxed);
  }
};

/// Runs `worker(WorkerContext)` on `n_threads` threads until each returns.
/// `worker` must loop on `should_stop()` for timed runs; for fixed-op runs it
/// simply performs its quota and returns (the stop flag stays false).
///
/// `Setup` is called as setup(tid) on each worker thread before the start
/// barrier — backends register threads there.
template <typename Setup, typename Worker>
double run_threads(int n_threads, std::chrono::nanoseconds duration, Setup&& setup,
                   Worker&& worker) {
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_threads));

  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      setup(t);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      worker(WorkerContext{t, &stop});
    });
  }

  while (ready.load(std::memory_order_acquire) != n_threads) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);

  if (duration.count() > 0) {
    std::this_thread::sleep_for(duration);
    stop.store(true, std::memory_order_release);
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Convenience wrapper: timed run over a backend `cc` whose worker performs
/// `op(tid)` repeatedly until the deadline. Returns aggregated stats.
template <typename CC, typename OpFn>
si::util::RunStats run_timed(CC& cc, int n_threads, std::chrono::nanoseconds duration,
                             OpFn&& op) {
  reset_phase_counters(cc);
  const double secs = run_threads(
      n_threads, duration, [&](int tid) { cc.register_thread(tid); },
      [&](WorkerContext ctx) {
        while (!ctx.should_stop()) op(ctx.tid);
      });
  return si::util::aggregate(cc.thread_stats(), secs);
}

/// Convenience wrapper: each thread performs exactly `ops_per_thread`
/// operations. Returns aggregated stats.
template <typename CC, typename OpFn>
si::util::RunStats run_fixed_ops(CC& cc, int n_threads, std::uint64_t ops_per_thread,
                                 OpFn&& op) {
  reset_phase_counters(cc);
  const double secs = run_threads(
      n_threads, std::chrono::nanoseconds{0},
      [&](int tid) { cc.register_thread(tid); },
      [&](WorkerContext ctx) {
        for (std::uint64_t i = 0; i < ops_per_thread; ++i) op(ctx.tid);
      });
  return si::util::aggregate(cc.thread_stats(), secs);
}

}  // namespace si::runtime
