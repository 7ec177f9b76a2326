// Metrics registry: per-thread latency histograms next to the existing
// counter surfaces (util/stats.hpp), snapshot-able mid-run.
//
// Same ownership discipline as the tracer: each thread records into its own
// cache-line-padded slot, so the hot path is a plain histogram bump with no
// synchronisation. snapshot() merges the per-thread histograms into one
// MetricsSnapshot; taken mid-run it is approximate (owner threads keep
// writing plain fields), taken after the workers quiesced it is exact —
// mirroring how ThreadStats are harvested today.
//
// All durations are nanoseconds: virtual under the simulator, wall-clock
// (obs::wall_ns deltas) on real threads. Retry counts are attempts per
// committed transaction (1 = first try).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/taxonomy.hpp"
#include "util/histogram.hpp"

namespace si::obs {

/// Merged view over all threads, plus the derived percentiles the bench
/// JSON and `--compare` report.
struct MetricsSnapshot {
  si::util::Histogram safety_wait;     ///< quiescence-wait duration, ns
  si::util::Histogram commit_latency;  ///< begin→commit of the winning attempt, ns
  si::util::Histogram sgl_hold;        ///< SGL acquire→release, ns
  si::util::Histogram retries;         ///< attempts per committed transaction
  si::util::Histogram request_latency; ///< serve: enqueue→complete, ns
  si::util::Histogram queue_depth;     ///< serve: shard depth at each dequeue
  si::util::Histogram reactor_batch;   ///< serve: completions coalesced per wakeup
  si::util::Histogram reactor_flush_bytes;  ///< serve: bytes per writev flush
  si::util::Histogram durable_ack;     ///< serve: enqueue→durable-ack release, ns
  Taxonomy taxonomy;                   ///< abort / fall-back event counters

  std::uint64_t safety_wait_p50_ns() const noexcept {
    return safety_wait.quantile(0.50);
  }
  std::uint64_t safety_wait_p99_ns() const noexcept {
    return safety_wait.quantile(0.99);
  }
  std::uint64_t safety_wait_p999_ns() const noexcept {
    return safety_wait.quantile(0.999);
  }
  std::uint64_t request_latency_p50_ns() const noexcept {
    return request_latency.quantile(0.50);
  }
  std::uint64_t request_latency_p99_ns() const noexcept {
    return request_latency.quantile(0.99);
  }
  std::uint64_t request_latency_p999_ns() const noexcept {
    return request_latency.quantile(0.999);
  }
};

/// One thread's histograms and taxonomy counters; padded so neighbours never
/// share a line.
struct alignas(128) ThreadMetrics {
  si::util::Histogram safety_wait;
  si::util::Histogram commit_latency;
  si::util::Histogram sgl_hold;
  si::util::Histogram retries;
  si::util::Histogram request_latency;
  si::util::Histogram queue_depth;
  si::util::Histogram reactor_batch;
  si::util::Histogram reactor_flush_bytes;
  /// Enqueue to durable-ack release, written by the owner thread: the shard
  /// worker that flushed the covering log records.
  si::util::Histogram durable_ack;
  Taxonomy taxonomy;
};

class Metrics {
 public:
  explicit Metrics(int max_threads)
      : per_thread_(static_cast<std::size_t>(max_threads)) {}

  ThreadMetrics& of(int tid) noexcept {
    return per_thread_[static_cast<std::size_t>(tid)];
  }
  const ThreadMetrics& of(int tid) const noexcept {
    return per_thread_[static_cast<std::size_t>(tid)];
  }

  int threads() const noexcept { return static_cast<int>(per_thread_.size()); }

  void reset() noexcept {
    for (auto& t : per_thread_) t = ThreadMetrics{};
  }

  MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    for (const auto& t : per_thread_) {
      s.safety_wait.merge(t.safety_wait);
      s.commit_latency.merge(t.commit_latency);
      s.sgl_hold.merge(t.sgl_hold);
      s.retries.merge(t.retries);
      s.request_latency.merge(t.request_latency);
      s.queue_depth.merge(t.queue_depth);
      s.reactor_batch.merge(t.reactor_batch);
      s.reactor_flush_bytes.merge(t.reactor_flush_bytes);
      s.durable_ack.merge(t.durable_ack);
      s.taxonomy.merge(t.taxonomy);
    }
    return s;
  }

 private:
  std::vector<ThreadMetrics> per_thread_;
};

}  // namespace si::obs
