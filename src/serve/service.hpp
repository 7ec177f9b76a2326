// Sharded transactional request-serving service (DESIGN.md section 9).
//
// Service<App> turns any runtime backend (runtime/runtime.hpp: HTM+SGL,
// SI-HTM, P8TM, Silo, raw-ROT) plus an application (kv_app.hpp,
// tpcc_app.hpp) into a request server:
//
//   client threads ──submit()──▶ per-shard RequestQueue (MPSC, bounded)
//                                     │  batch drain
//                               shard worker thread (tid = shard index)
//                                     │  rt.execute(...) per request
//                               completion callback + telemetry
//
// Requests route to a shard by key hash (or an explicit shard override), and
// every update and range scan runs on its shard's runtime tid, so all writes
// to a key's state come from one tid at a time. The shard worker runs most of
// them. A front-end thread may run some inline instead, with no queue, no
// wake-up and no completion hand-off: attach_reader() registers the caller on
// a runtime tid of its own, in [shards, max_threads), and serve_inline()
// executes an op the app marks inline (App::inline_op) right there.
//
//  * A point read runs on the reader tid. That is safe on any registered
//    thread because SI-HTM's read-only path is no hardware transaction at
//    all (Algorithm 2).
//  * An unlogged update runs on its shard's tid, and only while no worker is
//    executing: every shard has a lease (a mutex) that its worker holds while
//    it executes a popped batch and closes that batch's group, and the
//    caller must win every shard's lease with try_lock, on top of finding
//    the shard's queue empty. One executor per shard tid at a time keeps the
//    per-shard app state and the tid's backend slot single-threaded.
//
// The backend thus sees `shards` shard tids plus at most one tid per attached
// reader.
//
// Telemetry goes through the existing observability layer: per-request
// enqueue→complete latency and per-batch queue depth land in obs::Metrics
// histograms, kReqDequeue/kReqComplete events in the obs::Tracer, both under
// the executing thread's tid — so si_trace and the si-bench-v1 JSON emitter
// report serving runs with no extra plumbing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "durability/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "serve/aimd.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "util/backoff.hpp"
#include "util/histogram.hpp"

namespace si::serve {

struct TelemetryConfig {
  bool enabled = false;
  std::uint32_t epoch_us = 250'000;  ///< tick period when AIMD is off
  std::size_t ring = 256;            ///< epochs retained for /series
};

/// Durability tier (DESIGN.md section 14): a per-shard write-ahead log that
/// each shard worker appends to and flushes (when its queue drains, or once
/// `batch_max` records wait), releasing the acks each flush covers.
struct DurabilityConfig {
  si::durability::DurabilityMode mode = si::durability::DurabilityMode::kOff;
  std::string dir;  ///< log directory (required unless mode == kOff)

  bool enabled() const noexcept {
    return mode != si::durability::DurabilityMode::kOff;
  }
};

struct ServiceConfig {
  int shards = 2;                   ///< worker threads = backend tids 0..shards-1
  std::size_t queue_capacity = 1024;  ///< per-shard ring size (rounded to pow2)
  /// Admission-control watermark per shard; 0 = capacity (hard bound only).
  /// With `aimd.enabled` this is only the starting point — the controller
  /// retunes every shard's watermark each epoch (serve/aimd.hpp).
  std::size_t admit_watermark = 0;
  std::size_t batch_max = 32;       ///< max requests drained per worker pass

  /// Adaptive admission control. When enabled the service runs one epoch
  /// thread that diffs the obs::Metrics request-latency / retries histograms
  /// and moves the watermark AIMD-style; if no Metrics sink was supplied the
  /// service instantiates a private one so the loop always has telemetry.
  AimdConfig aimd{};

  /// Live time-series aggregation (obs/timeseries.hpp). When enabled the
  /// epoch thread also diffs each tick's MetricsSnapshot into an EpochRecord
  /// ring that the admin endpoint serves at /series. Shares the AIMD epoch
  /// thread and tick when admission control is on (epoch_us is then ignored
  /// in favour of aimd.epoch_us); runs its own cadence otherwise. Like AIMD,
  /// enabling it forces a private Metrics sink if the caller supplied none.
  TelemetryConfig telemetry{};

  /// Write-ahead logging with group commit on the shard workers; off by
  /// default (the service is a cache until the knob is turned).
  DurabilityConfig durability{};

  /// Backend selection, history recording and obs sinks, forwarded verbatim.
  /// `runtime.max_threads` must be >= shards (it is raised if not); the tids
  /// above the shards are what attach_reader() hands out.
  si::runtime::RuntimeConfig runtime{};
};

/// Aggregated view over the per-shard logs (serve/telemetry.hpp renders it;
/// all zeros when durability is off). Cumulative counters except the LSN
/// sums and acks_held, which are point-in-time gauges.
struct DurabilityStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t appended_lsn = 0;  ///< sum over shards
  std::uint64_t durable_lsn = 0;   ///< sum over shards
  std::uint64_t acks_held = 0;     ///< acks the last flush left unreleased
};

struct ServiceCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;     ///< admission watermark refusals
  std::uint64_t rejected_full = 0;     ///< hard ring-capacity refusals
  std::uint64_t rejected_stopped = 0;  ///< submitted after stop() began
  std::uint64_t completed = 0;
  /// Completed with Status::kFailed: a bad opcode, or a logged update that
  /// a shard with a failed log refused without executing it.
  std::uint64_t failed = 0;
};

struct SubmitResult {
  Admit admit = Admit::kAccepted;
  std::size_t depth = 0;           ///< shard depth observed at submit time
  std::uint64_t retry_hint_us = 0; ///< suggested client backoff when rejected

  bool accepted() const noexcept { return admit == Admit::kAccepted; }
};

/// Detects `static bool App::logged_op(std::uint16_t)` — the hook an app
/// implements to opt its update opcodes into the WAL (DESIGN.md §14). Apps
/// without it compile out the logging branch and refuse -durability.
template <typename T, typename = void>
struct HasLoggedOp : std::false_type {};
template <typename T>
struct HasLoggedOp<
    T, std::void_t<decltype(T::logged_op(std::declval<std::uint16_t>()))>>
    : std::true_type {};

/// Detects `static InlineOp App::inline_op(std::uint16_t)` — the hook an app
/// implements to let a front-end thread run an opcode inline
/// (serve_inline()). kRead marks an op that is read-only, unlogged and
/// touches no per-shard state, since it runs on a reader tid that indexes no
/// shard; kUpdate marks one that needs its shard's tid. Apps without the
/// hook keep every request on the shard workers.
template <typename T, typename = void>
struct HasInlineOp : std::false_type {};
template <typename T>
struct HasInlineOp<
    T, std::void_t<decltype(T::inline_op(std::declval<std::uint16_t>()))>>
    : std::true_type {};

/// `App` must provide `execute(si::runtime::Runtime&, int tid,
/// const Request&, Response&)`, thread-safe across distinct tids.
template <typename App>
class Service {
 public:
  Service(App& app, ServiceConfig cfg)
      : cfg_(fixup(std::move(cfg))),
        app_(app),
        own_metrics_(make_own_metrics()),
        rt_(cfg_.runtime) {
    queues_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      queues_.push_back(std::make_unique<RequestQueue>(cfg_.queue_capacity,
                                                       cfg_.admit_watermark));
    }
    wake_ = std::make_unique<ShardWake[]>(static_cast<std::size_t>(cfg_.shards));
    next_reader_.store(cfg_.shards, std::memory_order_relaxed);
    if (cfg_.durability.enabled()) open_logs();
    if (cfg_.telemetry.enabled) {
      series_ = std::make_unique<si::obs::TimeSeries>(cfg_.telemetry.ring);
      aggregator_ = std::make_unique<si::obs::EpochAggregator>(series_.get());
      start_ns_ = si::obs::wall_ns();
    }
    workers_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
    if (cfg_.aimd.enabled || cfg_.telemetry.enabled) {
      epoch_thread_ = std::thread([this] { epoch_loop(); });
    }
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service() { stop(); }

  int shards() const noexcept { return cfg_.shards; }
  const ServiceConfig& config() const noexcept { return cfg_; }
  si::runtime::Runtime& runtime() noexcept { return rt_; }

  /// Routes `req` to its key's shard. Stamps the enqueue time. On rejection
  /// the completion is NOT invoked; the caller answers the client (the TCP
  /// front end sends Status::kRejected with the hint).
  SubmitResult submit(Request req) { return submit_to(shard_of(req.key), req); }

  /// Same, with an explicit shard (tests, shard-aware clients).
  SubmitResult submit_to(int shard, Request req) {
    // A request enqueued after the workers drained and exited would never
    // run (breaking completed == accepted, and making call() spin forever),
    // so refuse once shutdown has begun. Best-effort: a submit racing the
    // stop() call itself may still be accepted, and then drains normally.
    if (stopping_.load(std::memory_order_acquire)) {
      SubmitResult r;
      r.admit = Admit::kStopped;
      rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    RequestQueue& q = *queues_[static_cast<std::size_t>(shard)];
    req.enqueue_ns = si::obs::wall_ns();
    const Admit admit = q.try_push(req);
    SubmitResult r;
    r.admit = admit;
    r.depth = q.approx_depth();
    switch (admit) {
      case Admit::kAccepted:
        accepted_.fetch_add(1, std::memory_order_relaxed);
        wake_if_parked(shard);
        break;
      case Admit::kBusy:
        rejected_busy_.fetch_add(1, std::memory_order_relaxed);
        r.retry_hint_us = retry_hint_us(r.depth);
        break;
      case Admit::kFull:
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        r.retry_hint_us = retry_hint_us(q.capacity());
        break;
      case Admit::kStopped:  // handled by the early return above
        break;
    }
    return r;
  }

  /// Synchronous convenience wrapper: submits and spins until the request
  /// completes (in-process callers only). Returns false when rejected.
  bool call(Request req, Response* out) {
    struct Slot {
      Response resp;
      std::atomic<bool> done{false};
    } slot;
    req.done = [](void* ctx, const Response& resp) {
      auto* s = static_cast<Slot*>(ctx);
      s->resp = resp;
      s->done.store(true, std::memory_order_release);
    };
    req.ctx = &slot;
    if (!submit(std::move(req)).accepted()) return false;
    si::util::Backoff bo;
    while (!slot.done.load(std::memory_order_acquire)) bo.pause();
    if (out != nullptr) *out = slot.resp;
    return true;
  }

  /// Registers the calling thread on the next free runtime tid in
  /// [shards, runtime.max_threads) so it may call serve_inline(). Returns the
  /// tid, or -1 when no tid is left (the obs sinks bound the range too), the
  /// app has no inline_op hook, or a HistoryRecorder is attached: recorded
  /// real-thread histories are exact only while the backend stays
  /// single-threaded (check/history.hpp), so recording runs keep every
  /// request, reads and updates alike, on the workers.
  int attach_reader() {
    if (!HasInlineOp<App>::value || cfg_.runtime.recorder != nullptr) {
      return -1;
    }
    const int tid = next_reader_.fetch_add(1, std::memory_order_relaxed);
    if (tid >= reader_limit()) return -1;
    rt_.register_thread(tid);
    return tid;
  }

  /// Runs `req` to completion on the calling thread and fills `*out`;
  /// `req.done` is not invoked. `tid` is the caller's reader tid (from
  /// attach_reader()). A kRead op runs on it. A kUpdate op runs on its
  /// shard's tid, and only when it is not logged, its shard's queue is empty
  /// and try_lock wins every shard's lease, so no worker is executing
  /// anywhere: an update whose safety wait met a preempted worker would
  /// stall the caller's whole event loop (DESIGN.md §9). Returns what it
  /// ran, counted as accepted and completed (so completed == accepted and
  /// the /series reconcile stay exact), or kNone, with nothing counted, when
  /// it refused — also once stop() began — in which case the caller submits.
  InlineOp serve_inline(int tid, Request& req, Response* out) {
    if constexpr (!HasInlineOp<App>::value) {
      return InlineOp::kNone;
    } else {
      const InlineOp kind = App::inline_op(req.op);
      if (kind == InlineOp::kNone) return kind;
      // Logged updates wait for their group's flush on the worker.
      if (kind == InlineOp::kUpdate && logged(req.op)) return InlineOp::kNone;
      // Dekker pair with stop(): either stop() sees this request in flight
      // and waits for it, or this request sees stopping_ and backs out.
      inline_active_.fetch_add(1, std::memory_order_seq_cst);
      if (stopping_.load(std::memory_order_seq_cst)) {
        inline_active_.fetch_sub(1, std::memory_order_release);
        return InlineOp::kNone;
      }
      if (kind == InlineOp::kRead) {
        run_inline(tid, req, out);
      } else {
        const int shard = shard_of(req.key);
        if (!queues_[static_cast<std::size_t>(shard)]->empty() ||
            !try_lease_all()) {
          inline_active_.fetch_sub(1, std::memory_order_release);
          return InlineOp::kNone;
        }
        rt_.register_thread(shard);
        run_inline(shard, req, out);
        rt_.register_thread(tid);
        release_all_leases();
      }
      inline_active_.fetch_sub(1, std::memory_order_release);
      return kind;
    }
  }

  /// Rejects further submissions (Admit::kStopped) and joins the workers
  /// after they drained every already-accepted request, so completed ==
  /// accepted at return (an inline request that began before stop() finishes
  /// first). With durability on, every worker flushed its log once its
  /// queue drained and released the acks that flush covered, so a clean
  /// SIGTERM drain leaves no buffered tail and is recoverable with zero
  /// replay loss, and every accepted request's completion has fired by the
  /// time stop() returns (the TCP front ends rely on that ordering:
  /// Service::stop() precedes reactor teardown). The one exception is a
  /// log whose write or fsync failed: its acks are never released.
  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    si::util::Backoff bo;
    while (inline_active_.load(std::memory_order_seq_cst) != 0) bo.pause();
    if (epoch_thread_.joinable()) {
      // The empty critical section orders the stopping_ store before the
      // epoch thread's predicate check, so the notify cannot be lost.
      { std::lock_guard<std::mutex> g(epoch_mu_); }
      epoch_cv_.notify_one();
      epoch_thread_.join();
    }
    for (int s = 0; s < cfg_.shards; ++s) {
      ShardWake& w = wake_[static_cast<std::size_t>(s)];
      w.word.fetch_add(1, std::memory_order_release);
      w.word.notify_one();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    // Final drain epoch: the workers completed every accepted request before
    // exiting, and no thread records into the metrics any more, so this
    // record captures the tail exactly — after it, the sum of per-epoch
    // completed deltas equals ServiceCounters.completed (zero drift).
    if (aggregator_ != nullptr) push_epoch();
  }

  /// Last published controller state (zeros when AIMD is disabled). Exact
  /// once stop() returned; a copy of the latest completed epoch mid-run.
  AimdState aimd_state() const {
    std::lock_guard<std::mutex> g(aimd_mu_);
    return aimd_state_;
  }

  /// The epoch time-series ring (null unless cfg.telemetry.enabled).
  const si::obs::TimeSeries* timeseries() const noexcept {
    return series_.get();
  }

  /// The metrics sink the backend records into (caller-supplied or the
  /// service's private one); null when neither AIMD nor telemetry forced
  /// one and the caller supplied none.
  si::obs::Metrics* metrics() const noexcept {
    return cfg_.runtime.obs.metrics;
  }

  /// Registers a provider for the front-end columns of each epoch record
  /// (connections accepted, flushes, bytes out — cumulative totals). The
  /// TCP front ends own those counters, so the service pulls them through
  /// this hook each tick. Call any time; the epoch thread reads it under a
  /// lock. Pass nullptr to detach (the reactor pool's stats die with it —
  /// detach before tearing the pool down).
  void set_front_end_stats(
      std::function<void(std::uint64_t* conns, std::uint64_t* flushes,
                         std::uint64_t* bytes_out)>
          fn) {
    std::lock_guard<std::mutex> g(fe_mu_);
    fe_stats_ = std::move(fn);
  }

  ServiceCounters counters() const noexcept {
    ServiceCounters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
    c.rejected_full = rejected_full_.load(std::memory_order_relaxed);
    c.rejected_stopped = rejected_stopped_.load(std::memory_order_relaxed);
    c.completed = completed_.load(std::memory_order_relaxed);
    c.failed = failed_.load(std::memory_order_relaxed);
    return c;
  }

  std::size_t queue_depth(int shard) const noexcept {
    return queues_[static_cast<std::size_t>(shard)]->approx_depth();
  }

  /// Highest LSN known durable on `shard` (0 with durability off). Any
  /// completion whose Response::lsn is <= this value has stable storage
  /// backing it — the ack-gating test asserts callbacks only ever observe
  /// durable_lsn(shard) >= resp.lsn.
  std::uint64_t durable_lsn(int shard) const noexcept {
    if (logs_.empty()) return 0;
    return logs_[static_cast<std::size_t>(shard)]->durable_lsn();
  }

  /// Highest LSN appended on `shard` (0 with durability off).
  std::uint64_t appended_lsn(int shard) const noexcept {
    if (logs_.empty()) return 0;
    return logs_[static_cast<std::size_t>(shard)]->appended_lsn();
  }

  /// Aggregated log-plane counters (all zeros with durability off). Racy
  /// snapshot, same tolerance as the metrics histograms.
  DurabilityStats durability_stats() const noexcept {
    DurabilityStats d;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      const si::durability::ShardLogStats s = logs_[i]->stats();
      d.appends += s.appends;
      d.bytes += s.bytes;
      d.flushes += s.flushes;
      d.fsyncs += s.fsyncs;
      d.io_errors += s.io_errors;
      d.appended_lsn += s.appended_lsn;
      d.durable_lsn += s.durable_lsn;
      d.acks_held += acks_held_[i].load(std::memory_order_relaxed);
    }
    return d;
  }

  int shard_of(std::uint64_t key) const noexcept {
    // splitmix64 finalizer: decorrelates adjacent keys from shard index.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<int>(h % static_cast<std::uint64_t>(cfg_.shards));
  }

 private:
  static ServiceConfig fixup(ServiceConfig cfg) {
    if (cfg.shards < 1) cfg.shards = 1;
    if (cfg.batch_max < 1) cfg.batch_max = 1;
    if (cfg.runtime.max_threads < cfg.shards) {
      cfg.runtime.max_threads = cfg.shards;
    }
    if (cfg.aimd.epoch_us < 100) cfg.aimd.epoch_us = 100;
    if (cfg.aimd.min_watermark < 1) cfg.aimd.min_watermark = 1;
    if (cfg.telemetry.epoch_us < 100) cfg.telemetry.epoch_us = 100;
    if (cfg.telemetry.ring < 1) cfg.telemetry.ring = 1;
    return cfg;
  }

  /// One past the highest tid attach_reader() may hand out: the runtime's
  /// thread population, capped by the obs sinks' per-thread slots.
  int reader_limit() const noexcept {
    const si::obs::ObsConfig& obs = cfg_.runtime.obs;
    int limit = cfg_.runtime.max_threads;
    if (obs.metrics != nullptr && obs.metrics->threads() < limit) {
      limit = obs.metrics->threads();
    }
    if (obs.tracer != nullptr && obs.tracer->threads() < limit) {
      limit = obs.tracer->threads();
    }
    return limit;
  }

  /// Creates a private Metrics sink when the epoch thread (AIMD and/or the
  /// time-series aggregator) needs telemetry and the caller supplied none.
  /// Runs in the ctor initializer list *before* rt_ so the patched
  /// cfg_.runtime.obs reaches the backend.
  std::unique_ptr<si::obs::Metrics> make_own_metrics() {
    const bool needed = cfg_.aimd.enabled || cfg_.telemetry.enabled;
    if (!needed || cfg_.runtime.obs.metrics != nullptr) {
      return nullptr;
    }
    auto m = std::make_unique<si::obs::Metrics>(cfg_.runtime.max_threads);
    cfg_.runtime.obs.metrics = m.get();
    return m;
  }

  /// Queueing-delay estimate for the client's retry backoff: ~1 us per
  /// queued request (conservative for the emulated backends), floored at the
  /// service-time p50 the AIMD epoch loop last observed — retrying sooner
  /// than one median request time cannot succeed. Before any telemetry
  /// lands (or with AIMD off) the floor falls back to 50 us.
  std::uint64_t retry_hint_us(std::size_t depth) const noexcept {
    const std::uint64_t p50_us =
        observed_p50_us_.load(std::memory_order_relaxed);
    const std::uint64_t floor_us = p50_us > 0 ? p50_us : 50;
    const std::uint64_t hint = static_cast<std::uint64_t>(depth);
    return hint < floor_us ? floor_us : hint;
  }

  /// Epoch thread: on each tick, diff the metrics histograms and (a) let the
  /// AIMD controller judge the epoch and fan the watermark out to every
  /// shard queue, (b) push an EpochRecord into the time-series ring —
  /// whichever of the two is enabled. Snapshot reads race the recording
  /// workers by design (obs/metrics.hpp); the saturating subtracts keep a
  /// torn window non-negative. One thread serves both consumers so the
  /// /series epochs line up with the controller's decisions.
  void epoch_loop() {
    si::obs::Metrics* metrics = cfg_.runtime.obs.metrics;
    std::optional<AimdController> ctl;
    if (cfg_.aimd.enabled) {
      ctl.emplace(cfg_.aimd, queues_[0]->capacity(), queues_[0]->watermark());
    }
    si::obs::MetricsSnapshot prev = metrics->snapshot();
    // The wakeup sum is an AIMD-only signal, and sampling it walks the
    // backend's plain per-thread counters — don't touch it on the
    // telemetry-only path.
    std::uint64_t prev_wakeups = ctl ? total_sgl_wakeups() : 0;
    // AIMD's tick wins when both are on: the controller's cadence is part of
    // its control loop, and sharing it keeps one snapshot per epoch.
    const auto epoch = std::chrono::microseconds(
        cfg_.aimd.enabled ? cfg_.aimd.epoch_us : cfg_.telemetry.epoch_us);
    const auto stopped = [this] {
      return stopping_.load(std::memory_order_acquire);
    };
    for (;;) {
      {
        // stop() signals epoch_cv_, so its join never waits out an epoch.
        std::unique_lock<std::mutex> lk(epoch_mu_);
        if (epoch_cv_.wait_for(lk, epoch, stopped)) break;
      }
      si::obs::MetricsSnapshot cur = metrics->snapshot();
      if (ctl) {
        si::util::Histogram lat = cur.request_latency;
        lat.subtract(prev.request_latency);
        si::util::Histogram ret = cur.retries;
        ret.subtract(prev.retries);
        // Third signal: this epoch's SGL futex wake-ups (serve/aimd.hpp).
        const std::uint64_t cur_wakeups = total_sgl_wakeups();
        const std::uint64_t wakeups_delta =
            cur_wakeups >= prev_wakeups ? cur_wakeups - prev_wakeups : 0;
        prev_wakeups = cur_wakeups;
        const std::size_t wm = ctl->on_epoch(lat, ret, wakeups_delta);
        for (auto& q : queues_) q->set_watermark(wm);
        if (lat.count() > 0) {
          std::uint64_t p50_us = ctl->state().last_p50_ns / 1000;
          if (p50_us == 0) p50_us = 1;
          observed_p50_us_.store(p50_us, std::memory_order_relaxed);
        }
        {
          std::lock_guard<std::mutex> g(aimd_mu_);
          aimd_state_ = ctl->state();
        }
      }
      if (aggregator_ != nullptr) push_epoch(&cur);
      prev = cur;
    }
    if (ctl) {
      std::lock_guard<std::mutex> g(aimd_mu_);
      aimd_state_ = ctl->state();
    }
  }

  /// Samples the cumulative service counters and pushes one epoch record.
  /// Called from the epoch thread, and once more from stop() after the
  /// workers joined (the final drain record). `cur` avoids a re-snapshot
  /// when the caller already took one; pass nullptr to snapshot here.
  void push_epoch(const si::obs::MetricsSnapshot* cur = nullptr) {
    si::obs::EpochExternals ext;
    ext.now_s =
        (si::obs::wall_ns() - start_ns_) / 1e9;
    ext.completed = completed_.load(std::memory_order_relaxed);
    ext.accepted = accepted_.load(std::memory_order_relaxed);
    ext.rejected = rejected_busy_.load(std::memory_order_relaxed) +
                   rejected_full_.load(std::memory_order_relaxed) +
                   rejected_stopped_.load(std::memory_order_relaxed);
    ext.failed = failed_.load(std::memory_order_relaxed);
    ext.watermark = queues_[0]->watermark();
    {
      std::lock_guard<std::mutex> g(fe_mu_);
      if (fe_stats_) fe_stats_(&ext.conns, &ext.flushes, &ext.bytes_out);
    }
    if (!logs_.empty()) {
      const DurabilityStats d = durability_stats();
      ext.log_appends = d.appends;
      ext.log_bytes = d.bytes;
      ext.log_fsyncs = d.fsyncs;
      ext.durable_lsn = d.durable_lsn;
    }
    if (cur != nullptr) {
      aggregator_->on_epoch(*cur, ext);
    } else {
      aggregator_->on_epoch(cfg_.runtime.obs.metrics->snapshot(), ext);
    }
  }

  /// Sum of the SGL sleep wake-ups over the worker tids. Racy snapshot of
  /// plain counters, same tolerance as the histogram snapshots above.
  std::uint64_t total_sgl_wakeups() {
    std::uint64_t total = 0;
    const auto& stats = rt_.thread_stats();
    for (const auto& ts : stats) total += ts.sgl_sleep_wakeups;
    return total;
  }

  /// Per-shard park/wake handshake (DESIGN.md section 9). `waiting` is the
  /// worker's announcement that it is about to block; `word` is the futex
  /// it blocks on, bumped by whoever wakes it. `lease` is held by whoever
  /// executes on the shard's tid: its worker for a popped batch and that
  /// batch's group commit, or serve_inline() for an inline update. It sits
  /// on lines of its own, so the worker's lock per batch does not evict the
  /// `waiting` flag every submit() reads.
  struct alignas(128) ShardWake {
    std::atomic<std::uint32_t> word{0};
    std::atomic<bool> waiting{false};
    alignas(128) std::mutex lease;
  };

  /// Takes every shard's lease, or none: never blocks, so a worker busy on
  /// any shard sends the inline update back to the queue.
  bool try_lease_all() noexcept {
    for (int s = 0; s < cfg_.shards; ++s) {
      if (!wake_[static_cast<std::size_t>(s)].lease.try_lock()) {
        while (s-- > 0) wake_[static_cast<std::size_t>(s)].lease.unlock();
        return false;
      }
    }
    return true;
  }

  void release_all_leases() noexcept {
    for (int s = 0; s < cfg_.shards; ++s) {
      wake_[static_cast<std::size_t>(s)].lease.unlock();
    }
  }

  /// Producer half of the handshake, after a successful push. The fence
  /// pairs with the one in park(): either this load sees `waiting`, or the
  /// worker's emptiness re-check sees the push. A busy worker costs no
  /// syscall.
  void wake_if_parked(int shard) noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    ShardWake& w = wake_[static_cast<std::size_t>(shard)];
    if (w.waiting.load(std::memory_order_relaxed)) {
      w.word.fetch_add(1, std::memory_order_release);
      w.word.notify_one();
    }
  }

  /// Worker half: announce, fence, re-check, then block. `seen` is read
  /// before the announcement, so a bump that raced the re-check makes
  /// wait() return at once instead of sleeping on a stale value.
  void park(int tid, const RequestQueue& q) noexcept {
    ShardWake& w = wake_[static_cast<std::size_t>(tid)];
    const std::uint32_t seen = w.word.load(std::memory_order_acquire);
    w.waiting.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (q.empty() && !stopping_.load(std::memory_order_relaxed)) {
      w.word.wait(seen, std::memory_order_acquire);
    }
    w.waiting.store(false, std::memory_order_relaxed);
  }

  /// A completed response waiting for its covering flush.
  struct HeldAck {
    std::uint64_t lsn = 0;
    double enqueue_ns = 0.0;
    Response resp{};
    CompletionFn done = nullptr;
    void* ctx = nullptr;
  };

  void worker_loop(int tid) {
    rt_.register_thread(tid);
    RequestQueue& q = *queues_[static_cast<std::size_t>(tid)];
    std::mutex& lease = wake_[static_cast<std::size_t>(tid)].lease;
    std::vector<Request> batch(cfg_.batch_max);
    std::vector<HeldAck> held;  // acks waiting for this shard's next flush
    std::size_t unflushed = 0;  // WAL records appended since that flush
    const si::obs::ObsConfig& obs = cfg_.runtime.obs;
    for (;;) {
      const std::size_t n = q.pop_batch(batch.data(), cfg_.batch_max);
      if (n == 0) {
        if (unflushed > 0) {
          std::lock_guard<std::mutex> g(lease);
          group_commit(tid, &held);
          unflushed = 0;
        }
        // Drain-then-exit: stopping_ is checked only on an empty queue, so
        // every accepted request completes, and its record is flushed,
        // before the worker leaves.
        if (stopping_.load(std::memory_order_acquire) && q.empty()) break;
        park(tid, q);
        continue;
      }
      // Held until this batch's group closes: no inline update runs on any
      // shard's tid meanwhile (serve_inline()).
      std::lock_guard<std::mutex> g(lease);
      if (obs.enabled()) {
        obs.req_dequeue(tid, si::obs::wall_ns(),
                        static_cast<std::uint32_t>(q.approx_depth() + n));
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (serve_one(tid, batch[i], obs, &held)) ++unflushed;
      }
      // Group commit (DESIGN.md §14): the group closes when the queue has
      // drained, since nothing else could join it, or once batch_max
      // records wait; until then the next batch's reads run unblocked.
      if (unflushed > 0 && (unflushed >= cfg_.batch_max || q.empty())) {
        group_commit(tid, &held);
        unflushed = 0;
      }
    }
  }

  /// Executes one request and completes it, or holds its ack for the
  /// group's flush. Returns true when the request appended a WAL record.
  bool serve_one(int tid, const Request& req, const si::obs::ObsConfig& obs,
                 std::vector<HeldAck>* held) {
    Response resp;
    resp.id = req.id;
    if (!logged(req.op)) {
      execute_and_count(tid, req, &resp, obs);
    } else if (logs_[static_cast<std::size_t>(tid)]->failed()) {
      // Fail-stop: a log that lost a write can make nothing durable again,
      // so a logged update is refused unexecuted instead of being applied in
      // memory and held for good. The acks already held stay held.
      resp.status = Status::kFailed;
      count_completion(tid, req, &resp, obs);
    } else {
      // Ack gating (DESIGN.md §14): a committed update is appended to the
      // shard's WAL and its completion is held until the covering LSN is
      // durable. Read-only ops, failed requests and -durability off keep the
      // immediate-ack path.
      execute_and_count(tid, req, &resp, obs);
      if (resp.status == Status::kOk) {
        resp.lsn = logs_[static_cast<std::size_t>(tid)]->append(
            req.id, req.key, req.arg, req.op);
        if (req.done != nullptr) {
          held->push_back({resp.lsn, req.enqueue_ns, resp, req.done, req.ctx});
        }
        return true;
      }
    }
    if (req.done != nullptr) req.done(req.ctx, resp);
    return false;
  }

  /// True when a committed `op` must reach the WAL before its ack.
  bool logged(std::uint16_t op) const noexcept {
    if constexpr (HasLoggedOp<App>::value) {
      return !logs_.empty() && App::logged_op(op);
    } else {
      return false;
    }
  }

  /// serve_inline()'s execution on `tid`: stamps the request, counts it as
  /// accepted and runs it like a worker would.
  void run_inline(int tid, Request& req, Response* out) {
    req.enqueue_ns = si::obs::wall_ns();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    *out = Response{};
    out->id = req.id;
    execute_and_count(tid, req, out, cfg_.runtime.obs);
  }

  /// Closes a group: one write, plus one fdatasync in the sync modes, covers
  /// every record appended since the last flush; then the acks the new
  /// durable LSN covers fire, in LSN order. After a failed write or fsync
  /// the durable LSN never moves again, so those acks stay held for good.
  void group_commit(int tid, std::vector<HeldAck>* held) {
    si::durability::ShardLog& log = *logs_[static_cast<std::size_t>(tid)];
    log.flush();
    const std::uint64_t durable = log.durable_lsn();
    const double now = si::obs::wall_ns();
    si::obs::Metrics* metrics = cfg_.runtime.obs.metrics;
    std::size_t released = 0;
    for (; released < held->size() && (*held)[released].lsn <= durable;
         ++released) {
      const HeldAck& ack = (*held)[released];
      if (metrics != nullptr) {
        const double d = now - ack.enqueue_ns;
        metrics->of(tid).durable_ack.record(
            d > 0 ? static_cast<std::uint64_t>(d) : 0);
      }
      ack.done(ack.ctx, ack.resp);
    }
    held->erase(held->begin(),
                held->begin() + static_cast<std::ptrdiff_t>(released));
    acks_held_[static_cast<std::size_t>(tid)].store(held->size(),
                                                    std::memory_order_relaxed);
  }

  /// The part of serving a request that the worker and the inline path
  /// share: run the app on `tid`, then count the completion.
  void execute_and_count(int tid, const Request& req, Response* resp,
                         const si::obs::ObsConfig& obs) {
    app_.execute(rt_, tid, req, resp);
    count_completion(tid, req, resp, obs);
  }

  /// Stamps the latency, records the completion telemetry and bumps the
  /// counters.
  void count_completion(int tid, const Request& req, Response* resp,
                        const si::obs::ObsConfig& obs) {
    resp->latency_ns = si::obs::wall_ns() - req.enqueue_ns;
    if (resp->latency_ns < 0) resp->latency_ns = 0;
    if (obs.enabled()) {
      obs.req_complete(tid, req.enqueue_ns + resp->latency_ns, req.enqueue_ns,
                       req.op, static_cast<std::uint32_t>(resp->status));
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (resp->status == Status::kFailed) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Opens one ShardLog per shard (worker tid == shard index == log index).
  /// Throws on an unopenable directory/file or a shard-layout mismatch —
  /// serving without the log the operator asked for would silently ack
  /// non-durable writes.
  void open_logs() {
    if constexpr (!HasLoggedOp<App>::value) {
      throw std::invalid_argument(
          "durability enabled but the app has no logged_op hook");
    }
    if (cfg_.durability.dir.empty()) {
      throw std::invalid_argument("durability enabled but no log dir");
    }
    logs_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      auto log = std::make_unique<si::durability::ShardLog>();
      std::string err;
      if (!log->open(cfg_.durability.dir, static_cast<std::uint32_t>(s),
                     static_cast<std::uint32_t>(cfg_.shards),
                     cfg_.durability.mode, &err)) {
        throw std::runtime_error("wal: " + err);
      }
      logs_.push_back(std::move(log));
    }
    acks_held_ = std::make_unique<std::atomic<std::size_t>[]>(
        static_cast<std::size_t>(cfg_.shards));
  }

  ServiceConfig cfg_;
  App& app_;
  /// Declared before rt_: make_own_metrics() patches cfg_.runtime.obs.
  std::unique_ptr<si::obs::Metrics> own_metrics_;
  si::runtime::Runtime rt_;
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::unique_ptr<ShardWake[]> wake_;  ///< one per shard, beside queues_
  std::atomic<bool> stopping_{false};
  mutable std::mutex aimd_mu_;
  AimdState aimd_state_;  ///< guarded by aimd_mu_
  std::atomic<std::uint64_t> observed_p50_us_{0};
  std::unique_ptr<si::obs::TimeSeries> series_;        ///< telemetry only
  std::unique_ptr<si::obs::EpochAggregator> aggregator_;
  double start_ns_ = 0.0;  ///< service birth, obs::wall_ns clock
  mutable std::mutex fe_mu_;
  std::function<void(std::uint64_t*, std::uint64_t*, std::uint64_t*)>
      fe_stats_;  ///< guarded by fe_mu_
  alignas(128) std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_stopped_{0};
  alignas(128) std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> next_reader_{0};    ///< set to shards in the ctor
  std::atomic<int> inline_active_{0};  ///< serve_inline() calls in progress
  // Durability tier (empty/idle when cfg_.durability.mode == kOff).
  std::vector<std::unique_ptr<si::durability::ShardLog>> logs_;
  /// Per shard: the acks its worker's last flush left held (set by the
  /// worker, read by telemetry).
  std::unique_ptr<std::atomic<std::size_t>[]> acks_held_;

  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;  ///< stop() wakes the epoch thread
  std::thread epoch_thread_;  ///< runs when AIMD and/or telemetry is enabled
  std::vector<std::thread> workers_;  ///< last member: joins before teardown
};

}  // namespace si::serve
