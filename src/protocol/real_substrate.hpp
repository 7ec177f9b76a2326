// RealSubstrate: the protocol cores on real threads, backed by the P8-HTM
// emulation (src/p8htm/). Hardware-transaction primitives map to HtmRuntime,
// the state array is the std::atomic StateTable, waits are std::atomic
// spinning with util::Backoff, fences are real std::atomic_thread_fence
// instructions, and the simulator-only latency hooks are no-ops.
//
// One RealSubstrate owns one HtmRuntime, state array, SGL and logical clock:
// it is the "machine" a protocol core instance runs on. Pure-software cores
// (Silo) still route thread registration through the runtime — it is the
// thread-id authority — and simply never enter a hardware transaction.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "check/history.hpp"
#include "p8htm/htm.hpp"
#include "p8htm/topology.hpp"
#include "protocol/state_table.hpp"
#include "protocol/substrate.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/logical_clock.hpp"
#include "util/slim_lock.hpp"
#include "util/stats.hpp"

namespace si::protocol {

struct RealSubstrateConfig {
  si::p8::HtmConfig htm{};
  int max_threads = 80;  ///< size of the state array (N in Algorithm 1)

  /// Straggler-killing policy (the paper's future-work "killing
  /// alternative", section 6): after this many safety-wait spins on one
  /// straggler, kill its hardware transaction instead of waiting it out.
  /// 0 disables the policy (the paper's evaluated configuration).
  /// Read-only stragglers run outside any hardware transaction and cannot
  /// be killed; the wait simply continues for them.
  std::uint64_t straggler_kill_spins = 0;

  /// Optional history recording for the SI checker (check/history.hpp).
  /// Null (the default) disables it; the hooks then cost one branch. On
  /// real threads the stamp and the access are separate instructions, so
  /// multi-threaded histories are diagnostic, single-threaded ones exact.
  si::check::HistoryRecorder* recorder = nullptr;

  /// Optional tracing/metrics sinks (obs/obs.hpp). Default-disabled; the
  /// instrumentation sites then cost one branch each.
  si::obs::ObsConfig obs{};

  /// Which lock backs the SGL: the futex slim lock (default) or the seed's
  /// TTAS spin, kept as the bench_contention / equivalence baseline.
  si::util::SglImpl sgl_impl = si::util::SglImpl::kSlim;

  /// Admit SI-HTM's non-transactional read-only path in shared mode while
  /// an SGL holder drains (DESIGN.md section 11). Only meaningful with the
  /// slim lock; TTAS never grants shared mode.
  bool sgl_shared_ro = true;
};

class RealSubstrate {
 public:
  using Config = RealSubstrateConfig;

  /// Silo's bound on spins over a locked line before an optimistic read
  /// aborts; a spin here is one short backoff pause.
  static constexpr int kMaxReadSpins = 1024;

  explicit RealSubstrate(RealSubstrateConfig cfg = {})
      : cfg_(cfg),
        rt_(cfg.htm),
        state_(cfg.max_threads),
        gl_(cfg.sgl_impl),
        gl_shared_by_(static_cast<std::size_t>(cfg.max_threads)),
        stats_(static_cast<std::size_t>(cfg.max_threads)) {
    assert(cfg.max_threads <= si::p8::kMaxThreads);
    // The emulation emits its own hw-rollback / hw-kill trace events at the
    // instant they happen (the cores only observe them later, as TxAbort),
    // and bumps the killer-side hw-kill-initiated taxonomy counter.
    rt_.set_tracer(cfg_.obs.tracer);
    rt_.set_metrics(cfg_.obs.metrics);
  }

  /// Binds the calling thread to slot `tid` of the state array.
  void register_thread(int tid) { rt_.register_thread(tid); }

  // --- identity / bookkeeping ---------------------------------------------

  int tid() const { return rt_.thread_id(); }
  int n_threads() const { return state_.size(); }
  si::util::ThreadStats& stats(int t) {
    return stats_[static_cast<std::size_t>(t)];
  }
  si::check::HistoryRecorder* recorder() const { return cfg_.recorder; }
  double rec_now() const { return 0.0; }  // real events carry no timestamp
  const si::obs::ObsConfig* obs() const {
    return cfg_.obs.enabled() ? &cfg_.obs : nullptr;
  }
  double obs_now() const { return si::obs::wall_ns(); }

  // --- hardware transactions ----------------------------------------------

  void pre_begin(HwMode) {}  // begin latency is real, not modelled
  void hw_begin(HwMode mode) {
    rt_.begin(mode == HwMode::kRot ? si::p8::TxMode::kRot
                                   : si::p8::TxMode::kHtm);
  }
  void hw_commit() { rt_.commit(); }
  void check_killed() { rt_.check_killed(); }
  [[noreturn]] void self_abort(si::util::AbortCause cause) {
    rt_.self_abort(cause);
  }
  void kill_tx_of(int t, si::util::AbortCause cause) { rt_.kill_tx_of(t, cause); }

  // --- memory --------------------------------------------------------------

  void tx_read(void* dst, const void* src, std::size_t n) {
    rt_.load_bytes(dst, src, n);
  }
  void tx_write(void* dst, const void* src, std::size_t n) {
    rt_.store_bytes(dst, src, n);
  }
  void plain_read(void* dst, const void* src, std::size_t n) {
    rt_.plain_load_bytes(dst, src, n);
  }
  void plain_write(void* dst, const void* src, std::size_t n) {
    rt_.plain_store_bytes(dst, src, n);
  }

  // --- state array + logical time -----------------------------------------

  std::uint64_t state(int t) const { return state_.get(t); }
  std::uint64_t timestamp() { return clock_.now(); }

  void announce(std::uint64_t ts) {
    state_.set(tid(), ts);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // sync()
  }
  void set_inactive() { state_.set(tid(), kStateInactive); }
  void release_inactive() {
    std::atomic_thread_fence(std::memory_order_release);  // lwsync
    state_.set(tid(), kStateInactive);
  }
  void release_fence() {
    std::atomic_thread_fence(std::memory_order_release);
  }
  void publish_completed() {
    rt_.suspend();
    state_.set(tid(), kStateCompleted);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // sync()
    rt_.resume();  // throws if a conflict hit us while suspended
  }
  void snapshot_states(std::uint64_t* out) const { state_.snapshot(out); }

  // --- waiting --------------------------------------------------------------

  struct Poller {
    si::util::Backoff backoff;
    void poll() noexcept { backoff.pause(); }
  };
  Poller poller() { return {}; }

  struct WaitScope {
    si::util::ThreadStats& st;
    si::util::Backoff backoff;
    void reset() noexcept { backoff.reset(); }
    void tick() noexcept { ++st.wait_cycles; }
    void poll() noexcept { backoff.pause(); }
  };
  WaitScope wait_scope(si::util::ThreadStats& st) { return {st}; }

  struct DrainScope {
    si::util::ThreadStats& st;
    si::util::Backoff backoff;
    void reset() noexcept { backoff.reset(); }
    void poll() noexcept {
      ++st.sgl_wait_cycles;
      backoff.pause();
    }
  };
  DrainScope drain_scope(si::util::ThreadStats& st) { return {st}; }

  struct StragglerGuard {
    std::uint64_t threshold;
    std::uint64_t spins = 0;
    bool armed() const noexcept { return threshold != 0; }
    bool should_kill() noexcept { return ++spins > threshold; }
    void rearm() noexcept { spins = 0; }
  };
  StragglerGuard straggler_guard() const {
    return {cfg_.straggler_kill_spins};
  }

  void abort_backoff(int /*attempt*/) {}  // real retries back-to-back

  // --- single global lock ---------------------------------------------------

  bool gl_locked() const { return gl_.is_locked(); }

  /// Update-mode acquire. Contended waiters spin briefly then park on the
  /// slim lock's futex; wake-ups slept through land in sgl_sleep_wakeups
  /// and bracket the blocking section with kSglWait/kSglWake instants.
  void gl_lock() {
    const int t = tid();
    const auto* o = gl_.is_locked() ? obs() : nullptr;
    if (o) o->sgl_wait(t, obs_now());
    const std::uint32_t wakeups = gl_.lock(static_cast<std::uint32_t>(t));
    if (wakeups > 0) {
      stats(t).sgl_sleep_wakeups += wakeups;
      if (o) o->sgl_wake(t, obs_now(), wakeups);
    }
  }

  /// Update -> exclusive before the SGL body's plain writes: waits out
  /// shared-mode read-only joiners (no-op under TTAS, which never grants
  /// shared mode).
  void gl_upgrade() {
    stats(tid()).sgl_sleep_wakeups += gl_.upgrade();
  }

  /// Read-only overlap door (SI-HTM drain phase). Gated on the config so
  /// the overlap can be ablated independently of the lock implementation.
  bool gl_try_shared() {
    if (!cfg_.sgl_shared_ro || !gl_.try_lock_shared()) return false;
    // seq_cst handshake with the holder's drain: see gl_in_shared().
    gl_shared_by_[static_cast<std::size_t>(tid())].v.store(1);
    return true;
  }
  void gl_unlock_shared() {
    // Clear membership before dropping the shared count: once gl_upgrade()
    // sees count == 0 every flag is already down, and the seq_cst store
    // orders before this thread's next announce(), so a drain that observed
    // the new announce cannot read the stale flag.
    gl_shared_by_[static_cast<std::size_t>(tid())].v.store(0);
    gl_.unlock_shared();
  }
  /// True while thread `t` holds the SGL in shared mode. The update-mode
  /// holder's drain loop skips such threads (their announced state slots
  /// stay active for the whole read-only run); gl_upgrade()'s shared-count
  /// wait — not the state array — bounds their overlap before any plain
  /// write. Drain callers must read state(t) BEFORE this flag; both are
  /// seq_cst, so the flag can never be stale-high for a newer announce.
  bool gl_in_shared(int t) const {
    return gl_shared_by_[static_cast<std::size_t>(t)].v.load() != 0;
  }

  /// Sleep (not spin) until no update/exclusive holder exists; callers
  /// re-check their own condition afterwards.
  void gl_wait_unlocked(si::util::ThreadStats& st) {
    if (!gl_.is_locked()) return;
    const int t = tid();
    const auto* o = obs();
    if (o) o->sgl_wait(t, obs_now());
    const std::uint32_t wakeups = gl_.wait_unlocked();
    if (wakeups > 0) {
      st.sgl_sleep_wakeups += wakeups;
      if (o) o->sgl_wake(t, obs_now(), wakeups);
    }
  }

  void gl_unlock() { gl_.unlock(); }
  void gl_subscribe() { rt_.subscribe_line(&gl_); }
  void gl_unsubscribe() {}  // tracked lines are released with the tx
  void gl_kill_subscribers(si::util::AbortCause cause) {
    rt_.kill_line_owners(&gl_, cause);
  }

  // --- latency hooks (modelled time only; free on real hardware) -----------

  void charge_instr_read(std::size_t) {}
  void charge_occ(std::size_t) {}
  void charge_read(std::size_t) {}
  void charge_write_buffer() {}

  // --- escape hatches for the Tm holder and tests ---------------------------

  si::p8::HtmRuntime& htm() noexcept { return rt_; }
  std::vector<si::util::ThreadStats>& thread_stats() {
    // Mirror the emulation's owned-line fast-path counters into the stats
    // rows (cumulative snapshot; callers read this after their threads quiesce).
    for (int t = 0; t < n_threads(); ++t) {
      stats_[static_cast<std::size_t>(t)].fast_path = rt_.fast_path_stats(t);
    }
    return stats_;
  }
  const RealSubstrateConfig& config() const noexcept { return cfg_; }

 private:
  /// Padded per-thread shared-mode membership flag (one line each so drain
  /// polls never contend with the joiners' own stores).
  struct alignas(si::util::kLineSize) SharedFlag {
    std::atomic<std::uint8_t> v{0};
  };

  RealSubstrateConfig cfg_;
  si::p8::HtmRuntime rt_;
  StateTable state_;
  si::util::OwnedGlobalLock gl_;
  std::vector<SharedFlag> gl_shared_by_;
  si::util::LogicalClock clock_;
  std::vector<si::util::ThreadStats> stats_;
};

static_assert(Substrate<RealSubstrate>);

}  // namespace si::protocol
