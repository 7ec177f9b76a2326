// SI-HTM — the paper's contribution (section 3), transcribed once.
//
// Each update transaction runs as a ROT; before HTMEnd it performs the safety
// wait of Algorithm 1 (publish `completed`, then wait until every
// concurrently-active transaction has itself completed), which prevents the
// dirty-read/snapshot anomalies that raw ROTs admit (Fig. 3) and yields
// Snapshot Isolation (section 3.4). Read-only transactions run entirely
// non-transactionally and skip the wait (Algorithm 2); a single global lock
// with a quiescent acquisition is the fall-back path.
//
// The `SafetyWait` policy flag compiles the safety wait (and with it the
// whole state-array discipline and the SGL fall-back) out, yielding the
// UNSAFE raw-ROT ablation: update ROTs issue HTMEnd straight after the body
// and retry forever, read-only transactions skip the state table entirely.
// That mode exists so bench/ablation_quiescence can price the wait and so
// the fuzzer/checker can demonstrate the anomalies it prevents — it is NOT a
// correct SI implementation.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "p8htm/abort.hpp"
#include "p8htm/topology.hpp"
#include "protocol/retry_budget.hpp"
#include "protocol/substrate.hpp"
#include "util/stats.hpp"

namespace si::protocol {

struct SiHtmCoreConfig {
  int retries = 10;  ///< ROT attempts before the SGL (ignored by raw-ROT)
  /// Contention-aware budget replacing the static `retries` when enabled
  /// (protocol/retry_budget.hpp).
  RetryBudgetConfig retry_budget{};
};

template <Substrate S, bool SafetyWait = true>
class SiHtmCore {
 public:
  /// Per-attempt handle passed to transaction bodies; routes accesses to the
  /// path the attempt is running on (ROT / read-only / SGL).
  class Tx {
   public:
    using Path = TxPath;

    template <typename T>
    T read(const T* addr) {
      T out;
      read_bytes(&out, addr, sizeof(T));
      return out;
    }

    template <typename T>
    void write(T* addr, const T& value) {
      write_bytes(addr, &value, sizeof(T));
    }

    void read_bytes(void* dst, const void* src, std::size_t n) {
      // RO and SGL reads are plain coherence accesses: uninstrumented on
      // real hardware, writer-invalidating in both embodiments.
      if (path_ == TxPath::kRot) {
        sub_.tx_read(dst, src, n);
      } else {
        sub_.plain_read(dst, src, n);
      }
      if (auto* r = sub_.recorder()) r->read(sub_.tid(), src, n, dst, sub_.rec_now());
    }

    void write_bytes(void* dst, const void* src, std::size_t n) {
      assert(path_ != TxPath::kReadOnly &&
             "shared write inside a transaction declared read-only");
      if (path_ == TxPath::kRot) {
        sub_.tx_write(dst, src, n);
      } else {
        sub_.plain_write(dst, src, n);
      }
      if (auto* r = sub_.recorder()) r->write(sub_.tid(), dst, n, src, sub_.rec_now());
    }

    TxPath path() const noexcept { return path_; }
    bool is_read_only() const noexcept { return path_ == TxPath::kReadOnly; }

    Tx(S& sub, TxPath path) : sub_(sub), path_(path) {}

   private:
    S& sub_;
    TxPath path_;
  };

  using Config = SiHtmCoreConfig;

  SiHtmCore(S& sub, SiHtmCoreConfig cfg = {}) : sub_(sub), cfg_(cfg) {}

  /// Runs `body(Tx&)` as one SI transaction, retrying/falling back as needed
  /// until it commits. `is_ro` selects the read-only fast path (the paper
  /// assumes the programmer or a compiler provides this flag).
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    const int tid = sub_.tid();
    si::util::ThreadStats& st = sub_.stats(tid);

    if (is_ro) {
      bool shared = false;  // joined the SGL in shared mode for this attempt
      if constexpr (SafetyWait) {
        shared = ro_sync_with_gl(st);  // announces an active timestamp
      }
      if (shared) {
        if (const auto* o = sub_.obs()) o->ro_shared_admit(tid);
      }
      rec_begin(tid, /*ro=*/true);
      const double ot0 = obs_begin(tid, /*ro=*/true);
      Tx tx(sub_, TxPath::kReadOnly);
      body(tx);
      rec_commit(tid);
      obs_commit(tid, ot0, /*attempts=*/1);
      if constexpr (SafetyWait) {
        // TxEndExt, RO branch: all reads precede the state change (lwsync).
        sub_.release_inactive();
        if (shared) sub_.gl_unlock_shared();
      } else {
        sub_.release_fence();  // raw-ROT: no state table to retire from
      }
      ++st.commits;
      ++st.ro_commits;
      return;
    }

    // Static budget by default; the contention-aware budget reads the
    // thread's abort EWMA once per transaction when enabled.
    const int retry_budget = cfg_.retry_budget.enabled
                                 ? budgets_[tid].budget(cfg_.retry_budget)
                                 : cfg_.retries;
    if (cfg_.retry_budget.enabled && retry_budget < cfg_.retry_budget.max_retries) {
      if (const auto* o = sub_.obs()) o->retry_clamp(tid);
    }
    for (int attempt = 0; !SafetyWait || attempt < retry_budget; ++attempt) {
      if constexpr (SafetyWait) sync_with_gl(st);
      sub_.pre_begin(HwMode::kRot);
      rec_begin(tid, /*ro=*/false);
      const double ot0 = obs_begin(tid, /*ro=*/false);
      sub_.hw_begin(HwMode::kRot);
      bool committed = true;
      si::util::AbortCause cause = si::util::AbortCause::kNone;
      try {
        Tx tx(sub_, TxPath::kRot);
        body(tx);
        if constexpr (SafetyWait) {
          tx_end(tid, st, ot0, attempt + 1);
        } else {
          sub_.hw_commit();  // no safety wait: straight HTMEnd
          rec_commit(tid);
          obs_commit(tid, ot0, static_cast<std::uint32_t>(attempt + 1));
        }
      } catch (const si::p8::TxAbort& abort) {
        // NOTE: no substrate wait inside the catch — an active exception
        // must be fully handled before a fiber switch, or two fibers
        // interleave the thread's __cxa exception stack in non-LIFO order
        // (DESIGN.md section 5b).
        rec_abort(tid);
        obs_abort(tid, abort.cause);
        st.record_abort(abort.cause);
        committed = false;
        cause = abort.cause;
      }
      if (committed) {
        if (cfg_.retry_budget.enabled) budgets_[tid].on_commit(cfg_.retry_budget);
        ++st.commits;
        return;
      }
      if (cfg_.retry_budget.enabled) {
        budgets_[tid].on_abort(cfg_.retry_budget, cause);
      }
      if constexpr (SafetyWait) {
        sub_.set_inactive();
        if (cause == si::util::AbortCause::kCapacity) {
          break;  // persistent failure: retrying cannot help, take the SGL
        }
      }
      sub_.abort_backoff(attempt);
    }

    if constexpr (SafetyWait) {
      // SGL fall-back (Algorithm 2, lines 22-26): announce inactive, take
      // the lock, then drain every in-flight transaction before touching
      // data.
      sub_.set_inactive();
      sub_.gl_lock();
      double t_acq = 0;
      if (const auto* o = sub_.obs()) {
        t_acq = sub_.obs_now();
        o->sgl_acquire(tid, t_acq);
      }
      {
        // Threads inside a shared-mode join are skipped: new RO joiners keep
        // arriving while we hold update mode, so waiting on their state slots
        // chases a moving target that may never drain. gl_upgrade()'s
        // shared-count wait bounds them before the body's plain writes.
        // Order matters — read state(c) before gl_in_shared(c) (both seq_cst
        // on real threads): a joiner clears its flag before its next
        // announce, so a drain that saw the newer announce can't read the
        // stale flag and skip an active ROT.
        auto drain = sub_.drain_scope(st);
        for (int c = 0; c < sub_.n_threads(); ++c) {
          if (c == tid) continue;
          drain.reset();
          while (sub_.state(c) != kStateInactive && !sub_.gl_in_shared(c)) {
            drain.poll();
          }
        }
      }
      // Update -> exclusive: the drain above ran in update mode, which lets
      // read-only transactions keep joining in shared mode (ro_sync_with_gl)
      // and overlap it; the upgrade waits those joiners out and closes the
      // door before the body's plain writes (DESIGN.md section 11).
      sub_.gl_upgrade();
      if (const auto* o = sub_.obs()) o->sgl_drain_done(tid, sub_.obs_now());
      rec_begin(tid, /*ro=*/false);
      const double ot0 = obs_begin(tid, /*ro=*/false, /*sgl=*/true);
      Tx tx(sub_, TxPath::kSgl);
      body(tx);
      rec_commit(tid);
      obs_commit(tid, ot0, static_cast<std::uint32_t>(retry_budget + 1));
      sub_.gl_unlock();
      if (const auto* o = sub_.obs()) o->sgl_release(tid, sub_.obs_now(), t_acq);
      ++st.commits;
      ++st.sgl_commits;
    }
  }

  /// Exposed for tests: a thread's current abort EWMA and budget.
  double abort_ewma_of(int tid) const noexcept {
    return budgets_[tid].abort_ewma();
  }
  int retry_budget_of(int tid) const noexcept {
    return cfg_.retry_budget.enabled ? budgets_[tid].budget(cfg_.retry_budget)
                                     : cfg_.retries;
  }

 private:
  /// SyncWithGL (Algorithm 2, lines 1-9): announce an active timestamp, then
  /// sleep (slim lock) while the SGL is held.
  void sync_with_gl(si::util::ThreadStats& st) {
    for (;;) {
      sub_.announce(sub_.timestamp());
      if (!sub_.gl_locked()) return;
      sub_.set_inactive();
      sub_.gl_wait_unlocked(st);
    }
  }

  /// The read-only variant: where the update path must retreat and sleep,
  /// a read-only transaction may instead join the SGL in *shared* mode and
  /// overlap the holder's drain phase. Safe because (a) the slot announced
  /// here keeps the transaction visible to every safety wait and to the
  /// holder's own drain, (b) the holder upgrades to exclusive mode — waiting
  /// shared joiners out — before its first plain write, and (c) the joiner
  /// never blocks on the lock while holding shared mode, so no cycle exists
  /// (DESIGN.md section 11). Returns true when shared mode is held; the
  /// caller releases it after retiring from the state array.
  bool ro_sync_with_gl(si::util::ThreadStats& st) {
    for (;;) {
      sub_.announce(sub_.timestamp());
      if (!sub_.gl_locked()) return false;
      if (sub_.gl_try_shared()) return true;
      sub_.set_inactive();
      sub_.gl_wait_unlocked(st);
    }
  }

  /// TxEnd (Algorithm 1, lines 11-24): publish `completed` outside the ROT,
  /// then wait until every transaction active in our snapshot has completed,
  /// and only then HTMEnd.
  ///
  /// The wait is per-slot (Algorithm 1's per-thread condition): the stragglers
  /// are collected once from the snapshot and each is then spun on
  /// individually, in rotation, until its own slot moves — the StateTable is
  /// never re-snapshotted, threads that were inactive or completed in the
  /// snapshot are never re-read, and a straggler that retires early is
  /// dropped from the rotation immediately instead of blocking the scan
  /// behind a slower predecessor. Backoff (ws.poll) escalates only across
  /// full rotations that made no progress.
  void tx_end(int tid, si::util::ThreadStats& st, double obs_t0, int attempts) {
    if (const auto* o = sub_.obs()) o->suspend(tid, sub_.obs_now());
    sub_.publish_completed();  // throws if a conflict hit us while suspended
    if (const auto* o = sub_.obs()) o->resume(tid, sub_.obs_now());

    std::uint64_t snapshot[si::p8::kMaxThreads];
    sub_.snapshot_states(snapshot);

    int outstanding[si::p8::kMaxThreads];
    int n_out = 0;
    for (int c = 0; c < sub_.n_threads(); ++c) {
      if (c != tid && snapshot[c] > kStateCompleted) outstanding[n_out++] = c;
    }
    {
      // Spans the whole quiescence phase, even with zero stragglers (the
      // zero-length span is what shows the wait was *checked*); the guard's
      // destructor closes the span if check_killed aborts out of the wait.
      si::obs::WaitSpanGuard<S> wg(sub_, tid,
                                   static_cast<std::uint32_t>(n_out));
      if (n_out > 0) wait_for_stragglers(snapshot, outstanding, n_out, st, wg);
    }

    sub_.hw_commit();  // HTMEnd
    rec_commit(tid);
    obs_commit(tid, obs_t0, static_cast<std::uint32_t>(attempts));
    sub_.set_inactive();
  }

  /// Spins until every thread in `outstanding` has left the state recorded
  /// in `snapshot`. One straggler guard per slot, created when the wait
  /// starts, preserves the per-straggler killing policy.
  void wait_for_stragglers(const std::uint64_t* snapshot, int* outstanding,
                           int n_out, si::util::ThreadStats& st,
                           const si::obs::WaitSpanGuard<S>& wg) {
    using Guard = decltype(sub_.straggler_guard());
    std::optional<Guard> guards[si::p8::kMaxThreads];
    if (sub_.straggler_guard().armed()) {
      for (int i = 0; i < n_out; ++i) guards[i].emplace(sub_.straggler_guard());
    }

    auto ws = sub_.wait_scope(st);
    while (n_out > 0) {
      bool progressed = false;
      for (int i = 0; i < n_out;) {
        const int c = outstanding[i];
        if (sub_.state(c) != snapshot[c]) {  // straggler retired
          wg.straggler_retired(c);
          outstanding[i] = outstanding[n_out - 1];
          if (guards[n_out - 1]) guards[i].emplace(*guards[n_out - 1]);
          guards[n_out - 1].reset();
          --n_out;
          progressed = true;
          continue;
        }
        ++i;
      }
      if (n_out == 0) break;
      // A read of our write set during the wait kills us here (Fig. 4A);
      // check_killed turns the flag into a TxAbort.
      sub_.check_killed();
      ws.tick();
      for (int i = 0; i < n_out; ++i) {
        if (guards[i] && guards[i]->should_kill()) {
          sub_.kill_tx_of(outstanding[i],
                          si::util::AbortCause::kKilledAsStraggler);
          guards[i]->rearm();  // the kill lands at the victim's next poll
        }
      }
      if (progressed) {
        ws.reset();  // restart the backoff ladder after forward progress
      } else {
        ws.poll();
      }
    }
  }

  void rec_begin(int tid, bool ro) {
    if (auto* r = sub_.recorder()) r->begin(tid, ro, sub_.rec_now());
  }
  void rec_commit(int tid) {
    if (auto* r = sub_.recorder()) r->commit(tid, sub_.rec_now());
  }
  void rec_abort(int tid) {
    if (auto* r = sub_.recorder()) r->abort(tid, sub_.rec_now());
  }

  /// Returns the attempt's begin timestamp (0 when tracing is off) for the
  /// later commit-latency measurement.
  double obs_begin(int tid, bool ro, bool sgl = false) {
    if (const auto* o = sub_.obs()) {
      const double now = sub_.obs_now();
      o->tx_begin(tid, now, ro, sgl);
      return now;
    }
    return 0;
  }
  void obs_commit(int tid, double t0, std::uint32_t attempts) {
    if (const auto* o = sub_.obs()) o->tx_commit(tid, sub_.obs_now(), t0, attempts);
  }
  void obs_abort(int tid, si::util::AbortCause cause) {
    if (const auto* o = sub_.obs()) o->tx_abort(tid, sub_.obs_now(), cause);
  }

  S& sub_;
  SiHtmCoreConfig cfg_;
  /// Per-tid contention state (owner-thread writes only; padded slots).
  RetryBudget budgets_[si::p8::kMaxThreads];
};

/// The raw-ROT ablation: SI-HTM with the safety wait compiled out, under its
/// own name so instantiation sites read as the algorithm they run.
///
/// UNSAFE by design: update ROTs issue HTMEnd straight after the body and
/// retry forever (no SGL fall-back, so a capacity-overflowing transaction
/// livelocks), and read-only transactions skip the state table entirely —
/// admitting exactly the snapshot anomalies of paper Fig. 3. Exists so
/// bench/ablation_quiescence can price the safety wait and so the
/// fuzzer/checker can demonstrate the anomalies it prevents; never use it as
/// a concurrency control.
template <Substrate S>
using RawRotCore = SiHtmCore<S, /*SafetyWait=*/false>;

}  // namespace si::protocol
