// P8TM baseline (Issa et al., DISC'17), transcribed once. As characterised
// by the SI-HTM paper: a *serializable* design that also stretches ROT
// capacity, but pays for the stronger guarantee with software
// instrumentation of every read performed by update transactions
// (section 5: "costly software instrumentation of each read (in P8TM)").
//
// Structure:
//  * read-only transactions run uninstrumented outside any hardware
//    transaction (P8TM's URO path), protected by the same quiescence scheme
//    as SI-HTM;
//  * update transactions run as ROTs; every read is logged (line id +
//    version) against a hashed version table;
//  * at commit, after the quiescence wait, the logged read set is validated —
//    any line whose version advanced since it was read aborts the
//    transaction, closing the write-after-read window that ROTs leave open
//    and restoring serializability;
//  * committed update transactions advance the versions of their written
//    lines after HTMEnd (hardware write-write detection guarantees exclusive
//    write ownership until then).
//
// The paper disables P8TM's online self-tuning for its evaluation ("we
// disable ... the on-line adaptation of P8TM"); we therefore do not model it.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "p8htm/abort.hpp"
#include "p8htm/topology.hpp"
#include "protocol/retry_budget.hpp"
#include "protocol/substrate.hpp"
#include "protocol/version_table.hpp"
#include "util/cacheline.hpp"
#include "util/stats.hpp"

namespace si::protocol {

struct P8tmCoreConfig {
  int retries = 10;
  RetryBudgetConfig retry_budget{};
};

template <Substrate S>
class P8tmCore {
 public:
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
      auto& sub = owner_.sub_;
      if (path_ == TxPath::kRot) {
        // Software read instrumentation: log (line, version) before the
        // data read; the version is re-validated at commit.
        auto& log = owner_.log_of(sub.tid());
        const auto first = si::util::line_of(src);
        const auto last =
            si::util::line_of(static_cast<const unsigned char*>(src) + (n ? n - 1 : 0));
        sub.charge_instr_read(static_cast<std::size_t>(last - first + 1));
        for (auto line = first; line <= last; ++line) {
          log.reads.push_back({line, owner_.versions_.read_stable(line)});
        }
        sub.tx_read(dst, src, n);
      } else {
        sub.plain_read(dst, src, n);
      }
      if (auto* r = sub.recorder()) r->read(sub.tid(), src, n, dst, sub.rec_now());
    }

    void write_bytes(void* dst, const void* src, std::size_t n) {
      assert(path_ != TxPath::kReadOnly);
      auto& sub = owner_.sub_;
      auto& log = owner_.log_of(sub.tid());
      const auto first = si::util::line_of(dst);
      const auto last =
          si::util::line_of(static_cast<unsigned char*>(dst) + (n ? n - 1 : 0));
      for (auto line = first; line <= last; ++line) log.writes.push_back(line);
      if (path_ == TxPath::kRot) {
        sub.tx_write(dst, src, n);
      } else {
        sub.plain_write(dst, src, n);
      }
      if (auto* r = sub.recorder()) r->write(sub.tid(), dst, n, src, sub.rec_now());
    }

    TxPath path() const noexcept { return path_; }

    Tx(P8tmCore& owner, TxPath path) : owner_(owner), path_(path) {}

   private:
    P8tmCore& owner_;
    TxPath path_;
  };

  using Config = P8tmCoreConfig;

  /// log2 of the hashed version-table size (collisions only cause false
  /// conflicts).
  static constexpr unsigned kVersionTableBits = 20;

  P8tmCore(S& sub, P8tmCoreConfig cfg = {})
      : sub_(sub),
        cfg_(cfg),
        versions_(kVersionTableBits),
        logs_(static_cast<std::size_t>(sub.n_threads())) {}

  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    const int tid = sub_.tid();
    si::util::ThreadStats& st = sub_.stats(tid);

    if (is_ro) {
      sync_with_gl(st);
      rec_begin(tid, /*ro=*/true);
      const double ot0 = obs_begin(tid, /*ro=*/true);
      Tx tx(*this, TxPath::kReadOnly);
      body(tx);
      rec_commit(tid);
      obs_commit(tid, ot0, /*attempts=*/1);
      sub_.release_inactive();
      ++st.commits;
      ++st.ro_commits;
      return;
    }

    const int retry_budget = cfg_.retry_budget.enabled
                                 ? budgets_[tid].budget(cfg_.retry_budget)
                                 : cfg_.retries;
    if (cfg_.retry_budget.enabled && retry_budget < cfg_.retry_budget.max_retries) {
      if (const auto* o = sub_.obs()) o->retry_clamp(tid);
    }
    for (int attempt = 0; attempt < retry_budget; ++attempt) {
      sync_with_gl(st);
      Log& log = log_of(tid);
      log.reads.clear();
      log.writes.clear();
      sub_.pre_begin(HwMode::kRot);
      rec_begin(tid, /*ro=*/false);
      const double ot0 = obs_begin(tid, /*ro=*/false);
      sub_.hw_begin(HwMode::kRot);
      bool committed = true;
      si::util::AbortCause cause = si::util::AbortCause::kNone;
      try {
        Tx tx(*this, TxPath::kRot);
        body(tx);
        commit_update(tid, st, log, ot0, attempt + 1);
      } catch (const si::p8::TxAbort& abort) {
        // No substrate wait inside the catch (see sihtm_core.hpp).
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
      if (cfg_.retry_budget.enabled) budgets_[tid].on_abort(cfg_.retry_budget, cause);
      sub_.set_inactive();
      if (cause == si::util::AbortCause::kCapacity) {
        break;  // persistent failure: retrying cannot help, take the SGL
      }
      sub_.abort_backoff(attempt);
    }

    sub_.set_inactive();
    sub_.gl_lock();
    double t_acq = 0;
    if (const auto* o = sub_.obs()) {
      t_acq = sub_.obs_now();
      o->sgl_acquire(tid, t_acq);
    }
    {
      auto drain = sub_.drain_scope(st);
      for (int c = 0; c < sub_.n_threads(); ++c) {
        if (c == tid) continue;
        drain.reset();
        while (sub_.state(c) != kStateInactive) drain.poll();
      }
    }
    // P8TM's serializable read validation has no shared-mode overlap path,
    // so nothing is ever inside; the upgrade still moves the holder to
    // exclusive mode before the body's plain writes.
    sub_.gl_upgrade();
    if (const auto* o = sub_.obs()) o->sgl_drain_done(tid, sub_.obs_now());
    Log& log = log_of(tid);
    log.reads.clear();
    log.writes.clear();
    rec_begin(tid, /*ro=*/false);
    const double ot0 = obs_begin(tid, /*ro=*/false, /*sgl=*/true);
    Tx tx(*this, TxPath::kSgl);
    body(tx);
    // SGL writes are immediately visible; advance versions so optimistic
    // readers that overlapped the drain cannot validate stale reads.
    for (const auto& w : log.writes) versions_.bump(w);
    rec_commit(tid);
    obs_commit(tid, ot0, static_cast<std::uint32_t>(retry_budget + 1));
    sub_.gl_unlock();
    if (const auto* o = sub_.obs()) o->sgl_release(tid, sub_.obs_now(), t_acq);
    ++st.commits;
    ++st.sgl_commits;
  }

  S& substrate() noexcept { return sub_; }

  /// Test accessors for the contention-aware retry budget.
  double abort_ewma_of(int tid) const { return budgets_[tid].abort_ewma(); }
  int retry_budget_of(int tid) const {
    return budgets_[tid].budget(cfg_.retry_budget);
  }

 private:
  friend class Tx;

  struct ReadRecord {
    si::util::LineId line;
    std::uint64_t version;
  };

  struct alignas(si::util::kLineSize) Log {
    std::vector<ReadRecord> reads;
    std::vector<si::util::LineId> writes;
  };

  Log& log_of(int tid) { return logs_[static_cast<std::size_t>(tid)]; }

  void sync_with_gl(si::util::ThreadStats& st) {
    for (;;) {
      sub_.announce(sub_.timestamp());
      if (!sub_.gl_locked()) return;
      sub_.set_inactive();
      sub_.gl_wait_unlocked(st);  // sleep, not spin, while the SGL is held
    }
  }

  /// Quiescence + read validation + HTMEnd + version publication.
  void commit_update(int tid, si::util::ThreadStats& st, Log& log,
                     double obs_t0, int attempts) {
    if (const auto* o = sub_.obs()) o->suspend(tid, sub_.obs_now());
    sub_.publish_completed();
    if (const auto* o = sub_.obs()) o->resume(tid, sub_.obs_now());

    std::uint64_t snapshot[si::p8::kMaxThreads];
    sub_.snapshot_states(snapshot);
    int n_out = 0;
    for (int c = 0; c < sub_.n_threads(); ++c) {
      if (c != tid && snapshot[c] > kStateCompleted) ++n_out;
    }
    {
      si::obs::WaitSpanGuard<S> wg(sub_, tid,
                                   static_cast<std::uint32_t>(n_out));
      auto ws = sub_.wait_scope(st);
      for (int c = 0; c < sub_.n_threads(); ++c) {
        if (c == tid || snapshot[c] <= kStateCompleted) continue;
        ws.reset();
        while (sub_.state(c) == snapshot[c]) {
          sub_.check_killed();
          ws.tick();
          ws.poll();
        }
        wg.straggler_retired(c);
      }
    }

    // Publish-then-validate: advance the versions of our written lines
    // *before* validating, so two quiesced transactions with a mutual
    // read-write cycle (a write skew) cannot both pass validation — at least
    // one of them observes the other's bump and aborts. A spurious bump from
    // a transaction that subsequently fails validation only ever causes
    // false aborts, never missed conflicts.
    for (const auto& w : log.writes) versions_.bump(w);
    sub_.charge_occ(log.reads.size());
    for (const auto& r : log.reads) {
      // Reads of our own written lines are covered by the hardware
      // write-write detection (and now carry our own bump); skip them.
      bool own_write = false;
      for (const auto& w : log.writes) {
        if (w == r.line) {
          own_write = true;
          break;
        }
      }
      if (own_write) continue;
      if (versions_.read_stable(r.line) != r.version) {
        sub_.self_abort(si::util::AbortCause::kExplicit);
      }
    }
    sub_.hw_commit();  // HTMEnd
    rec_commit(tid);
    obs_commit(tid, obs_t0, static_cast<std::uint32_t>(attempts));
    sub_.set_inactive();
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
  P8tmCoreConfig cfg_;
  VersionTable versions_;
  std::vector<Log> logs_;
  RetryBudget budgets_[si::p8::kMaxThreads];
};

}  // namespace si::protocol
