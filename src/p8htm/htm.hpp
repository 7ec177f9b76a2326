// Software emulation of the IBM POWER8/9 hardware transactional memory
// ("P8-HTM", paper section 2.2).
//
// What is emulated, and how it maps to the real hardware:
//
//  * Regular HTM transactions — reads and writes tracked at 128-byte line
//    granularity, eager 2PL-style conflict detection: a read kills any active
//    writer of the line ("the last transaction to read ... will kill any
//    previous writer"), a write kills active tracked readers (requester-wins
//    coherence) and on write-write conflicts the *newcomer* dies ("the last
//    writer is killed").
//  * Rollback-only transactions (ROTs) — only writes are tracked/charged;
//    reads are untracked (they still kill active writers, reproducing the
//    read-after-write abort of Fig. 2B, but are invisible to later writers,
//    reproducing the tolerated write-after-read of Fig. 2A). The paper's
//    footnote 1 ("the TMCAM can also track a small fraction of reads in a
//    ROT") is modelled by HtmConfig::rot_read_tracking_pct.
//  * TMCAM capacity — a per-core budget of line entries shared by all SMT
//    threads pinned to the core; exhausting it raises a capacity abort of the
//    requesting transaction.
//  * Suspend/resume — accesses made while suspended are untracked, uncharged
//    and unlogged; conflicts flagged against a suspended transaction take
//    effect when it resumes (or doom it in place, see below).
//
// Mechanics: writes go in place, guarded by an undo log, so concurrent code
// observes a single-version memory — exactly the setting SI-HTM reasons
// about. The invariant that no read ever returns uncommitted data (which the
// paper's proof leans on: "P8-HTM prevents inconsistent reads") is enforced
// by performing every access under the line's bucket lock after conflict
// resolution: a reader that encounters an active writer flags it as killed
// and retries until the writer's rollback has both restored the old bytes
// and released the line. Untracked loads skip the lock while no writer is
// inside the runtime: a seqlock write gate (DESIGN.md §5.2) proves that no
// in-place store overlapped the copy, and falls back to the lock otherwise.
//
// Kills are asynchronous: the victim observes its `killed` flag at the next
// poll point (every access, commit, resume, or an explicit check_killed()).
// A killer never blocks indefinitely: if its victim is suspended (hence not
// polling), the killer rolls the victim back on its behalf ("dooming"), which
// the victim discovers at resume. Aborts propagate as TxAbort exceptions
// after the rollback has already happened.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p8htm/abort.hpp"
#include "p8htm/line_table.hpp"
#include "p8htm/owned_cache.hpp"
#include "p8htm/topology.hpp"
#include "util/cacheline.hpp"
#include "util/logical_clock.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace si::p8 {

/// Kind of hardware transaction currently running on a thread.
enum class TxMode : std::uint8_t {
  kNone = 0,  ///< not inside a transaction
  kHtm,       ///< regular transaction: reads and writes tracked
  kRot,       ///< rollback-only transaction: writes tracked, reads untracked
};

/// Lifecycle of a thread's transaction descriptor.
enum class TxStatus : std::uint8_t {
  kInactive = 0,
  kActive,     ///< inside a transaction, polling its kill flag
  kSuspended,  ///< inside a transaction but suspended (not polling)
  kDooming,    ///< a killer is rolling this suspended transaction back
  kDoomed,     ///< helper rollback finished; victim must abort at resume
};

class HtmRuntime {
 public:
  explicit HtmRuntime(HtmConfig cfg = {});
  ~HtmRuntime();
  HtmRuntime(const HtmRuntime&) = delete;
  HtmRuntime& operator=(const HtmRuntime&) = delete;

  /// Binds the calling thread to descriptor `tid` (0 <= tid < kMaxThreads).
  /// Must be called before any other member on this thread. A thread may be
  /// registered with several runtimes simultaneously (tests do this).
  void register_thread(int tid);

  /// The tid this thread registered with.
  int thread_id() const;

  // --- transaction control --------------------------------------------------

  /// Enters a transaction of the given mode. The emulated equivalent of
  /// tbegin./tbegin.ROT; unlike the hardware there is no abort PC — failures
  /// surface as TxAbort exceptions from later calls.
  void begin(TxMode mode);

  /// Commits the running transaction (HTMEnd). Throws TxAbort if a conflict
  /// was flagged before the commit point.
  void commit();

  /// Suspends the running transaction: subsequent accesses run
  /// non-transactionally and pending kills stop taking effect until resume.
  void suspend();

  /// Resumes a suspended transaction. Throws TxAbort if the transaction was
  /// killed (and possibly rolled back by the killer) while suspended.
  void resume();

  /// Poll point: throws TxAbort (after rolling back) if this transaction has
  /// been killed. Spin loops inside transactions must call this, mirroring
  /// how a real ROT's safety wait is interrupted by a TMCAM invalidation.
  void check_killed();

  /// Rolls back and aborts the running transaction with `cause`.
  [[noreturn]] void self_abort(si::util::AbortCause cause);

  bool in_tx() const;
  TxMode mode() const;
  bool is_suspended() const;

  // --- data access ----------------------------------------------------------
  //
  // All shared-data accesses must go through these (the weak-atomicity model
  // of the paper, section 3.4: every shared access happens inside the API).
  // Multi-line accesses are processed line by line and, like the hardware,
  // are not atomic across lines.

  template <typename T>
  T load(const T* addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    load_bytes(&out, addr, sizeof(T));
    return out;
  }

  template <typename T>
  void store(T* addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    store_bytes(addr, &value, sizeof(T));
  }

  void load_bytes(void* dst, const void* src, std::size_t n);
  void store_bytes(void* dst, const void* src, std::size_t n);

  /// Non-transactional accesses that still participate in conflict detection
  /// (a plain load invalidates active writers of the line; a plain store
  /// additionally kills tracked readers with `victim_cause`). This is what a
  /// raw coherence access does to in-flight transactions on real hardware;
  /// the SGL fall-back paths rely on it.
  void plain_load_bytes(void* dst, const void* src, std::size_t n);
  void plain_store_bytes(void* dst, const void* src, std::size_t n,
                         si::util::AbortCause victim_cause =
                             si::util::AbortCause::kConflictWrite);

  template <typename T>
  T plain_load(const T* addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    plain_load_bytes(&out, addr, sizeof(T));
    return out;
  }

  template <typename T>
  void plain_store(T* addr, const T& value,
                   si::util::AbortCause victim_cause =
                       si::util::AbortCause::kConflictWrite) {
    static_assert(std::is_trivially_copyable_v<T>);
    plain_store_bytes(addr, &value, sizeof(T), victim_cause);
  }

  // --- lock-elision support -------------------------------------------------

  /// Registers `addr`'s line in the running transaction's read set without
  /// touching data — the emulated form of reading the SGL word inside a
  /// transaction to subscribe to it. Charges TMCAM like any tracked read.
  void subscribe_line(const void* addr);

  /// Kills every transaction tracking `addr`'s line (helping suspended
  /// victims) and returns once the line is unowned. Used by an SGL acquirer
  /// to abort all subscribed transactions with kKilledBySgl.
  void kill_line_owners(const void* addr, si::util::AbortCause cause);

  /// Asynchronously kills thread `tid`'s running hardware transaction (if
  /// any), helping if it is suspended. Does not wait for the rollback.
  /// Supports the paper's future-work "killing alternative": completed
  /// transactions abort stragglers instead of waiting them out (section 6).
  void kill_tx_of(int tid, si::util::AbortCause cause);

  // --- introspection ----------------------------------------------------

  /// TMCAM entries currently charged on `core` (diagnostics/tests).
  std::size_t tmcam_used(int core) const;

  /// Distinct lines tracked by the calling thread's running transaction.
  std::size_t tracked_lines() const;

  /// Cumulative owned-line fast-path counters of thread `tid`. Only safe to
  /// read while `tid` is not concurrently running transactions (the counters
  /// are plain per-thread fields).
  si::util::FastPathStats fast_path_stats(int tid) const;

  /// Sum of fast_path_stats over all threads.
  si::util::FastPathStats fast_path_totals() const;

  /// Zeroes every thread's fast-path counters. Call between measurement
  /// phases (e.g. after bench warm-up) while no transactions run — the
  /// counters are plain per-thread fields.
  void reset_fast_path_stats();

  /// Attaches a lifecycle tracer (obs/trace.hpp) or detaches with nullptr.
  /// The runtime emits kHwRollback at the rollback instant and kHwKill when
  /// a kill is initiated — always into the *calling* thread's ring (the
  /// victim appears in the arg), so tracing stays race-free. Set before
  /// threads start transacting; the pointer is read unsynchronised.
  void set_tracer(si::obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attaches the metrics sink (obs/metrics.hpp) or detaches with nullptr.
  /// The runtime bumps the killer-side hw-kill-initiated taxonomy counter
  /// when a kill actually sets the victim's flag — the victim-side abort
  /// counters come later via ObsConfig::tx_abort. Same discipline as the
  /// tracer: set before threads transact, read unsynchronised, bumps land
  /// in the *calling* thread's padded slot.
  void set_metrics(si::obs::Metrics* metrics) noexcept { metrics_ = metrics; }

  const HtmConfig& config() const noexcept { return cfg_; }

 private:
  struct UndoRecord {
    void* addr;
    std::uint32_t len;
    std::uint32_t offset;  ///< into undo_bytes
  };

  struct alignas(si::util::kLineSize) TxDesc {
    int tid = -1;
    int core = 0;
    // Atomic because killers peek at it cross-thread (kill_tx_of); all
    // writes come from the owning thread (or a helper that owns the
    // descriptor via the kDooming handshake), so relaxed ordering suffices.
    std::atomic<TxMode> mode{TxMode::kNone};
    std::atomic<TxStatus> status{TxStatus::kInactive};
    std::atomic<si::util::AbortCause> killed{si::util::AbortCause::kNone};
    std::vector<si::util::LineId> lines;  ///< tracked (TMCAM-charged) lines
    std::vector<UndoRecord> undo;
    std::vector<unsigned char> undo_bytes;
    si::util::Xoshiro256 rng{0};

    /// O(1) membership + role of the tracked lines (mirrors `lines`); decides
    /// both TMCAM charging and fast-path eligibility (DESIGN.md §5.1).
    OwnedLineCache owned;

    /// Owned-line fast-path counters (owning thread writes, harvested after
    /// the run via HtmRuntime::fast_path_stats).
    si::util::FastPathStats fp;

    /// Conflict-resolution scratch: victims flagged in one pass. Hoisted out
    /// of access_chunk so the hot path does not touch ~0.5 KiB of fresh
    /// stack per chunk.
    int victim_scratch[kMaxThreads + 1];

    /// True from this transaction's first tracked write until
    /// release_all_lines() (commit or rollback, a helper's included) takes
    /// it out of the write gate again.
    bool in_gate = false;
  };

  struct alignas(si::util::kLineSize) CoreTmcam {
    std::atomic<std::int64_t> used{0};
  };

  /// Seqlock write gate (DESIGN.md §5.2). The low 32 bits count the
  /// transactions holding a write registration plus the plain stores in
  /// mid-copy; the high 32 bits are a generation bumped on every entry, so
  /// an entry and exit that both fall inside a reader's copy still change
  /// the word.
  struct alignas(si::util::kLineSize) WriteGate {
    static constexpr std::uint64_t kEnter = (std::uint64_t{1} << 32) + 1;
    static constexpr std::uint64_t kCountMask = 0xffffffffu;
    std::atomic<std::uint64_t> word{0};
  };

  TxDesc& self();
  const TxDesc& self() const;

  /// One line-granular chunk of an access; the workhorse. `d` is the calling
  /// thread's descriptor; `tracked` selects transactional tracking.
  void access_chunk(TxDesc& d, void* dst, const void* src, std::size_t len,
                    bool is_write, bool tracked, si::util::AbortCause victim_cause);

  /// Splits [addr, addr+n) into per-line chunks and dispatches access_chunk.
  void access_span(TxDesc& d, void* dst, const void* src, std::size_t n,
                   bool is_write, bool tracked, si::util::AbortCause victim_cause);

  void poll_killed(TxDesc& d);
  [[noreturn]] void abort_now(TxDesc& d, si::util::AbortCause cause);

  /// Flags `victim_tid` as killed with `cause` (first cause wins).
  void flag_kill(int victim_tid, si::util::AbortCause cause);

  /// If `victim_tid` is suspended and killed, rolls it back on its behalf.
  void maybe_help_doomed(int victim_tid);

  /// Restores the undo log and releases every tracked line of `d`.
  void rollback(TxDesc& d);

  /// Releases conflict-table registrations and TMCAM charges of `d`.
  void release_all_lines(TxDesc& d);

  bool charge_tmcam(int core);
  void release_tmcam(int core, std::size_t n);

  void undo_log(TxDesc& d, void* addr, std::size_t len);

  /// Enters the write gate; every in-place store after it is ordered after
  /// the entry for any reader that sees the store.
  void gate_enter();
  void gate_leave();

  /// Untracked load without the bucket lock. Returns false (and the copy in
  /// `dst` must be discarded) unless the write gate was empty and unchanged
  /// across the whole copy.
  bool try_unlocked_load(TxDesc& d, void* dst, const void* src, std::size_t len,
                         bool in_active_tx);

  HtmConfig cfg_;
  LineTable table_;
  std::unique_ptr<TxDesc[]> descs_;
  std::unique_ptr<CoreTmcam[]> tmcam_;
  WriteGate gate_;
  si::obs::Tracer* tracer_ = nullptr;
  si::obs::Metrics* metrics_ = nullptr;
};

}  // namespace si::p8
