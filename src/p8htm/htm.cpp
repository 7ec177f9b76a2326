#include "p8htm/htm.hpp"

#include "util/backoff.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace si::p8 {

using si::util::AbortCause;
using si::util::LineId;
using si::util::line_of;

namespace {

/// Per-thread binding of runtimes to descriptor indices. A single-entry cache
/// covers the common case of one runtime per thread; tests that juggle
/// several runtimes fall back to the map.
struct ThreadBinding {
  const void* cached_rt = nullptr;
  int cached_tid = -1;
  std::unordered_map<const void*, int> all;
};

thread_local ThreadBinding t_binding;

// Every copy into or out of emulated memory is a relaxed atomic word or byte
// copy: an unlocked reader (try_unlocked_load) may overlap a store it will
// later discard, and only atomic accesses make that overlap well defined.
// Words are aligned on the shared side; the other side is private.
using Word = std::uint64_t __attribute__((may_alias));

void load_relaxed(void* dst, const void* src, std::size_t n) {
  auto* out = static_cast<unsigned char*>(dst);
  const auto* in = static_cast<const unsigned char*>(src);
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(in) & (sizeof(Word) - 1)); --n) {
    *out++ = __atomic_load_n(in++, __ATOMIC_RELAXED);
  }
  for (; n >= sizeof(Word); n -= sizeof(Word)) {
    const Word w = __atomic_load_n(reinterpret_cast<const Word*>(in), __ATOMIC_RELAXED);
    std::memcpy(out, &w, sizeof(Word));
    in += sizeof(Word);
    out += sizeof(Word);
  }
  for (; n > 0; --n) *out++ = __atomic_load_n(in++, __ATOMIC_RELAXED);
}

void store_relaxed(void* dst, const void* src, std::size_t n) {
  auto* out = static_cast<unsigned char*>(dst);
  const auto* in = static_cast<const unsigned char*>(src);
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(out) & (sizeof(Word) - 1)); --n) {
    __atomic_store_n(out++, *in++, __ATOMIC_RELAXED);
  }
  for (; n >= sizeof(Word); n -= sizeof(Word)) {
    Word w;
    std::memcpy(&w, in, sizeof(Word));
    __atomic_store_n(reinterpret_cast<Word*>(out), w, __ATOMIC_RELAXED);
    in += sizeof(Word);
    out += sizeof(Word);
  }
  for (; n > 0; --n) __atomic_store_n(out++, *in++, __ATOMIC_RELAXED);
}

}  // namespace

HtmRuntime::HtmRuntime(HtmConfig cfg)
    : cfg_(cfg),
      table_(cfg.line_table_bits),
      descs_(std::make_unique<TxDesc[]>(kMaxThreads)),
      tmcam_(std::make_unique<CoreTmcam[]>(static_cast<std::size_t>(cfg.topo.cores))) {
  if (cfg_.topo.cores <= 0 || cfg_.topo.smt <= 0) {
    throw std::invalid_argument("HtmConfig: cores and smt must be positive");
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    descs_[t].tid = t;
    descs_[t].core = cfg_.topo.core_of(t);
    descs_[t].rng = si::util::Xoshiro256(0xC0FFEE ^ static_cast<std::uint64_t>(t));
    descs_[t].lines.reserve(2 * cfg_.tmcam_lines);
    descs_[t].owned = OwnedLineCache(cfg_.tmcam_lines);
    descs_[t].undo.reserve(256);
    descs_[t].undo_bytes.reserve(4096);
  }
}

HtmRuntime::~HtmRuntime() = default;

void HtmRuntime::register_thread(int tid) {
  if (tid < 0 || tid >= kMaxThreads) {
    throw std::out_of_range("register_thread: tid out of range");
  }
  t_binding.all[this] = tid;
  t_binding.cached_rt = this;
  t_binding.cached_tid = tid;
}

int HtmRuntime::thread_id() const {
  if (t_binding.cached_rt == this) return t_binding.cached_tid;
  auto it = t_binding.all.find(this);
  if (it == t_binding.all.end()) {
    throw std::logic_error("thread not registered with this HtmRuntime");
  }
  t_binding.cached_rt = this;
  t_binding.cached_tid = it->second;
  return it->second;
}

HtmRuntime::TxDesc& HtmRuntime::self() { return descs_[thread_id()]; }
const HtmRuntime::TxDesc& HtmRuntime::self() const { return descs_[thread_id()]; }

// --- transaction control -----------------------------------------------------

void HtmRuntime::begin(TxMode tx_mode) {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) == TxMode::kNone &&
         "nested transactions are not supported");
  assert(tx_mode != TxMode::kNone);
  assert(!d.in_gate);
  d.killed.store(AbortCause::kNone, std::memory_order_relaxed);
  d.lines.clear();
  d.owned.clear();
  d.undo.clear();
  d.undo_bytes.clear();
  d.mode.store(tx_mode, std::memory_order_relaxed);
  d.status.store(TxStatus::kActive, std::memory_order_release);
}

void HtmRuntime::commit() {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
         "commit outside a transaction");
  assert(d.status.load(std::memory_order_relaxed) == TxStatus::kActive &&
         "commit while suspended");
  poll_killed(d);
  // Point of no return: deregistering the lines makes the in-place writes
  // permanent. A kill flagged from here on finds the lines released and the
  // stale flag is cleared at the next begin().
  release_all_lines(d);
  d.undo.clear();
  d.undo_bytes.clear();
  d.mode.store(TxMode::kNone, std::memory_order_relaxed);
  d.status.store(TxStatus::kInactive, std::memory_order_release);
}

void HtmRuntime::suspend() {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
         "suspend outside a transaction");
  TxStatus expected = TxStatus::kActive;
  const bool ok = d.status.compare_exchange_strong(
      expected, TxStatus::kSuspended, std::memory_order_acq_rel);
  assert(ok && "suspend while not active");
  (void)ok;
}

void HtmRuntime::resume() {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
         "resume outside a transaction");
  TxStatus expected = TxStatus::kSuspended;
  if (d.status.compare_exchange_strong(expected, TxStatus::kActive,
                                       std::memory_order_acq_rel)) {
    // Conflicts flagged during the suspended window take effect now
    // (paper section 2.2: suspend/resume).
    poll_killed(d);
    return;
  }
  // A killer is rolling us back (kDooming) or already has (kDoomed).
  si::util::Backoff backoff;
  while (d.status.load(std::memory_order_acquire) == TxStatus::kDooming) {
    backoff.pause();
  }
  assert(d.status.load(std::memory_order_relaxed) == TxStatus::kDoomed);
  const AbortCause cause = d.killed.load(std::memory_order_relaxed);
  d.mode.store(TxMode::kNone, std::memory_order_relaxed);
  d.status.store(TxStatus::kInactive, std::memory_order_release);
  throw TxAbort{cause == AbortCause::kNone ? AbortCause::kConflictRead : cause};
}

void HtmRuntime::check_killed() {
  TxDesc& d = self();
  if (d.mode.load(std::memory_order_relaxed) == TxMode::kNone) return;
  if (d.status.load(std::memory_order_relaxed) != TxStatus::kActive) return;
  poll_killed(d);
}

void HtmRuntime::self_abort(AbortCause cause) {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
         "self_abort outside a transaction");
  abort_now(d, cause);
}

bool HtmRuntime::in_tx() const {
  return self().mode.load(std::memory_order_relaxed) != TxMode::kNone;
}
TxMode HtmRuntime::mode() const {
  return self().mode.load(std::memory_order_relaxed);
}
bool HtmRuntime::is_suspended() const {
  return self().status.load(std::memory_order_relaxed) == TxStatus::kSuspended;
}

// --- kill / abort machinery --------------------------------------------------

void HtmRuntime::poll_killed(TxDesc& d) {
  const AbortCause cause = d.killed.load(std::memory_order_acquire);
  if (cause != AbortCause::kNone) abort_now(d, cause);
}

void HtmRuntime::abort_now(TxDesc& d, AbortCause cause) {
  rollback(d);
  d.mode.store(TxMode::kNone, std::memory_order_relaxed);
  d.status.store(TxStatus::kInactive, std::memory_order_release);
  // abort_now only ever runs on the descriptor's own thread (helpers roll
  // suspended victims back via maybe_help_doomed instead), so emitting into
  // d.tid's ring is emitting into our own.
  if (tracer_) {
    tracer_->emit(d.tid, si::obs::TraceEventKind::kHwRollback,
                  si::obs::wall_ns(),
                  (static_cast<std::uint32_t>(cause) << 16) |
                      static_cast<std::uint32_t>(d.tid));
  }
  throw TxAbort{cause};
}

void HtmRuntime::flag_kill(int victim_tid, AbortCause cause) {
  AbortCause expected = AbortCause::kNone;
  const bool won = descs_[victim_tid].killed.compare_exchange_strong(
      expected, cause, std::memory_order_acq_rel);
  // The kill instant belongs to the killer's timeline: record it in the
  // *calling* thread's ring (never the victim's — that would race with the
  // victim's own emits) and only when this call actually set the flag.
  if (won && tracer_) {
    tracer_->emit(thread_id(), si::obs::TraceEventKind::kHwKill,
                  si::obs::wall_ns(), static_cast<std::uint32_t>(victim_tid));
  }
  if (won && metrics_) {
    const int killer = thread_id();
    if (killer >= 0 && killer < metrics_->threads()) {
      metrics_->of(killer).taxonomy.bump(
          si::obs::TaxonomyCounter::kHwKillInit);
    }
  }
}

void HtmRuntime::maybe_help_doomed(int victim_tid) {
  TxDesc& victim = descs_[victim_tid];
  if (victim.killed.load(std::memory_order_acquire) == AbortCause::kNone) return;
  TxStatus expected = TxStatus::kSuspended;
  if (!victim.status.compare_exchange_strong(expected, TxStatus::kDooming,
                                             std::memory_order_acq_rel)) {
    return;  // active (will self-abort at its next poll) or already handled
  }
  // We own the victim's rollback now; it is parked in resume() until kDoomed.
  rollback(victim);
  victim.status.store(TxStatus::kDoomed, std::memory_order_release);
}

void HtmRuntime::rollback(TxDesc& d) {
  // Restore in reverse, each chunk under its line's bucket lock so concurrent
  // readers (who wait for the line to be released) never observe a torn or
  // partially-restored value.
  for (std::size_t i = d.undo.size(); i-- > 0;) {
    const UndoRecord& u = d.undo[i];
    auto& bucket = table_.bucket_for(line_of(u.addr));
    std::lock_guard guard(bucket.lock);
    store_relaxed(u.addr, d.undo_bytes.data() + u.offset, u.len);
  }
  release_all_lines(d);
  d.undo.clear();
  d.undo_bytes.clear();
}

void HtmRuntime::release_all_lines(TxDesc& d) {
  for (LineId line : d.lines) {
    auto& bucket = table_.bucket_for(line);
    std::lock_guard guard(bucket.lock);
    if (LineEntry* e = bucket.find(line)) {
      if (e->writer == d.tid) e->writer = LineEntry::kNoWriter;
      e->readers.clear(d.tid);
      bucket.reclaim_if_unowned(line);
    }
  }
  if (!d.lines.empty()) release_tmcam(d.core, d.lines.size());
  d.lines.clear();
  d.owned.clear();
  // Last: leaving orders the commit's stores, or the rollback's restores,
  // before any unlocked reader that finds the gate empty.
  if (d.in_gate) {
    d.in_gate = false;
    gate_leave();
  }
}

bool HtmRuntime::charge_tmcam(int core) {
  auto& used = tmcam_[core].used;
  if (used.fetch_add(1, std::memory_order_acq_rel) + 1 >
      static_cast<std::int64_t>(cfg_.tmcam_lines)) {
    used.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

void HtmRuntime::release_tmcam(int core, std::size_t n) {
  tmcam_[core].used.fetch_sub(static_cast<std::int64_t>(n),
                              std::memory_order_acq_rel);
}

void HtmRuntime::undo_log(TxDesc& d, void* addr, std::size_t len) {
  const std::uint32_t offset = static_cast<std::uint32_t>(d.undo_bytes.size());
  d.undo_bytes.resize(offset + len);
  load_relaxed(d.undo_bytes.data() + offset, addr, len);
  d.undo.push_back(UndoRecord{addr, static_cast<std::uint32_t>(len), offset});
}

void HtmRuntime::gate_enter() {
  gate_.word.fetch_add(WriteGate::kEnter, std::memory_order_relaxed);
  // Pairs with the reader's acquire fence: a reader whose copy saw any
  // store issued after this point also sees the entry on its re-check.
  std::atomic_thread_fence(std::memory_order_release);
}

void HtmRuntime::gate_leave() {
  gate_.word.fetch_sub(1, std::memory_order_release);
}

bool HtmRuntime::try_unlocked_load(TxDesc& d, void* dst, const void* src,
                                   std::size_t len, bool in_active_tx) {
  const std::uint64_t seen = gate_.word.load(std::memory_order_acquire);
  if ((seen & WriteGate::kCountMask) != 0) return false;
  load_relaxed(dst, src, len);
  if (in_active_tx) poll_killed(d);
  std::atomic_thread_fence(std::memory_order_acquire);
  return gate_.word.load(std::memory_order_relaxed) == seen;
}

// --- access paths --------------------------------------------------------

void HtmRuntime::access_chunk(TxDesc& d, void* dst, const void* src,
                              std::size_t len, bool is_write, bool tracked,
                              AbortCause victim_cause) {
  const LineId line = line_of(is_write ? dst : src);

  // Owned-line fast path (DESIGN.md §5.1): if this *active* transaction has
  // already registered the line in the role the access needs, conflict
  // resolution is settled — a registered write-owner is exclusive, and a
  // still-live registered reader cannot coexist with any writer (writers
  // wait for our rollback before touching the line). Skip the bucket lock
  // and go straight to the undo-log/copy. Kills stay honoured: the flag
  // is polled here exactly as on the slow path.
  const bool in_active_tx =
      d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
      d.status.load(std::memory_order_relaxed) == TxStatus::kActive;
  if (in_active_tx && cfg_.owned_line_fast_path) {
    const std::uint8_t roles = d.owned.lookup(line);
    const bool hit = is_write ? (roles & kOwnWriter) != 0 : roles != kOwnNone;
    if (hit) {
      poll_killed(d);
      ++d.fp.hits;
      if (len > 0) {
        if (!is_write) {
          load_relaxed(dst, src, len);
        } else {
          if (tracked) undo_log(d, dst, len);
          store_relaxed(dst, src, len);
        }
      }
      return;
    }
    ++d.fp.misses;
  }

  // Untracked load with no writer inside the runtime (DESIGN.md §5.2):
  // there is no writer to kill and no uncommitted byte to hide, so the
  // bucket lock buys nothing unless the write gate moves during the copy.
  if (!is_write && !tracked &&
      try_unlocked_load(d, dst, src, len, in_active_tx)) {
    return;
  }
  // A tracked writer holds the gate from before its first registration, so
  // an empty gate also means no line has a registered writer.
  if (is_write && tracked && !d.in_gate) {
    gate_enter();
    d.in_gate = true;
  }

  auto& bucket = table_.bucket_for(line);

  // Conflict-resolution loop: flag conflicting owners, then wait (lock
  // released) for their rollback to clear the entry. Victims that are
  // suspended get rolled back on their behalf; and while we wait we keep
  // honouring kills aimed at us, so mutual kills cannot deadlock.
  int* pending_victims = d.victim_scratch;
  si::util::Backoff backoff;
  for (;;) {
    if (d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
        d.status.load(std::memory_order_relaxed) == TxStatus::kActive) {
      poll_killed(d);
    }
    int n_victims = 0;
    ++d.fp.lock_acquisitions;
    bucket.lock.lock();
    LineEntry* e = bucket.find(line);
    if (e != nullptr) {
      if (is_write) {
        if (e->writer != LineEntry::kNoWriter && e->writer != d.tid) {
          if (tracked) {
            // Write-write conflict: "the last writer is killed" — that is us.
            bucket.lock.unlock();
            abort_now(d, AbortCause::kConflictWrite);
          }
          // Plain (non-transactional) store: the coherence request
          // invalidates the transactional writer instead.
          flag_kill(e->writer, victim_cause);
          pending_victims[n_victims++] = e->writer;
        }
        if (e->readers.any_other(d.tid)) {
          e->readers.for_each_other(d.tid, [&](int t) {
            flag_kill(t, victim_cause);
            pending_victims[n_victims++] = t;
          });
        }
      } else {
        if (e->writer != LineEntry::kNoWriter && e->writer != d.tid) {
          // Any read — tracked, ROT or plain — invalidates an active
          // writer's TMCAM entry (Fig. 2B) and must observe pre-tx data.
          flag_kill(e->writer, AbortCause::kConflictRead);
          pending_victims[n_victims++] = e->writer;
        }
      }
    }
    if (n_victims == 0) break;  // keep holding the bucket lock
    bucket.lock.unlock();
    for (int i = 0; i < n_victims; ++i) maybe_help_doomed(pending_victims[i]);
    backoff.pause();
  }

  // --- under bucket lock, line free of conflicting owners ---
  if (tracked) {
    if (d.owned.lookup(line) == kOwnNone) {  // first touch: charge the TMCAM
      if (!charge_tmcam(d.core)) {
        bucket.lock.unlock();
        abort_now(d, AbortCause::kCapacity);
      }
      d.lines.push_back(line);
    }
    LineEntry& entry = bucket.find_or_create(line);
    if (is_write) {
      entry.writer = d.tid;
    } else {
      entry.readers.set(d.tid);
    }
    d.owned.add(line, is_write ? kOwnWriter : kOwnReader);
  }
  if (len > 0) {
    if (!is_write) {
      load_relaxed(dst, src, len);
    } else if (tracked) {
      undo_log(d, dst, len);
      store_relaxed(dst, src, len);
    } else {
      // A plain store holds the gate only around its own copy.
      gate_enter();
      store_relaxed(dst, src, len);
      gate_leave();
    }
  }
  bucket.lock.unlock();
}

void HtmRuntime::access_span(TxDesc& d, void* dst, const void* src,
                             std::size_t n, bool is_write, bool tracked,
                             AbortCause victim_cause) {
  // Walk [base, base+n) line by line; `base` is the address whose lines are
  // tracked (dst for writes, src for reads).
  auto* base = static_cast<unsigned char*>(is_write ? dst : const_cast<void*>(src));
  auto* out = static_cast<unsigned char*>(dst);
  auto* in = static_cast<const unsigned char*>(src);
  std::size_t done = 0;
  while (done < n) {
    const std::uintptr_t here = reinterpret_cast<std::uintptr_t>(base + done);
    const std::size_t to_line_end = si::util::kLineSize - (here & (si::util::kLineSize - 1));
    const std::size_t len = std::min(n - done, to_line_end);
    access_chunk(d, out + done, in + done, len, is_write, tracked, victim_cause);
    done += len;
  }
}

void HtmRuntime::load_bytes(void* dst, const void* src, std::size_t n) {
  TxDesc& d = self();
  const TxMode m = d.mode.load(std::memory_order_relaxed);
  const bool in_active_tx =
      m != TxMode::kNone &&
      d.status.load(std::memory_order_relaxed) == TxStatus::kActive;
  bool tracked = false;
  if (in_active_tx) {
    if (m == TxMode::kHtm) {
      tracked = true;
    } else if (cfg_.rot_read_tracking_pct > 0) {
      tracked = d.rng.percent(cfg_.rot_read_tracking_pct);
    }
  }
  access_span(d, dst, src, n, /*is_write=*/false, tracked,
              AbortCause::kConflictRead);
}

void HtmRuntime::store_bytes(void* dst, const void* src, std::size_t n) {
  TxDesc& d = self();
  const bool in_active_tx =
      d.mode.load(std::memory_order_relaxed) != TxMode::kNone &&
      d.status.load(std::memory_order_relaxed) == TxStatus::kActive;
  access_span(d, dst, src, n, /*is_write=*/true, /*tracked=*/in_active_tx,
              AbortCause::kConflictWrite);
}

void HtmRuntime::plain_load_bytes(void* dst, const void* src, std::size_t n) {
  access_span(self(), dst, src, n, /*is_write=*/false, /*tracked=*/false,
              AbortCause::kConflictRead);
}

void HtmRuntime::plain_store_bytes(void* dst, const void* src, std::size_t n,
                                   AbortCause victim_cause) {
  access_span(self(), dst, src, n, /*is_write=*/true, /*tracked=*/false,
              victim_cause);
}

void HtmRuntime::subscribe_line(const void* addr) {
  TxDesc& d = self();
  assert(d.mode.load(std::memory_order_relaxed) == TxMode::kHtm &&
         "subscribe_line requires a regular HTM tx");
  access_chunk(d, nullptr, addr, 0, /*is_write=*/false, /*tracked=*/true,
               AbortCause::kConflictRead);
}

void HtmRuntime::kill_line_owners(const void* addr, AbortCause cause) {
  const LineId line = line_of(addr);
  auto& bucket = table_.bucket_for(line);
  TxDesc& d = self();
  int* pending_victims = d.victim_scratch;
  si::util::Backoff backoff;
  for (;;) {
    int n_victims = 0;
    ++d.fp.lock_acquisitions;
    bucket.lock.lock();
    if (LineEntry* e = bucket.find(line)) {
      if (e->writer != LineEntry::kNoWriter) {
        flag_kill(e->writer, cause);
        pending_victims[n_victims++] = e->writer;
      }
      e->readers.for_each_other(-1, [&](int t) {
        flag_kill(t, cause);
        pending_victims[n_victims++] = t;
      });
    }
    bucket.lock.unlock();
    if (n_victims == 0) return;
    for (int i = 0; i < n_victims; ++i) maybe_help_doomed(pending_victims[i]);
    backoff.pause();
  }
}

void HtmRuntime::kill_tx_of(int tid, AbortCause cause) {
  TxDesc& victim = descs_[tid];
  const TxStatus status = victim.status.load(std::memory_order_acquire);
  if (status != TxStatus::kActive && status != TxStatus::kSuspended) return;
  if (victim.mode.load(std::memory_order_relaxed) == TxMode::kNone) {
    return;  // e.g. a read-only fast path
  }
  flag_kill(tid, cause);
  maybe_help_doomed(tid);
}

std::size_t HtmRuntime::tmcam_used(int core) const {
  return static_cast<std::size_t>(
      tmcam_[core].used.load(std::memory_order_acquire));
}

std::size_t HtmRuntime::tracked_lines() const { return self().lines.size(); }

si::util::FastPathStats HtmRuntime::fast_path_stats(int tid) const {
  return descs_[tid].fp;
}

si::util::FastPathStats HtmRuntime::fast_path_totals() const {
  si::util::FastPathStats out;
  for (int t = 0; t < kMaxThreads; ++t) out += descs_[t].fp;
  return out;
}

void HtmRuntime::reset_fast_path_stats() {
  for (int t = 0; t < kMaxThreads; ++t) descs_[t].fp.reset();
}

}  // namespace si::p8
