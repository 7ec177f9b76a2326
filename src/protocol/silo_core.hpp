// Silo baseline (Tu et al., SOSP'13), transcribed once: software optimistic
// concurrency control at cache-line versioning granularity (the paper
// disables Silo's record indexing "for a fair comparison", so the comparison
// is between core concurrency controls).
//
// Protocol, faithful to Silo's commit path:
//  * reads are optimistic — version-sandwich a stable snapshot of each
//    covered line and log (line, version);
//  * writes are buffered locally and overlaid on subsequent reads
//    (read-own-writes);
//  * commit: lock the write set in canonical (sorted) line order, validate
//    that every logged read version is unchanged and unlocked (or locked by
//    us), install the buffered writes, then bump-and-unlock.
//
// Pure software: it never enters a hardware transaction, exactly as Silo
// runs on stock hardware, so it only uses the substrate for identity,
// recording, backoff, and latency charging. Data copies and version-table
// accesses are direct memory operations in both embodiments — on the
// simulator the core runs on fibers, where the sandwich (version pre-read,
// copy, re-check) contains no wait point and is therefore atomic in virtual
// time; the re-check then never fails, matching the old sim transcription
// that elided it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/version_table.hpp"
#include "obs/obs.hpp"
#include "p8htm/abort.hpp"
#include "protocol/substrate.hpp"
#include "util/cacheline.hpp"
#include "util/stats.hpp"

namespace si::protocol {

/// Silo has no settable knobs; the empty config keeps Tm's construction
/// uniform across cores.
struct SiloCoreConfig {};

template <Substrate S>
class SiloCore {
 public:
  class Tx {
   public:
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
      auto& ctx = owner_.ctx_of(sub.tid());
      auto& vt = owner_.versions_;
      const auto first = si::util::line_of(src);
      const auto last =
          si::util::line_of(static_cast<const unsigned char*>(src) + (n ? n - 1 : 0));
      sub.charge_read(static_cast<std::size_t>(last - first + 1));

      // Version-sandwich until a stable snapshot of all covered lines is
      // read. A locked or changed line retries after a poll; a line locked
      // past the spin budget aborts the attempt.
      auto poller = sub.poller();
      for (int spin = 0;; ++spin) {
        std::uint64_t pre[16];
        bool ok = true;
        assert(last - first < 16 && "single read spans too many lines");
        for (auto line = first; line <= last; ++line) {
          const std::uint64_t v =
              vt.word_for(line).load(std::memory_order_acquire);
          if (si::baselines::VersionTable::is_locked(v)) {
            ok = false;
            break;
          }
          pre[line - first] = v;
        }
        if (ok) {
          std::memcpy(dst, src, n);
          std::atomic_thread_fence(std::memory_order_acquire);
          for (auto line = first; line <= last; ++line) {
            if (vt.word_for(line).load(std::memory_order_acquire) !=
                pre[line - first]) {
              ok = false;
              break;
            }
          }
          if (ok) {
            for (auto line = first; line <= last; ++line) {
              owner_.log_read(ctx, line, pre[line - first]);
            }
            break;
          }
        }
        if (spin >= S::kMaxReadSpins) {
          throw si::p8::TxAbort{si::util::AbortCause::kConflictRead};
        }
        poller.poll();
      }

      // Read-own-writes: overlay buffered writes intersecting [src, src+n).
      auto* base = static_cast<unsigned char*>(dst);
      const auto* req_lo = static_cast<const unsigned char*>(src);
      const auto* req_hi = req_lo + n;
      for (const auto& w : ctx.writes) {
        const auto* w_lo = static_cast<const unsigned char*>(w.addr);
        const auto* w_hi = w_lo + w.len;
        const auto* lo = std::max(req_lo, w_lo);
        const auto* hi = std::min(req_hi, w_hi);
        if (lo < hi) {
          std::memcpy(base + (lo - req_lo),
                      ctx.buffer.data() + w.offset + (lo - w_lo),
                      static_cast<std::size_t>(hi - lo));
        }
      }
      // Recorded after the own-write overlay: the event holds the value the
      // transaction body actually observed.
      if (auto* r = sub.recorder()) r->read(sub.tid(), src, n, dst, sub.rec_now());
    }

    void write_bytes(void* dst, const void* src, std::size_t n) {
      auto& sub = owner_.sub_;
      auto& ctx = owner_.ctx_of(sub.tid());
      sub.charge_write_buffer();  // local buffering
      const auto offset = static_cast<std::uint32_t>(ctx.buffer.size());
      ctx.buffer.resize(offset + n);
      std::memcpy(ctx.buffer.data() + offset, src, n);
      ctx.writes.push_back({dst, static_cast<std::uint32_t>(n), offset});
      if (auto* r = sub.recorder()) r->write(sub.tid(), dst, n, src, sub.rec_now());
    }

    explicit Tx(SiloCore& owner) : owner_(owner) {}

   private:
    SiloCore& owner_;
  };

  using Config = SiloCoreConfig;

  /// log2 of the hashed version-table size (collisions only cause false
  /// conflicts).
  static constexpr unsigned kVersionTableBits = 20;

  explicit SiloCore(S& sub, SiloCoreConfig = {})
      : sub_(sub),
        versions_(kVersionTableBits),
        ctxs_(static_cast<std::size_t>(sub.n_threads())) {}

  /// Runs `body` as one serializable OCC transaction, retrying until commit.
  /// `is_ro` only skips the (empty) write-lock phase; reads still validate.
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    (void)is_ro;
    const int tid = sub_.tid();
    si::util::ThreadStats& st = sub_.stats(tid);
    Ctx& ctx = ctx_of(tid);

    for (int attempt = 0;; ++attempt) {
      ctx.reset();
      if (auto* r = sub_.recorder()) r->begin(tid, /*ro=*/false, sub_.rec_now());
      double ot0 = 0;
      if (const auto* o = sub_.obs()) {
        ot0 = sub_.obs_now();
        o->tx_begin(tid, ot0, /*ro=*/false);
      }
      bool ok = true;
      try {
        Tx tx(*this);
        body(tx);
      } catch (const si::p8::TxAbort&) {
        // No substrate wait inside the catch (see sihtm_core.hpp).
        ok = false;
      }
      if (ok && try_commit(ctx)) {
        if (const auto* o = sub_.obs()) {
          o->tx_commit(tid, sub_.obs_now(), ot0,
                       static_cast<std::uint32_t>(attempt + 1));
        }
        ++st.commits;
        if (ctx.writes.empty()) ++st.ro_commits;
        return;
      }
      if (auto* r = sub_.recorder()) r->abort(tid, sub_.rec_now());
      if (const auto* o = sub_.obs()) {
        o->tx_abort(tid, sub_.obs_now(), si::util::AbortCause::kConflictRead);
      }
      st.record_abort(si::util::AbortCause::kConflictRead);
      sub_.abort_backoff(attempt);
    }
  }

  S& substrate() noexcept { return sub_; }

 private:
  friend class Tx;

  struct ReadRecord {
    si::util::LineId line;
    std::uint64_t version;
  };

  struct WriteRecord {
    void* addr;
    std::uint32_t len;
    std::uint32_t offset;  ///< into Ctx::buffer
  };

  struct alignas(si::util::kLineSize) Ctx {
    std::vector<ReadRecord> reads;
    std::vector<WriteRecord> writes;
    std::vector<unsigned char> buffer;
    std::vector<si::util::LineId> write_lines;  ///< scratch for commit

    void reset() {
      reads.clear();
      writes.clear();
      buffer.clear();
      write_lines.clear();
    }
  };

  Ctx& ctx_of(int tid) { return ctxs_[static_cast<std::size_t>(tid)]; }

  /// Records the first-read version of each line exactly once.
  void log_read(Ctx& ctx, si::util::LineId line, std::uint64_t version) {
    for (const auto& r : ctx.reads) {
      if (r.line == line) return;
    }
    ctx.reads.push_back({line, version});
  }

  bool try_commit(Ctx& ctx) {
    using si::baselines::VersionTable;

    // Phase 1: lock the write set in canonical order (deadlock freedom).
    ctx.write_lines.clear();
    for (const auto& w : ctx.writes) {
      const auto first = si::util::line_of(w.addr);
      const auto last =
          si::util::line_of(static_cast<unsigned char*>(w.addr) + w.len - 1);
      for (auto line = first; line <= last; ++line) ctx.write_lines.push_back(line);
    }
    std::sort(ctx.write_lines.begin(), ctx.write_lines.end());
    ctx.write_lines.erase(
        std::unique(ctx.write_lines.begin(), ctx.write_lines.end()),
        ctx.write_lines.end());
    std::size_t locked = 0;
    for (; locked < ctx.write_lines.size(); ++locked) {
      sub_.charge_occ(1);
      if (!versions_.try_lock(ctx.write_lines[locked])) break;
    }
    if (locked != ctx.write_lines.size()) {
      for (std::size_t i = 0; i < locked; ++i) {
        versions_.unlock(ctx.write_lines[i], false);
      }
      return false;
    }

    // Phase 2: validate the read set.
    sub_.charge_occ(ctx.reads.size());
    for (const auto& r : ctx.reads) {
      const std::uint64_t now =
          versions_.word_for(r.line).load(std::memory_order_acquire);
      const bool locked_by_us =
          VersionTable::is_locked(now) &&
          std::binary_search(ctx.write_lines.begin(), ctx.write_lines.end(),
                             r.line);
      const bool changed = (now & ~VersionTable::kLockBit) != r.version;
      if (changed || (VersionTable::is_locked(now) && !locked_by_us)) {
        for (auto line : ctx.write_lines) versions_.unlock(line, false);
        return false;
      }
    }

    // Phase 3: install and publish.
    for (const auto& w : ctx.writes) {
      std::memcpy(w.addr, ctx.buffer.data() + w.offset, w.len);
    }
    // Stamp the commit before the unlock below: the write lines are still
    // locked, so no reader can have observed the installed values yet.
    if (auto* r = sub_.recorder()) r->commit(sub_.tid(), sub_.rec_now());
    sub_.charge_occ(ctx.write_lines.size());
    for (auto line : ctx.write_lines) versions_.unlock(line, true);
    return true;
  }

  S& sub_;
  si::baselines::VersionTable versions_;
  std::vector<Ctx> ctxs_;
};

}  // namespace si::protocol
