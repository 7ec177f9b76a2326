// Conflict table: which transaction owns which cache line, at 128-byte
// granularity.
//
// This is the emulation's stand-in for the coherence-based conflict detection
// of P8-HTM. Each line that some in-flight transaction tracks has an entry
// recording the (single) transactional writer and the set of transactional
// readers. All decisions about who dies on a conflicting access are made by
// HtmRuntime while holding the entry's bucket lock, which makes the
// check-then-access sequence atomic per line — the property that guarantees
// the emulation never lets a read return uncommitted data (DESIGN.md §5.1).
// Untracked loads skip the table while no writer is inside the runtime
// (DESIGN.md §5.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "p8htm/topology.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"

namespace si::p8 {

/// Dense bitmap over thread ids [0, kMaxThreads).
struct ReaderSet {
  std::uint64_t bits[kMaxThreads / 64] = {};

  void set(int tid) noexcept { bits[tid >> 6] |= std::uint64_t{1} << (tid & 63); }
  void clear(int tid) noexcept { bits[tid >> 6] &= ~(std::uint64_t{1} << (tid & 63)); }
  bool test(int tid) const noexcept {
    return (bits[tid >> 6] >> (tid & 63)) & 1;
  }
  bool empty() const noexcept {
    for (auto w : bits)
      if (w) return false;
    return true;
  }
  /// True iff any thread other than `tid` is present.
  bool any_other(int tid) const noexcept {
    for (int i = 0; i < kMaxThreads / 64; ++i) {
      std::uint64_t w = bits[i];
      if (i == (tid >> 6)) w &= ~(std::uint64_t{1} << (tid & 63));
      if (w) return true;
    }
    return false;
  }
  /// Invokes fn(tid) for every member except `skip_tid` (pass -1 for none).
  template <typename Fn>
  void for_each_other(int skip_tid, Fn&& fn) const {
    for (int i = 0; i < kMaxThreads / 64; ++i) {
      std::uint64_t w = bits[i];
      while (w) {
        const int bit = __builtin_ctzll(w);
        w &= w - 1;
        const int tid = i * 64 + bit;
        if (tid != skip_tid) fn(tid);
      }
    }
  }
};

/// Conflict state of one cache line. kNoWriter in `writer` means no
/// transactional writer currently owns the line.
struct LineEntry {
  static constexpr std::int32_t kNoWriter = -1;

  si::util::LineId line = 0;
  std::int32_t writer = kNoWriter;
  ReaderSet readers;

  bool unowned() const noexcept { return writer == kNoWriter && readers.empty(); }
};

/// Hash table of LineEntry, sharded into spinlocked buckets. Entries are
/// created on first registration and reclaimed when their last owner leaves.
///
/// Each bucket stores its entries in a small inline slot array (occupancy
/// tracked by a bitmask) with a heap vector only for the overflow. With the
/// default table geometry (2^16 buckets) collisions are rare, so the common
/// lookup touches exactly one cache-resident array and never chases a heap
/// pointer — the old vector-of-entries layout paid an indirection plus an
/// O(n) scan on every conflict check.
class LineTable {
 public:
  struct Bucket {
    static constexpr std::size_t kInlineSlots = 4;

    si::util::Spinlock lock;
    std::uint8_t inline_used = 0;  ///< bit i set ⇔ slots[i] holds an entry
    LineEntry slots[kInlineSlots];
    std::vector<LineEntry> overflow;

    /// Entry for `line`, or nullptr. Caller must hold `lock`.
    LineEntry* find(si::util::LineId line) noexcept {
      for (std::size_t i = 0; i < kInlineSlots; ++i) {
        if ((inline_used & (1u << i)) != 0 && slots[i].line == line) {
          return &slots[i];
        }
      }
      for (auto& e : overflow)
        if (e.line == line) return &e;
      return nullptr;
    }

    /// Entry for `line`, created if absent. Caller must hold `lock`.
    LineEntry& find_or_create(si::util::LineId line) {
      if (LineEntry* e = find(line)) return *e;
      if (inline_used != (1u << kInlineSlots) - 1) {
        const unsigned i = static_cast<unsigned>(
            __builtin_ctz(~static_cast<unsigned>(inline_used)));
        inline_used |= static_cast<std::uint8_t>(1u << i);
        slots[i] = LineEntry{.line = line, .writer = LineEntry::kNoWriter, .readers = {}};
        return slots[i];
      }
      return overflow.emplace_back(
          LineEntry{.line = line, .writer = LineEntry::kNoWriter, .readers = {}});
    }

    /// Removes `line`'s entry if it has no owners. Caller must hold `lock`.
    void reclaim_if_unowned(si::util::LineId line) noexcept {
      for (std::size_t i = 0; i < kInlineSlots; ++i) {
        if ((inline_used & (1u << i)) != 0 && slots[i].line == line) {
          if (slots[i].unowned()) {
            inline_used &= static_cast<std::uint8_t>(~(1u << i));
          }
          return;
        }
      }
      for (std::size_t i = 0; i < overflow.size(); ++i) {
        if (overflow[i].line == line) {
          if (overflow[i].unowned()) {
            overflow[i] = overflow.back();
            overflow.pop_back();
          }
          return;
        }
      }
    }
  };

  explicit LineTable(unsigned bits) : mask_((std::size_t{1} << bits) - 1),
                                      buckets_(std::size_t{1} << bits) {}

  Bucket& bucket_for(si::util::LineId line) noexcept {
    return buckets_[hash(line) & mask_];
  }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

 private:
  static std::size_t hash(si::util::LineId line) noexcept {
    return static_cast<std::size_t>(line * 0x9E3779B97F4A7C15ULL >> 32);
  }

  std::size_t mask_;
  std::vector<Bucket> buckets_;
};

}  // namespace si::p8
