// Hashed per-line version/lock words, shared by the software concurrency
// controls (Silo's OCC and P8TM's read validation).
//
// Like TL2/Silo lock tables, versions are kept in a fixed array indexed by a
// hash of the cache-line id; collisions only ever cause false conflicts,
// never missed ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/cacheline.hpp"
#include "util/backoff.hpp"
#include "util/spinlock.hpp"

namespace si::protocol {

class VersionTable {
 public:
  /// Low bit = lock flag; upper bits = version counter.
  static constexpr std::uint64_t kLockBit = 1;

  explicit VersionTable(unsigned bits = 20)
      : mask_((std::size_t{1} << bits) - 1),
        words_(std::make_unique<std::atomic<std::uint64_t>[]>(std::size_t{1} << bits)) {}

  std::atomic<std::uint64_t>& word_for(si::util::LineId line) noexcept {
    return words_[hash(line) & mask_];
  }

  static bool is_locked(std::uint64_t w) noexcept { return (w & kLockBit) != 0; }

  /// Spins until the word is unlocked and returns its (version) value.
  std::uint64_t read_stable(si::util::LineId line) noexcept {
    auto& w = word_for(line);
    si::util::Backoff backoff;
    for (;;) {
      const std::uint64_t v = w.load(std::memory_order_acquire);
      if (!is_locked(v)) return v;
      backoff.pause();
    }
  }

  /// Tries to lock the word; returns false if currently locked.
  bool try_lock(si::util::LineId line) noexcept {
    auto& w = word_for(line);
    std::uint64_t v = w.load(std::memory_order_acquire);
    if (is_locked(v)) return false;
    return w.compare_exchange_strong(v, v | kLockBit, std::memory_order_acq_rel);
  }

  /// Unlocks, optionally advancing the version (post-install).
  void unlock(si::util::LineId line, bool bump) noexcept {
    auto& w = word_for(line);
    const std::uint64_t v = w.load(std::memory_order_relaxed);
    w.store((v & ~kLockBit) + (bump ? 2 : 0), std::memory_order_release);
  }

  /// Advances the version of a line without holding its lock (used by P8TM
  /// after HTMEnd, when hardware write-write detection already guarantees
  /// exclusive ownership of the written lines).
  void bump(si::util::LineId line) noexcept {
    word_for(line).fetch_add(2, std::memory_order_acq_rel);
  }

 private:
  static std::size_t hash(si::util::LineId line) noexcept {
    return static_cast<std::size_t>(line * 0x9E3779B97F4A7C15ULL >> 24);
  }

  std::size_t mask_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace si::protocol
