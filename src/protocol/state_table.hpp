// The shared per-thread state array of SI-HTM (Algorithm 1, line 1).
//
// Encoding, exactly as in the paper: 0 = inactive, 1 = completed (waiting for
// a safe commit), any value > 1 = active since that logical timestamp.
//
// All updates to a thread's slot are performed non-transactionally: inside a
// ROT the update happens under suspend/resume (Algorithm 1 lines 12-15), so
// the slot never enters any transaction's TMCAM footprint. Because no
// transaction ever *tracks* these lines, the emulation can legitimately
// bypass the conflict table and use raw atomics here — the array is plain
// concurrently-shared memory, not transactional data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/cacheline.hpp"

namespace si::protocol {

inline constexpr std::uint64_t kInactive = 0;
inline constexpr std::uint64_t kCompleted = 1;

class StateTable {
 public:
  explicit StateTable(int n_threads)
      : n_(n_threads), slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(n_threads))) {}

  int size() const noexcept { return n_; }

  std::uint64_t get(int tid) const noexcept {
    return slots_[tid].v.load(std::memory_order_acquire);
  }

  void set(int tid, std::uint64_t value) noexcept {
    slots_[tid].v.store(value, std::memory_order_release);
  }

  /// Copies all slots into `out` (the snapshot of Algorithm 1, line 16).
  void snapshot(std::uint64_t* out) const noexcept {
    for (int i = 0; i < n_; ++i) out[i] = get(i);
  }

 private:
  struct alignas(si::util::kLineSize) Slot {
    std::atomic<std::uint64_t> v{kInactive};
  };

  int n_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace si::protocol
