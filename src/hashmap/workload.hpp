// Hash-map workload driver reproducing the scenarios of paper section 4.1.
//
// Two orthogonal knobs:
//  * transaction footprint — average chain length (elements / bucket):
//    200 ("large", transactions overflow the 64-line TMCAM under plain HTM)
//    or 50 ("short", transactions mostly fit);
//  * contention — bucket count: 1000 ("low") or 10 ("high").
//
// The op mix is `ro_pct` lookups; each update transaction alternates between
// an insert and a remove of the previously inserted key, keeping the map
// size (hence footprint) stationary, exactly as the paper describes ("a
// read-write transaction performs an insert, or a remove operation if the
// last transaction on that thread was an insert").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hashmap/hashmap.hpp"
#include "util/rng.hpp"

namespace si::hashmap {

struct WorkloadConfig {
  std::size_t buckets = 1000;       ///< 1000 = low contention, 10 = high
  std::size_t avg_chain = 200;      ///< 200 = large footprint, 50 = short
  unsigned ro_pct = 90;             ///< percentage of read-only lookups
  std::uint64_t key_space_factor = 2;  ///< keys drawn from [0, factor * elements)
  std::uint64_t seed = 42;
};

/// Owns the map, the per-thread pools and RNG streams, and exposes the
/// per-operation functor the run driver invokes.
class Workload {
 public:
  Workload(const WorkloadConfig& cfg, int max_threads)
      : cfg_(cfg), map_(cfg.buckets), threads_(static_cast<std::size_t>(max_threads)) {
    const std::uint64_t elements = cfg.buckets * cfg.avg_chain;
    key_space_ = elements * cfg.key_space_factor;
    si::util::Xoshiro256 rng(cfg.seed);
    for (std::uint64_t i = 0; i < elements; ++i) {
      // Value first, then key, not left to argument evaluation order.
      const std::uint64_t value = rng();
      const std::uint64_t key = rng.below(key_space_);
      map_.seed(key, value, seed_pool_);
    }
    for (int t = 0; t < max_threads; ++t) {
      threads_[static_cast<std::size_t>(t)].rng =
          si::util::Xoshiro256(cfg.seed ^ (0x1234567ULL * (t + 1)));
    }
  }

  HashMap& map() noexcept { return map_; }
  std::uint64_t key_space() const noexcept { return key_space_; }

  /// Performs one benchmark operation on backend `cc` as thread `tid`.
  template <typename CC>
  void step(CC& cc, int tid) {
    PerThread& me = threads_[static_cast<std::size_t>(tid)];
    const std::uint64_t key = me.rng.below(key_space_);

    if (me.rng.percent(cfg_.ro_pct)) {
      std::uint64_t value = 0;
      cc.execute(/*is_ro=*/true, [&](auto& tx) { map_.lookup(tx, key, &value); });
      sink_ = sink_ + value;
      return;
    }

    if (!me.insert_pending) {
      Node* fresh = me.pool.allocate();
      cc.execute(/*is_ro=*/false, [&](auto& tx) {
        map_.prepend(tx, key, key + 1, fresh);
      });
      me.pool.advance();
      me.insert_pending = true;
      me.last_key = key;
    } else {
      Node* unlinked = nullptr;
      cc.execute(/*is_ro=*/false, [&](auto& tx) {
        unlinked = nullptr;
        map_.remove(tx, me.last_key, &unlinked);
      });
      if (unlinked != nullptr) me.pool.retire(unlinked);
      me.pool.advance();
      me.insert_pending = false;
    }
  }

 private:
  struct PerThread {
    si::util::Xoshiro256 rng{0};
    Pool pool;
    bool insert_pending = false;
    std::uint64_t last_key = 0;
  };

  WorkloadConfig cfg_;
  HashMap map_;
  Pool seed_pool_;
  std::uint64_t key_space_ = 0;
  std::vector<PerThread> threads_;
  volatile std::uint64_t sink_ = 0;  ///< defeats dead-code elimination
};

}  // namespace si::hashmap
