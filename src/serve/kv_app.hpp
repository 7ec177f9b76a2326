// Key-value application over the transactional hash map (src/hashmap) for
// the serving layer: get / put / del requests, executed as one transaction
// each through the runtime facade.
//
// get is declared read-only, so on SI-HTM it rides the non-transactional
// read-only path (Algorithm 2) — the reason a read-dominated service is
// nearly concurrency-control-free on that backend. put uses HashMap::insert
// (update-in-place on a duplicate key), so the map's footprint stays
// bounded by the live key set no matter how the client mixes operations.
//
// Node pools are per shard worker (per tid), same discipline as the bench
// workload: nodes are allocated outside the transaction, retired only after
// the unlinking transaction committed, and reused generations later.
#pragma once

#include <cstdint>
#include <vector>

#include "hashmap/hashmap.hpp"
#include "runtime/runtime.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"

namespace si::serve {

struct KvAppConfig {
  std::size_t buckets = 1000;
  std::uint64_t seed_elements = 20000;  ///< keys preloaded before serving
  std::uint64_t key_space = 40000;      ///< clients should draw keys below this
  std::uint64_t seed = 42;
};

class KvApp {
 public:
  // Wire opcodes (shared with si_serve / si_loadgen).
  static constexpr std::uint16_t kGet = 0;
  static constexpr std::uint16_t kPut = 1;
  static constexpr std::uint16_t kDel = 2;

  KvApp(const KvAppConfig& cfg, int shards)
      : cfg_(cfg), map_(cfg.buckets), shards_(static_cast<std::size_t>(shards)) {
    si::util::Xoshiro256 rng(cfg.seed);
    for (std::uint64_t i = 0; i < cfg.seed_elements; ++i) {
      // Value first, then key: this order defines the preload (perfbench's
      // oracle models it), so it is not left to argument evaluation order.
      const std::uint64_t value = rng();
      const std::uint64_t key = rng.below(cfg.key_space);
      map_.seed(key, value, seed_pool_);
    }
  }

  const KvAppConfig& config() const noexcept { return cfg_; }
  si::hashmap::HashMap& map() noexcept { return map_; }

  void execute(si::runtime::Runtime& rt, int tid, const Request& req,
               Response* resp) {
    // Only updates touch per-shard state: a get may run on a reader tid
    // (>= shards, Service::attach_reader), which indexes no shard. An update
    // always runs on its shard's tid, inline or not.
    switch (req.op) {
      case kGet: {
        std::uint64_t value = 0;
        bool found = false;
        rt.execute(/*is_ro=*/true, [&](auto& tx) {
          found = map_.lookup(tx, req.key, &value);
        });
        resp->value = found ? value : 0;
        break;
      }
      case kPut: {
        PerShard& me = shards_[static_cast<std::size_t>(tid)];
        si::hashmap::Node* fresh = me.pool.allocate();
        bool linked = false;
        rt.execute(/*is_ro=*/false, [&](auto& tx) {
          linked = map_.insert(tx, req.key, req.arg, fresh);
        });
        if (!linked) me.pool.release(fresh);  // updated in place; never shared
        me.pool.advance();
        resp->value = linked ? 1 : 0;
        break;
      }
      case kDel: {
        PerShard& me = shards_[static_cast<std::size_t>(tid)];
        si::hashmap::Node* unlinked = nullptr;
        rt.execute(/*is_ro=*/false, [&](auto& tx) {
          unlinked = nullptr;
          map_.remove(tx, req.key, &unlinked);
        });
        if (unlinked != nullptr) me.pool.retire(unlinked);
        me.pool.advance();
        resp->value = unlinked != nullptr ? 1 : 0;
        break;
      }
      default:
        resp->status = Status::kFailed;
        break;
    }
  }

  /// True when the opcode's transaction is read-only (for clients that want
  /// to set Request::ro consistently).
  static bool is_ro(std::uint16_t op) noexcept { return op == kGet; }

  /// Where the reactor may run the opcode without a shard hand-off
  /// (Service::serve_inline): a get is read-only and uses no per-shard state,
  /// so any reader tid serves it; put and del use the shard's node pool, so
  /// they run on the shard's tid while no worker is executing.
  static InlineOp inline_op(std::uint16_t op) noexcept {
    if (op == kGet) return InlineOp::kRead;
    if (op == kPut || op == kDel) return InlineOp::kUpdate;
    return InlineOp::kNone;
  }

  /// True when a committed request of this opcode must reach the write-ahead
  /// log before its ack may be released (durability tier, DESIGN.md §14).
  static bool logged_op(std::uint16_t op) noexcept {
    return op == kPut || op == kDel;
  }

 private:
  struct PerShard {
    si::hashmap::Pool pool;
  };

  KvAppConfig cfg_;
  si::hashmap::HashMap map_;
  si::hashmap::Pool seed_pool_;
  std::vector<PerShard> shards_;
};

}  // namespace si::serve
