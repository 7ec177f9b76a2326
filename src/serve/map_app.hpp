// Ordered-map application over the workload zoo (src/maps) for the serving
// layer: get / put / del / range requests, executed as one transaction each
// through the runtime facade.
//
// The range opcode is the reason this app exists next to kv_app.hpp: a scan
// touches O(k log n) cache lines — far past POWER8's 64-line transactional
// read capacity — yet is declared read-only, so on SI-HTM it rides the
// non-transactional read path and the service keeps serving scans that would
// abort every HTM backend's hardware transaction. The wire encoding packs
// (hit count << 32) | checksum into the response value, so clients can
// assert on scan results without a bulk payload format.
//
// MapApp<Map> is templated over the structure (SkipList / Bst / Btree);
// si_serve dispatches -struct to the right instantiation. Pool discipline
// matches the bench workload: one NodePool + Scratch per shard worker, all
// allocation outside transaction bodies, unlinked nodes retired through the
// pool's generation fence.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "maps/maps.hpp"
#include "runtime/runtime.hpp"
#include "serve/request.hpp"

namespace si::serve {

struct MapAppConfig {
  std::uint64_t seed_elements = 20000;  ///< keys preloaded before serving
  std::uint64_t key_space = 40000;      ///< clients should draw keys below this
  std::uint64_t seed = 42;
  std::size_t scan_cap = 128;  ///< per-request range-scan hit budget
};

// Wire opcodes (shared with si_serve / si_loadgen), hoisted out of the
// template so clients can name them without picking a structure.
// kGet/kPut/kDel match KvApp, so a map server answers plain key-value
// traffic unchanged; kRange is the zoo's addition: key = lo, arg = hi
// (inclusive).
struct MapOps {
  static constexpr std::uint16_t kGet = 0;
  static constexpr std::uint16_t kPut = 1;
  static constexpr std::uint16_t kDel = 2;
  static constexpr std::uint16_t kRange = 3;
};

template <typename Map>
class MapApp : public MapOps {
 public:

  MapApp(const MapAppConfig& cfg, int shards) : cfg_(cfg) {
    for (int s = 0; s < shards; ++s) {
      shards_.emplace_back(cfg.scan_cap);
    }
    typename Map::ScratchT seed_scratch(seed_pool_);
    seeded_ = si::maps::map_seed(map_, cfg.seed_elements, cfg.key_space,
                                 cfg.seed, seed_scratch);
  }

  const MapAppConfig& config() const noexcept { return cfg_; }
  Map& map() noexcept { return map_; }
  std::size_t seeded() const noexcept { return seeded_; }

  void execute(si::runtime::Runtime& rt, int tid, const Request& req,
               Response* resp) {
    // Only updates and ranges touch per-shard state: a get may run on a
    // reader tid (>= shards, Service::attach_reader), which indexes no shard.
    // Updates and ranges always run on their shard's tid.
    switch (req.op) {
      case kGet: {
        std::uint64_t value = 0;
        const bool found = si::maps::map_get(map_, rt, req.key, &value);
        resp->value = found ? value : 0;
        break;
      }
      case kPut: {
        PerShard& me = shards_[static_cast<std::size_t>(tid)];
        const bool linked =
            si::maps::map_put(map_, rt, req.key, req.arg, me.scratch);
        resp->value = linked ? 1 : 0;
        break;
      }
      case kDel: {
        PerShard& me = shards_[static_cast<std::size_t>(tid)];
        const bool found = si::maps::map_del(map_, rt, req.key, me.scratch);
        resp->value = found ? 1 : 0;
        break;
      }
      case kRange: {
        PerShard& me = shards_[static_cast<std::size_t>(tid)];
        const std::size_t n =
            si::maps::map_range(map_, rt, req.key, req.arg, me.hits.data(),
                                me.hits.size());
        resp->value = (static_cast<std::uint64_t>(n) << 32) |
                      (checksum(me.hits.data(), n) & 0xFFFFFFFFULL);
        break;
      }
      default:
        resp->status = Status::kFailed;
        break;
    }
  }

  /// True when the opcode's transaction is read-only (for clients that want
  /// to set Request::ro consistently). Ranges are RO by construction — that
  /// is the whole capacity story.
  static bool is_ro(std::uint16_t op) noexcept {
    return op == kGet || op == kRange;
  }

  /// Where the reactor may run the opcode without a shard hand-off
  /// (Service::serve_inline): gets on any reader tid, puts and dels on the
  /// shard's tid while no worker is executing. Ranges stay on the workers: a
  /// 64-key scan holds its thread for ~18 us, which would stall every
  /// connection on the reactor (DESIGN.md §9).
  static InlineOp inline_op(std::uint16_t op) noexcept {
    if (op == kGet) return InlineOp::kRead;
    if (op == kPut || op == kDel) return InlineOp::kUpdate;
    return InlineOp::kNone;
  }

  /// Durability tier (DESIGN.md §14): puts and dels are logged; gets and
  /// ranges leave no state behind to recover.
  static bool logged_op(std::uint16_t op) noexcept {
    return op == MapOps::kPut || op == MapOps::kDel;
  }

  /// Order-sensitive digest of a scan result; clients re-derive it from a
  /// quiesced dump to check scans without shipping the hits over the wire.
  static std::uint64_t checksum(const si::maps::RangeEntry* hits,
                                std::size_t n) noexcept {
    std::uint64_t fold = static_cast<std::uint64_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      fold = fold * 1099511628211ULL ^ hits[i].key ^ (hits[i].value << 1);
    }
    return fold;
  }

 private:
  // deque, not vector: Scratch pins its Pool's address at construction.
  struct PerShard {
    explicit PerShard(std::size_t scan_cap)
        : scratch(pool), hits(scan_cap) {}
    typename Map::Pool pool;
    typename Map::ScratchT scratch;
    std::vector<si::maps::RangeEntry> hits;
  };

  MapAppConfig cfg_;
  Map map_;
  typename Map::Pool seed_pool_;  ///< owns the preloaded nodes for map_'s life
  std::size_t seeded_ = 0;
  std::deque<PerShard> shards_;
};

}  // namespace si::serve
