// Shared vocabulary for the concurrent-map workload zoo.
//
// The zoo (skiplist, BST, B+-tree) extends the App concept with a fourth
// operation, `range(lo, hi)`: a read-only scan whose result must correspond
// to one consistent snapshot of the map. Under SI-HTM ranges ride the
// non-transactional read path, which is exactly where the paper's capacity
// argument bites — a scan touches O(k log n) cache lines, far past POWER8's
// 64-line transactional read capacity, yet tracks zero of them as a snapshot
// reader. Every structure is written once against the Tx handle concept
// (protocol/substrate.hpp) and instantiated over all protocol transcriptions
// on both substrates, plus the two lock-based baselines below.
//
// Determinism rules shared by all three structures:
//   * no live RNG inside transaction bodies — skiplist tower heights derive
//     from a hash of the key, so retried bodies and real-vs-sim runs make
//     identical choices;
//   * all allocation happens outside transaction bodies via Scratch, which
//     hands back the same nodes on every retry of one operation;
//   * traversals carry step budgets, because Silo's optimistic readers can
//     observe transiently inconsistent pointers (the validation that follows
//     rejects the snapshot, but the traversal itself must not hang first).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "hashmap/node_pool.hpp"

namespace si::maps {

/// Which structure a CLI flag / workload config selects.
enum class Struct { kSkiplist, kBst, kBtree };

inline constexpr std::string_view to_string(Struct s) {
  switch (s) {
    case Struct::kSkiplist: return "skiplist";
    case Struct::kBst: return "bst";
    case Struct::kBtree: return "btree";
  }
  return "?";
}

inline Struct struct_from_string(std::string_view name) {
  if (name == "skiplist") return Struct::kSkiplist;
  if (name == "bst") return Struct::kBst;
  if (name == "btree") return Struct::kBtree;
  throw std::invalid_argument("unknown struct: " + std::string(name) +
                              " (want skiplist|bst|btree)");
}

/// One hit returned by range(lo, hi).
struct RangeEntry {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Upper bound on nodes a traversal may visit before giving up. Real
/// structures in these tests are far smaller; the budget only exists so a
/// torn snapshot seen by an optimistic reader (dangling or cyclic pointer)
/// terminates instead of spinning — the backend's validation then aborts it.
inline constexpr std::size_t kTraversalBudget = std::size_t{1} << 20;

/// splitmix64 finaliser — the deterministic hash behind skiplist tower
/// heights and workload key scrambling.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Plain-memory Tx handle: satisfies the Tx concept with direct loads and
/// stores. Two uses: seeding/inspecting structures outside any transaction
/// (seed/count/dump reuse the exact transactional code paths instead of
/// duplicating them), and the coarse-lock baseline, which is "global
/// spinlock + DirectTx through the unchanged structure code".
class DirectTx {
 public:
  template <typename T>
  T read(const T* addr) const noexcept {
    return *addr;
  }
  template <typename T>
  void write(T* addr, const T& value) const noexcept {
    *addr = value;
  }
};

/// Per-operation allocation staging. Transaction bodies may be retried, so
/// they must not allocate; instead the wrapper calls reset() before
/// execute(), the body draws nodes with take() (the same nodes on every
/// retry, in the same order), and settle() afterwards keeps consumed nodes
/// out of circulation while recycling the over-provisioned ones for the next
/// operation. Nodes are only initialised inside the transaction, so an
/// aborted attempt leaves unpublished garbage that the retry overwrites.
template <typename Node>
struct Scratch {
  using Pool = si::hashmap::NodePool<Node>;

  explicit Scratch(Pool& pool) : pool_(&pool) {}

  void reset() noexcept { cursor_ = 0; }

  Node* take() {
    if (cursor_ == staged_.size()) staged_.push_back(pool_->allocate());
    return staged_[cursor_++];
  }

  /// After a committed operation: forget the nodes the structure linked in
  /// (first `cursor_` of them) and keep the rest staged for the next op.
  void settle() {
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }

  Pool& pool() noexcept { return *pool_; }

 private:
  Pool* pool_;
  std::vector<Node*> staged_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// CC-level drivers. Each structure exposes per-Tx methods (lookup / insert /
// remove / range taking a Tx handle); these wrappers add the transaction
// boundary and the pool discipline so every caller — benches, serve apps,
// tests, the fuzzer — gets them right by construction.
// ---------------------------------------------------------------------------

template <typename Map, typename CC>
bool map_get(Map& map, CC& cc, std::uint64_t key, std::uint64_t* out) {
  bool found = false;
  std::uint64_t value = 0;
  cc.execute(true, [&](auto& tx) {
    found = false;
    value = 0;
    found = map.lookup(tx, key, &value);
  });
  if (found && out != nullptr) *out = value;
  return found;
}

/// Insert-or-update; returns true iff a fresh node was linked (key was new).
template <typename Map, typename CC>
bool map_put(Map& map, CC& cc, std::uint64_t key, std::uint64_t value,
             typename Map::ScratchT& scratch) {
  bool linked = false;
  cc.execute(false, [&](auto& tx) {
    scratch.reset();
    linked = map.insert(tx, key, value, scratch);
  });
  scratch.settle();
  scratch.pool().advance();
  return linked;
}

/// Returns true iff the key was present. Physically unlinked nodes are
/// retired (generation-deferred reuse; see node_pool.hpp) because in-flight
/// snapshot readers may still traverse them.
template <typename Map, typename CC>
bool map_del(Map& map, CC& cc, std::uint64_t key,
             typename Map::ScratchT& scratch) {
  typename Map::Node* unlinked = nullptr;
  bool found = false;
  cc.execute(false, [&](auto& tx) {
    unlinked = nullptr;
    found = map.remove(tx, key, &unlinked);
  });
  if (unlinked != nullptr) scratch.pool().retire(unlinked);
  scratch.pool().advance();
  return found;
}

/// Snapshot range scan into a caller buffer; returns the hit count
/// (truncated at cap). Declared read-only, so SI-HTM serves it from the
/// non-transactional read path regardless of how many lines it touches.
template <typename Map, typename CC>
std::size_t map_range(Map& map, CC& cc, std::uint64_t lo, std::uint64_t hi,
                      RangeEntry* out, std::size_t cap) {
  if (cap == 0) return 0;
  std::size_t n = 0;
  cc.execute(true, [&](auto& tx) {
    n = 0;
    map.range(tx, lo, hi, [&](std::uint64_t k, std::uint64_t v) {
      out[n++] = RangeEntry{k, v};
      return n < cap;  // false stops the scan at the buffer's edge
    });
  });
  return n;
}

// ---------------------------------------------------------------------------
// Non-transactional helpers. DirectCC satisfies just enough of the CC concept
// (execute) to drive the map_* wrappers over plain memory; callers must be
// quiesced (seeding before a run, inspection after one).
// ---------------------------------------------------------------------------

class DirectCC {
 public:
  template <typename Body>
  void execute(bool /*is_ro*/, Body&& body) {
    DirectTx tx;
    body(tx);
  }
};

/// Full ordered dump (quiesced callers only).
template <typename Map>
std::vector<RangeEntry> map_dump(Map& map) {
  std::vector<RangeEntry> out;
  DirectTx tx;
  map.range(tx, 0, ~std::uint64_t{0},
            [&](std::uint64_t k, std::uint64_t v) {
              out.push_back(RangeEntry{k, v});
              return true;
            });
  return out;
}

template <typename Map>
std::size_t map_count(Map& map) {
  std::size_t n = 0;
  DirectTx tx;
  map.range(tx, 0, ~std::uint64_t{0}, [&](std::uint64_t, std::uint64_t) {
    ++n;
    return true;
  });
  return n;
}

namespace detail {

struct SeedDraw {
  std::uint64_t key;
  std::size_t index;
};

/// Stable LSD radix sort by key, 8-bit digits over keys <= max_key. Stable,
/// so draws of one key stay in draw order and the first is its first draw.
inline void sort_draws_by_key(std::vector<SeedDraw>& draws,
                              std::uint64_t max_key) {
  std::vector<SeedDraw> out(draws.size());
  for (std::uint64_t shift = 0; shift < std::bit_width(max_key); shift += 8) {
    std::size_t start[256] = {};
    for (const SeedDraw& d : draws) ++start[(d.key >> shift) & 0xFF];
    std::size_t sum = 0;
    for (std::size_t& s : start) {
      const std::size_t count = s;
      s = sum;
      sum += count;
    }
    for (const SeedDraw& d : draws) out[start[(d.key >> shift) & 0xFF]++] = d;
    draws.swap(out);
  }
}

}  // namespace detail

/// Deterministically pre-populates an empty `map` with `n` draws over
/// [1, key_space] (value = key * 3). Returns the number of distinct keys.
///
/// The result is the map that `map_put` of every draw in draw order builds,
/// node for node, but repeats are dropped up front: one sort of the draws
/// finds each key's first occurrence, and a repeat would only rewrite the
/// same value in place. Nodes come from `scratch` in first-occurrence order,
/// the order those puts would take them. A structure whose shape depends on
/// its key set alone (SkipList: towers are height_of(key)) is then linked in
/// one ascending pass; Bst and Btree shapes depend on insertion order, so
/// they still put each distinct key in draw order.
template <typename Map>
std::size_t map_seed(Map& map, std::size_t n, std::uint64_t key_space,
                     std::uint64_t seed, typename Map::ScratchT& scratch) {
  auto key_of = [&](std::size_t i) { return 1 + mix64(seed + i) % key_space; };

  // rank_of_draw[i]: the key-order rank of draw i's key if draw i is that
  // key's first draw, kRepeat otherwise.
  constexpr std::size_t kRepeat = ~std::size_t{0};
  std::vector<std::size_t> rank_of_draw(n, kRepeat);
  std::size_t distinct = 0;
  {  // scoped: the draws are freed before the pool's arena grows
    std::vector<detail::SeedDraw> draws(n);
    for (std::size_t i = 0; i < n; ++i)
      draws[i] = detail::SeedDraw{key_of(i), i};
    detail::sort_draws_by_key(draws, key_space);
    for (std::size_t j = 0; j < n; ++j)
      if (j == 0 || draws[j].key != draws[j - 1].key)
        rank_of_draw[draws[j].index] = distinct++;
  }

  if constexpr (requires { map.link_sorted(nullptr, std::size_t{0}); }) {
    std::vector<typename Map::Node*> sorted(distinct);
    for (std::size_t i = 0; i < n; ++i) {
      if (rank_of_draw[i] == kRepeat) continue;
      scratch.reset();
      typename Map::Node* node = scratch.take();
      scratch.settle();
      node->key = key_of(i);
      node->value = node->key * 3;
      sorted[rank_of_draw[i]] = node;
    }
    map.link_sorted(sorted.data(), distinct);
    return distinct;
  } else {
    DirectCC cc;
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rank_of_draw[i] == kRepeat) continue;
      const std::uint64_t key = key_of(i);
      if (map_put(map, cc, key, key * 3, scratch)) ++inserted;
    }
    return inserted;
  }
}

}  // namespace si::maps
