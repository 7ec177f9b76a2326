// Unit suite for the concurrent-map zoo (src/maps/): each structure against
// a std::map oracle through DirectCC, through both lock-based baselines, and
// through every real-thread Runtime backend single-threaded — the base
// correctness layer under the property/stress/fuzz suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/locked.hpp"
#include "maps/maps.hpp"
#include "maps/skiplist.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace {

using si::maps::Bst;
using si::maps::Btree;
using si::maps::DirectCC;
using si::maps::LockedMap;
using si::maps::LockMode;
using si::maps::RangeEntry;
using si::maps::SkipList;

constexpr std::size_t kRangeCap = 64;

// One scripted operation; results are compared against std::map.
struct Op {
  enum Kind { kGet, kPut, kDel, kRange } kind = kGet;
  std::uint64_t key = 0;
  std::uint64_t val = 0;
  std::uint64_t hi = 0;
};

std::vector<Op> make_ops(std::uint64_t seed, std::size_t n,
                         std::uint64_t key_space) {
  si::util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    const std::uint64_t d = rng.below(100);
    op.key = 1 + rng.below(key_space);
    op.val = rng();
    if (d < 30) {
      op.kind = Op::kGet;
    } else if (d < 60) {
      op.kind = Op::kPut;
    } else if (d < 85) {
      op.kind = Op::kDel;
    } else {
      op.kind = Op::kRange;
      op.hi = op.key + rng.below(40);
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies `op` to the oracle, returning the value the map API must produce.
std::uint64_t oracle_apply(std::map<std::uint64_t, std::uint64_t>& oracle,
                           const Op& op, std::vector<RangeEntry>* hits) {
  switch (op.kind) {
    case Op::kGet: {
      auto it = oracle.find(op.key);
      return it == oracle.end() ? 0 : 1 + it->second;
    }
    case Op::kPut: {
      const bool fresh = oracle.insert_or_assign(op.key, op.val).second;
      return fresh ? 1 : 0;
    }
    case Op::kDel:
      return oracle.erase(op.key);
    case Op::kRange: {
      hits->clear();
      for (auto it = oracle.lower_bound(op.key);
           it != oracle.end() && it->first <= op.hi && hits->size() < kRangeCap;
           ++it)
        hits->push_back({it->first, it->second});
      return hits->size();
    }
  }
  return 0;
}

/// Runs the script through the map_* drivers on any CC, checking every
/// result against the oracle.
template <typename Map, typename CC>
void run_script_against_oracle(Map& map, CC& cc,
                               typename Map::ScratchT& scratch,
                               const std::vector<Op>& ops) {
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<RangeEntry> want;
  RangeEntry got[kRangeCap];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::uint64_t expect = oracle_apply(oracle, op, &want);
    switch (op.kind) {
      case Op::kGet: {
        std::uint64_t v = 0;
        const bool found = map_get(map, cc, op.key, &v);
        ASSERT_EQ(found ? 1 + v : 0, expect) << "op " << i;
        break;
      }
      case Op::kPut:
        ASSERT_EQ(map_put(map, cc, op.key, op.val, scratch) ? 1u : 0u, expect)
            << "op " << i;
        break;
      case Op::kDel:
        ASSERT_EQ(map_del(map, cc, op.key, scratch) ? 1u : 0u, expect)
            << "op " << i;
        break;
      case Op::kRange: {
        const std::size_t n = map_range(map, cc, op.key, op.hi, got, kRangeCap);
        ASSERT_EQ(n, want.size()) << "op " << i;
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(got[j].key, want[j].key) << "op " << i << " hit " << j;
          EXPECT_EQ(got[j].value, want[j].value) << "op " << i << " hit " << j;
        }
        break;
      }
    }
  }
  // Final state: ordered dump equals the oracle, structure invariants hold.
  const auto dump = si::maps::map_dump(map);
  ASSERT_EQ(dump.size(), oracle.size());
  auto it = oracle.begin();
  for (std::size_t i = 0; i < dump.size(); ++i, ++it) {
    EXPECT_EQ(dump[i].key, it->first);
    EXPECT_EQ(dump[i].value, it->second);
  }
  EXPECT_TRUE(map.structure_ok());
}

/// Seed shapes the sorted build must reproduce: several seeds, no draws,
/// heavy duplication (key_space < n) and a one-key space.
struct SeedCase {
  std::size_t n;
  std::uint64_t key_space;
  std::uint64_t seed;
};
constexpr SeedCase kSeedCases[] = {{3000, 6000, 1},  {3000, 6000, 7},
                                   {3000, 6000, 42}, {20000, 40000, 1234},
                                   {0, 100, 5},      {2000, 150, 9},
                                   {50, 1, 11}};

std::string describe(const SeedCase& c) {
  return "n=" + std::to_string(c.n) + " key_space=" +
         std::to_string(c.key_space) + " seed=" + std::to_string(c.seed);
}

/// The reference for map_seed: map_put of every draw, in draw order.
template <typename Map>
std::size_t seed_by_puts(Map& map, const SeedCase& c,
                         typename Map::ScratchT& scratch) {
  DirectCC cc;
  std::size_t linked = 0;
  for (std::size_t i = 0; i < c.n; ++i) {
    const std::uint64_t key = 1 + si::maps::mix64(c.seed + i) % c.key_space;
    if (map_put(map, cc, key, key * 3, scratch)) ++linked;
  }
  return linked;
}

template <typename MapT>
class MapsTypedTest : public ::testing::Test {};

using MapTypes = ::testing::Types<SkipList, Bst, Btree>;
TYPED_TEST_SUITE(MapsTypedTest, MapTypes);

TYPED_TEST(MapsTypedTest, DirectMatchesOracle) {
  TypeParam map;
  typename TypeParam::Pool pool;
  typename TypeParam::ScratchT scratch(pool);
  DirectCC cc;
  run_script_against_oracle(map, cc, scratch,
                            make_ops(0xD1CE, 4000, /*key_space=*/256));
}

TYPED_TEST(MapsTypedTest, SmallKeySpaceChurn) {
  // key_space 8 forces constant node reuse (retire/advance cycling) and, for
  // the B+-tree, repeated splits over underfull leaves.
  TypeParam map;
  typename TypeParam::Pool pool;
  typename TypeParam::ScratchT scratch(pool);
  DirectCC cc;
  run_script_against_oracle(map, cc, scratch,
                            make_ops(0xBEEF, 3000, /*key_space=*/8));
}

TYPED_TEST(MapsTypedTest, LockedBaselinesMatchOracle) {
  for (const LockMode mode : {LockMode::kCoarse, LockMode::kFine}) {
    LockedMap<TypeParam> locked(mode);
    typename TypeParam::Pool pool;
    typename TypeParam::ScratchT scratch(pool);
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::vector<RangeEntry> want;
    RangeEntry got[kRangeCap];
    const auto ops = make_ops(0xF00D ^ static_cast<int>(mode), 3000, 128);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const std::uint64_t expect = oracle_apply(oracle, op, &want);
      switch (op.kind) {
        case Op::kGet: {
          std::uint64_t v = 0;
          const bool found = locked.get(op.key, &v);
          ASSERT_EQ(found ? 1 + v : 0, expect) << "op " << i;
          break;
        }
        case Op::kPut:
          ASSERT_EQ(locked.put(op.key, op.val, scratch) ? 1u : 0u, expect);
          break;
        case Op::kDel:
          ASSERT_EQ(locked.del(op.key, scratch) ? 1u : 0u, expect);
          break;
        case Op::kRange: {
          const std::size_t n = locked.range(op.key, op.hi, got, kRangeCap);
          ASSERT_EQ(n, want.size()) << "op " << i;
          for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(got[j].key, want[j].key);
          break;
        }
      }
    }
    EXPECT_TRUE(locked.map().structure_ok());
  }
}

TYPED_TEST(MapsTypedTest, RunsOnEveryRuntimeBackend) {
  // Single-threaded on the real substrate: every protocol must execute the
  // structure's transactions and agree with the oracle. This is the "all
  // four protocols (plus the raw-ROT ablation) run the zoo unchanged" claim
  // at the unit level; multi-threaded coverage lives in the property test.
  using si::runtime::Backend;
  for (const Backend b : {Backend::kSiHtm, Backend::kHtm, Backend::kP8tm,
                          Backend::kSilo, Backend::kRawRot}) {
    SCOPED_TRACE(std::string(to_string(b)));
    si::runtime::Runtime rt({.backend = b, .max_threads = 4});
    rt.register_thread(0);
    TypeParam map;
    typename TypeParam::Pool pool;
    typename TypeParam::ScratchT scratch(pool);
    run_script_against_oracle(map, rt, scratch,
                              make_ops(0xACE0 + static_cast<int>(b), 1200, 96));
  }
}

TYPED_TEST(MapsTypedTest, SeedMatchesInsertOrderBuild) {
  for (const SeedCase& c : kSeedCases) {
    SCOPED_TRACE(describe(c));
    TypeParam got, want;
    typename TypeParam::Pool got_pool, want_pool;
    typename TypeParam::ScratchT got_scratch(got_pool), want_scratch(want_pool);
    EXPECT_EQ(si::maps::map_seed(got, c.n, c.key_space, c.seed, got_scratch),
              seed_by_puts(want, c, want_scratch));
    EXPECT_EQ(got_pool.allocated(), want_pool.allocated());
    EXPECT_EQ(si::maps::map_count(got), si::maps::map_count(want));
    const auto got_dump = si::maps::map_dump(got);
    const auto want_dump = si::maps::map_dump(want);
    ASSERT_EQ(got_dump.size(), want_dump.size());
    for (std::size_t i = 0; i < got_dump.size(); ++i) {
      ASSERT_EQ(got_dump[i].key, want_dump[i].key) << "entry " << i;
      ASSERT_EQ(got_dump[i].value, want_dump[i].value) << "entry " << i;
    }
    EXPECT_TRUE(got.structure_ok());
  }
}

/// First difference between two skiplists compared node for node by arena
/// index (key, value, height and every tower target, head tower first), or
/// "" when they are identical.
std::string skiplist_diff(SkipList& a, const SkipList::Pool& a_pool,
                          SkipList& b, const SkipList::Pool& b_pool) {
  using Node = SkipList::Node;
  if (a_pool.arena().size() != b_pool.arena().size()) return "arena size";
  auto index_of = [](const SkipList::Pool& pool) {
    std::unordered_map<const Node*, std::ptrdiff_t> idx{{nullptr, -1}};
    for (std::size_t i = 0; i < pool.arena().size(); ++i)
      idx.emplace(&pool.arena()[i], static_cast<std::ptrdiff_t>(i));
    return idx;
  };
  const auto a_idx = index_of(a_pool);
  const auto b_idx = index_of(b_pool);
  auto tower_diff = [&](const Node& x, const Node& y) -> std::string {
    for (int l = 0; l < SkipList::kMaxLevel; ++l) {
      const auto xi = a_idx.find(x.next[l]);
      const auto yi = b_idx.find(y.next[l]);
      if (xi == a_idx.end() || yi == b_idx.end() || xi->second != yi->second)
        return "next[" + std::to_string(l) + "]";
    }
    return "";
  };
  if (auto d = tower_diff(*a.head(), *b.head()); !d.empty()) return "head " + d;
  for (std::size_t i = 0; i < a_pool.arena().size(); ++i) {
    const Node& x = a_pool.arena()[i];
    const Node& y = b_pool.arena()[i];
    std::string d = x.key != y.key         ? "key"
                    : x.value != y.value   ? "value"
                    : x.height != y.height ? "height"
                                           : tower_diff(x, y);
    if (!d.empty()) return "node " + std::to_string(i) + " " + d;
  }
  return "";
}

TEST(SkipListTest, SortedSeedIsInsertOrderBuildNodeForNode) {
  for (const SeedCase& c : kSeedCases) {
    SCOPED_TRACE(describe(c));
    SkipList got, want;
    SkipList::Pool got_pool, want_pool;
    SkipList::ScratchT got_scratch(got_pool), want_scratch(want_pool);
    si::maps::map_seed(got, c.n, c.key_space, c.seed, got_scratch);
    seed_by_puts(want, c, want_scratch);
    EXPECT_EQ(skiplist_diff(got, got_pool, want, want_pool), "");
    EXPECT_TRUE(got.structure_ok());
  }
}

TEST(SkipListTest, DeterministicTowers) {
  // Heights are a pure function of the key and respect the level cap.
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const int h = SkipList::height_of(k);
    ASSERT_GE(h, 1);
    ASSERT_LE(h, SkipList::kMaxLevel);
    ASSERT_EQ(h, SkipList::height_of(k));
  }
  // A geometric(1/2) distribution: roughly half the keys have height 1.
  int ones = 0;
  for (std::uint64_t k = 0; k < 4096; ++k)
    if (SkipList::height_of(k) == 1) ++ones;
  EXPECT_GT(ones, 4096 / 3);
  EXPECT_LT(ones, 2 * 4096 / 3);
}

TEST(BtreeTest, AscendingInsertSplitsStayBalanced) {
  Btree map;
  Btree::Pool pool;
  Btree::ScratchT scratch(pool);
  DirectCC cc;
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t k = 1; k <= kN; ++k)
    ASSERT_TRUE(map_put(map, cc, k, k * 7, scratch));
  EXPECT_TRUE(map.structure_ok());
  const auto dump = si::maps::map_dump(map);
  ASSERT_EQ(dump.size(), kN);
  for (std::uint64_t k = 1; k <= kN; ++k) {
    EXPECT_EQ(dump[k - 1].key, k);
    EXPECT_EQ(dump[k - 1].value, k * 7);
  }
  // Deleting everything leaves empty-but-valid leaves behind.
  for (std::uint64_t k = 1; k <= kN; ++k)
    ASSERT_TRUE(map_del(map, cc, k, scratch));
  EXPECT_TRUE(map.structure_ok());
  EXPECT_EQ(si::maps::map_count(map), 0u);
}

TEST(BstTest, TwoChildRemovalSplicesSuccessor) {
  Bst map;
  Bst::Pool pool;
  Bst::ScratchT scratch(pool);
  DirectCC cc;
  // Build a deliberately bushy shape, then remove interior nodes.
  for (const std::uint64_t k : {50, 25, 75, 12, 37, 62, 87, 31, 43, 56, 68})
    ASSERT_TRUE(map_put(map, cc, k, k, scratch));
  ASSERT_TRUE(map_del(map, cc, 50, scratch));  // root, two children
  ASSERT_TRUE(map_del(map, cc, 25, scratch));  // interior, two children
  EXPECT_TRUE(map.structure_ok());
  const auto dump = si::maps::map_dump(map);
  const std::vector<std::uint64_t> want{12, 31, 37, 43, 56, 62, 68, 75, 87};
  ASSERT_EQ(dump.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(dump[i].key, want[i]);
}

}  // namespace
