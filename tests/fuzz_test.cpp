// Schedule-fuzzer smoke batch (ctest label: fuzz-smoke).
//
// Drives the seeded deterministic fuzzer (src/check/fuzzer.hpp) over the
// simulated backends: the correct ones must survive every schedule with a
// clean SI verdict and a conserved ledger, the intentionally-broken raw-ROT
// mode must produce at least one violation the checker catches, and any
// failing seed must replay to a byte-identical event log.
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "check/history.hpp"
#include "check/verify.hpp"

namespace {

using si::runtime::Backend;
using si::check::FuzzConfig;
using si::check::FuzzStruct;
using si::check::FuzzSummary;
using si::check::ScheduleReport;

std::string summarize_failure(const FuzzSummary& s) {
  std::ostringstream os;
  os << s.failures << "/" << s.schedules << " schedules failed; seeds:";
  for (auto seed : s.failing_seeds) os << " " << seed;
  os << "\nfirst failure (seed " << s.first_failure.seed << ", invariants "
     << (s.first_failure.invariants_ok ? "ok" : "VIOLATED") << "):\n"
     << describe(s.first_failure.verify)
     << "replay: run_schedule(cfg, " << s.first_failure.seed
     << ") or tools/si_fuzz --replay=" << s.first_failure.seed << "\n";
  return os.str();
}

void expect_clean(Backend backend, std::uint64_t base_seed, int n,
                  FuzzStruct structure = FuzzStruct::kLedger) {
  FuzzConfig cfg;
  cfg.backend = backend;
  cfg.structure = structure;
  const FuzzSummary s = si::check::fuzz(cfg, base_seed, n);
  EXPECT_EQ(s.schedules, n);
  EXPECT_TRUE(s.ok()) << summarize_failure(s);
}

// 3 x 72 = 216 seeded schedules across the correct backends — the >= 200
// clean-schedule acceptance bar, kept in the default ctest run.
TEST(FuzzSmoke, SiHtm) { expect_clean(Backend::kSiHtm, 1000, 72); }
TEST(FuzzSmoke, HtmSgl) { expect_clean(Backend::kHtm, 2000, 72); }
TEST(FuzzSmoke, Silo) { expect_clean(Backend::kSilo, 3000, 72); }

TEST(FuzzSmoke, P8tm) { expect_clean(Backend::kP8tm, 3500, 24); }

// The straggler-killing extension must preserve SI: killed ROTs abort and
// their writes stay invisible. The kill-count assertion keeps the test
// honest — it proves the policy actually fired during the batch.
TEST(FuzzSmoke, SiHtmStragglerKill) {
  FuzzConfig cfg;
  cfg.backend = Backend::kSiHtm;
  cfg.straggler_kill_after_ns = 400;
  const FuzzSummary s = si::check::fuzz(cfg, 4000, 40);
  EXPECT_TRUE(s.ok()) << summarize_failure(s);
  EXPECT_GT(s.straggler_kills, 0u)
      << "no straggler was ever killed — the policy went unexercised";
}

// Only SI-HTM has a straggler-killing policy; a kill threshold on any other
// backend is a usage error, not a silently ignored flag.
TEST(FuzzConfigCheck, KillThresholdOutsideSiHtmThrows) {
  for (const Backend b : {Backend::kHtm, Backend::kP8tm, Backend::kSilo,
                          Backend::kRawRot}) {
    FuzzConfig cfg;
    cfg.backend = b;
    cfg.straggler_kill_after_ns = 400;
    EXPECT_THROW(si::check::run_schedule(cfg, 1), std::invalid_argument)
        << si::runtime::cli_name(b);
    EXPECT_THROW(si::check::fuzz(cfg, 1, 1), std::invalid_argument)
        << si::runtime::cli_name(b);
  }
}

// The ablated mode (no safety wait, non-transactional reads with no state
// sync) must be caught: somewhere in 200 seeds the checker has to flag a
// torn snapshot or lost update. A clean pass here would mean the checker is
// too weak to see the Fig. 3 anomaly the paper's safety wait exists to stop.
TEST(FuzzBroken, RawRotCaught) {
  FuzzConfig cfg;
  cfg.backend = Backend::kRawRot;
  cfg.keep_history = true;

  ScheduleReport failing;
  bool found = false;
  for (std::uint64_t seed = 5000; seed < 5200; ++seed) {
    ScheduleReport r = si::check::run_schedule(cfg, seed);
    if (!r.ok()) {
      failing = std::move(r);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found)
      << "raw-ROT survived 200 schedules — checker missed the ablation";
  ASSERT_FALSE(failing.verify.ok()) << "only the ledger invariant tripped; "
                                       "the verifier itself saw nothing";

  // Replaying the failing seed must reproduce the identical event log and
  // the identical verdict.
  const ScheduleReport replay = si::check::run_schedule(cfg, failing.seed);
  EXPECT_EQ(replay.history, failing.history);
  ASSERT_EQ(replay.verify.violations.size(), failing.verify.violations.size());
  for (std::size_t i = 0; i < replay.verify.violations.size(); ++i) {
    EXPECT_EQ(replay.verify.violations[i].kind,
              failing.verify.violations[i].kind);
  }
}

// -- map-structure workloads (ISSUE 6 satellite) ----------------------------

// Clean batches: every correct backend must survive seeded schedules over
// each map structure with a clean SI verdict, conserved key count and an
// intact, strictly-sorted structure.
TEST(MapFuzzSmoke, SkiplistSiHtm) {
  expect_clean(Backend::kSiHtm, 6000, 24, FuzzStruct::kSkiplist);
}
TEST(MapFuzzSmoke, SkiplistSilo) {
  expect_clean(Backend::kSilo, 6100, 24, FuzzStruct::kSkiplist);
}
TEST(MapFuzzSmoke, BstSiHtm) {
  expect_clean(Backend::kSiHtm, 6200, 24, FuzzStruct::kBst);
}
TEST(MapFuzzSmoke, BstHtmSgl) {
  expect_clean(Backend::kHtm, 6300, 24, FuzzStruct::kBst);
}
TEST(MapFuzzSmoke, BtreeSiHtm) {
  expect_clean(Backend::kSiHtm, 6400, 24, FuzzStruct::kBtree);
}
TEST(MapFuzzSmoke, BtreeP8tm) {
  expect_clean(Backend::kP8tm, 6500, 24, FuzzStruct::kBtree);
}

// Committed regression seeds: one pinned schedule per structure, replayed
// with full history retention and required to be deterministic (same seed,
// byte-identical normalized log) and clean. If a future change to a
// structure or a sim backend breaks one of these, the seed in the failure
// message reproduces it exactly via tools/si_fuzz --struct=... --replay=N.
void expect_pinned_seed_clean(FuzzStruct structure, std::uint64_t seed) {
  FuzzConfig cfg;
  cfg.structure = structure;
  cfg.keep_history = true;
  const ScheduleReport a = si::check::run_schedule(cfg, seed);
  EXPECT_TRUE(a.ok()) << "pinned seed " << seed << " regressed:\n"
                      << describe(a.verify);
  ASSERT_FALSE(a.history.empty());
  const ScheduleReport b = si::check::run_schedule(cfg, seed);
  EXPECT_EQ(a.history, b.history) << "schedule replay is not deterministic";
}

TEST(MapFuzzRegression, SkiplistSeed) {
  expect_pinned_seed_clean(FuzzStruct::kSkiplist, 6017);
}
TEST(MapFuzzRegression, BstSeed) {
  expect_pinned_seed_clean(FuzzStruct::kBst, 6203);
}
TEST(MapFuzzRegression, BtreeSeed) {
  expect_pinned_seed_clean(FuzzStruct::kBtree, 6411);
}

// The raw-ROT ablation must be *caught on the skiplist*: without the safety
// wait, a range scan riding the non-transactional read path can observe a
// half-applied update (dirty read / torn snapshot), and the offline verifier
// has to flag it. This is the map-zoo restatement of FuzzBroken.RawRotCaught.
TEST(MapFuzzBroken, RawRotCaughtOnSkiplist) {
  FuzzConfig cfg;
  cfg.backend = Backend::kRawRot;
  cfg.structure = FuzzStruct::kSkiplist;
  cfg.keep_history = true;

  ScheduleReport failing;
  bool found = false;
  for (std::uint64_t seed = 7000; seed < 7200; ++seed) {
    ScheduleReport r = si::check::run_schedule(cfg, seed);
    if (!r.ok()) {
      failing = std::move(r);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found)
      << "raw-ROT survived 200 skiplist schedules — checker missed the ablation";
  ASSERT_FALSE(failing.verify.ok())
      << "only the conservation invariant tripped; the verifier saw nothing";

  // The failing seed must replay to the identical normalized event log.
  const ScheduleReport replay = si::check::run_schedule(cfg, failing.seed);
  EXPECT_EQ(replay.history, failing.history);
  ASSERT_EQ(replay.verify.violations.size(), failing.verify.violations.size());
  for (std::size_t i = 0; i < replay.verify.violations.size(); ++i) {
    EXPECT_EQ(replay.verify.violations[i].kind,
              failing.verify.violations[i].kind);
  }
}

// Same seed, same schedule, same log — different seed, different log.
TEST(FuzzDeterminism, SameSeedSameLog) {
  FuzzConfig cfg;
  cfg.keep_history = true;
  const ScheduleReport a = si::check::run_schedule(cfg, 42);
  const ScheduleReport b = si::check::run_schedule(cfg, 42);
  const ScheduleReport c = si::check::run_schedule(cfg, 43);
  ASSERT_FALSE(a.history.empty());
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(si::check::dump(a.history), si::check::dump(b.history));
  EXPECT_NE(a.history, c.history);
}

}  // namespace
