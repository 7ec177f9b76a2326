// Unit tests for src/util: cache-line math, RNG, stats, CLI, locks, clock.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/logical_clock.hpp"
#include "util/rng.hpp"
#include "util/slim_lock.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"

namespace {

using namespace si::util;

TEST(Cacheline, LineOfMapsWholeLineToSameId) {
  alignas(kLineSize) unsigned char buf[2 * kLineSize];
  const LineId first = line_of(&buf[0]);
  EXPECT_EQ(line_of(&buf[kLineSize - 1]), first);
  EXPECT_EQ(line_of(&buf[kLineSize]), first + 1);
}

TEST(Cacheline, LinesSpanned) {
  EXPECT_EQ(lines_spanned(0, 0), 0u);
  EXPECT_EQ(lines_spanned(0, 1), 1u);
  EXPECT_EQ(lines_spanned(0, kLineSize), 1u);
  EXPECT_EQ(lines_spanned(0, kLineSize + 1), 2u);
  EXPECT_EQ(lines_spanned(kLineSize - 1, 2), 2u);
}

TEST(Cacheline, Power8Geometry) {
  EXPECT_EQ(kLineSize, 128u);
  EXPECT_EQ(kTmcamLinesPerCore, 64u);  // 8 KiB / 128 B
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(7);
  EXPECT_NE(a2(), c());
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInclusiveBounds) {
  Xoshiro256 rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform(3, 5);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PercentExtremes) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.percent(0));
    EXPECT_TRUE(rng.percent(100));
  }
}

TEST(Rng, PercentRoughlyCalibrated) {
  Xoshiro256 rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.percent(30);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.30, 0.01);
}

TEST(LogicalClockTest, StartsAboveCompletedSentinel) {
  LogicalClock clock;
  EXPECT_GT(clock.now(), 1u);
}

TEST(LogicalClockTest, StrictlyMonotonic) {
  LogicalClock clock;
  auto prev = clock.now();
  for (int i = 0; i < 1000; ++i) {
    const auto next = clock.now();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(LogicalClockTest, TotallyOrderedAcrossThreads) {
  LogicalClock clock;
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) seen[t].push_back(clock.now());
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPer));
}

TEST(SpinlockTest, MutualExclusionUnderContention) {
  Spinlock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 80000);
}

TEST(SpinlockTest, TryLockFailsWhenHeld) {
  Spinlock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(OwnedGlobalLockTest, OwnerIdentity) {
  OwnedGlobalLock gl;
  EXPECT_FALSE(gl.is_locked());
  gl.lock(3);
  EXPECT_TRUE(gl.is_locked());
  EXPECT_TRUE(gl.is_locked_by(3));
  EXPECT_FALSE(gl.is_locked_by(4));
  EXPECT_FALSE(gl.try_lock(4));
  gl.unlock();
  EXPECT_FALSE(gl.is_locked());
  EXPECT_TRUE(gl.try_lock(4));
  gl.unlock();
}

TEST(StatsTest, ClassifyMatchesPaperTaxonomy) {
  EXPECT_EQ(classify(AbortCause::kConflictRead), AbortClass::kTransactional);
  EXPECT_EQ(classify(AbortCause::kConflictWrite), AbortClass::kTransactional);
  EXPECT_EQ(classify(AbortCause::kExplicit), AbortClass::kTransactional);
  EXPECT_EQ(classify(AbortCause::kCapacity), AbortClass::kCapacity);
  EXPECT_EQ(classify(AbortCause::kKilledBySgl), AbortClass::kNonTransactional);
  // Killed *by* a completed transaction, not a transactional conflict of the
  // victim's own making: paper section 4.1 counts it as non-transactional.
  EXPECT_EQ(classify(AbortCause::kKilledAsStraggler),
            AbortClass::kNonTransactional);
}

TEST(StatsTest, AggregateSumsThreads) {
  std::vector<ThreadStats> per(3);
  per[0].commits = 10;
  per[1].commits = 5;
  per[2].commits = 1;
  per[0].record_abort(AbortCause::kCapacity);
  per[1].record_abort(AbortCause::kConflictRead);
  per[1].record_abort(AbortCause::kConflictRead);
  const RunStats rs = aggregate(per, 2.0);
  EXPECT_EQ(rs.totals.commits, 16u);
  EXPECT_EQ(rs.total_aborts(), 3u);
  EXPECT_EQ(rs.aborts_in_class(AbortClass::kCapacity), 1u);
  EXPECT_EQ(rs.aborts_in_class(AbortClass::kTransactional), 2u);
  EXPECT_DOUBLE_EQ(rs.throughput(), 8.0);
}

TEST(StatsTest, AbortPctUsesAttempts) {
  std::vector<ThreadStats> per(1);
  per[0].commits = 75;
  for (int i = 0; i < 25; ++i) per[0].record_abort(AbortCause::kConflictWrite);
  const RunStats rs = aggregate(per, 1.0);
  EXPECT_DOUBLE_EQ(rs.abort_pct(), 25.0);
  EXPECT_DOUBLE_EQ(rs.abort_pct(AbortClass::kTransactional), 25.0);
  EXPECT_DOUBLE_EQ(rs.abort_pct(AbortClass::kCapacity), 0.0);
}

TEST(StatsTest, PrintSeriesMentionsSystemAndClasses) {
  std::vector<SeriesPoint> pts(1);
  pts[0].threads = 8;
  pts[0].stats.totals.commits = 100;
  pts[0].stats.elapsed_seconds = 1;
  std::ostringstream os;
  print_series(os, "SI-HTM", pts, 1.0);
  const std::string out = os.str();
  EXPECT_NE(out.find("SI-HTM"), std::string::npos);
  EXPECT_NE(out.find("transactional"), std::string::npos);
  EXPECT_NE(out.find("capacity"), std::string::npos);
}

TEST(CliTest, ParsesShortAndLongFlags) {
  const char* argv[] = {"prog", "-o", "80", "--name=tpcc", "--verbose", "pos1"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("o", 0), 80);
  EXPECT_EQ(cli.get("name"), "tpcc");
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("absent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("threads", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("dur", 1.5), 1.5);
  EXPECT_EQ(cli.get("mix", "std"), "std");
}

TEST(CliTest, LoneDashIsAValue) {
  // "-out -" names stdout; a lone dash must not be read as another flag,
  // while a flag followed by a real flag stays a boolean switch.
  const char* argv[] = {"prog", "-out", "-", "-summary", "-in", "-", "pos"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("out"), "-");
  EXPECT_TRUE(cli.has("summary"));
  EXPECT_EQ(cli.get("in"), "-");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(CliTest, ValueFlagWithoutValueThrows) {
  // A value flag given last, or followed by another flag, is a bare switch:
  // reading it as a value must fail loudly rather than yield "1".
  const char* argv[] = {"prog", "-seed", "-threads", "4", "--verbose", "-out"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("seed"));
  EXPECT_TRUE(cli.has("out"));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("threads", 0), 4);
  EXPECT_THROW(cli.get("out"), std::invalid_argument);
  EXPECT_THROW(cli.get_int("seed", 1), std::invalid_argument);
  EXPECT_THROW(cli.get_double("verbose", 0.0), std::invalid_argument);
  try {
    cli.get("out", "trace.json");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-out"), std::string::npos);
  }
  EXPECT_EQ(cli.get("absent", "def"), "def");

  // A negative number is a value, not the next flag.
  const char* neg[] = {"prog", "-offset", "-5", "-scale", "-.5"};
  Cli negative(5, const_cast<char**>(neg));
  EXPECT_EQ(negative.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(negative.get_double("scale", 0.0), -0.5);
}

TEST(CliTest, ParseIntList) {
  EXPECT_EQ(parse_int_list("1,2,4,8", {}), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(parse_int_list("", {3}), (std::vector<int>{3}));
  EXPECT_EQ(parse_int_list("40", {}), (std::vector<int>{40}));
}

TEST(BackoffTest, PausesWithoutCrashing) {
  Backoff b;
  for (int i = 0; i < 200; ++i) b.pause();
  b.reset();
  b.pause();
}

}  // namespace
