// Tests of the P8-HTM emulation: tracking, capacity, conflict matrix,
// suspend/resume, helper rollback of suspended victims, the write gate of
// the unlocked untracked-read path, and serializable stress runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "p8htm/htm.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace {

using namespace si::p8;
using si::util::AbortCause;
using si::util::kLineSize;

/// Shared array where each slot sits on its own modelled cache line.
struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

HtmConfig small_machine() {
  HtmConfig cfg;
  cfg.topo.cores = 10;
  cfg.topo.smt = 8;
  cfg.tmcam_lines = 64;
  return cfg;
}

/// Waits for `flag` with a yielding backoff (single-CPU friendliness).
void await(const std::atomic<bool>& flag) {
  si::util::Backoff b;
  while (!flag.load(std::memory_order_acquire)) b.pause();
}

TEST(HtmBasics, CommitPersistsWrites) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  Cell x;
  rt.begin(TxMode::kHtm);
  rt.store(&x.v, std::uint64_t{7});
  EXPECT_EQ(rt.load(&x.v), 7u);  // own write visible (R3)
  rt.commit();
  EXPECT_EQ(x.v, 7u);
  EXPECT_FALSE(rt.in_tx());
}

TEST(HtmBasics, SelfAbortRollsBack) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  Cell x, y;
  x.v = 1;
  rt.begin(TxMode::kRot);
  rt.store(&x.v, std::uint64_t{2});
  rt.store(&y.v, std::uint64_t{3});
  try {
    rt.self_abort(AbortCause::kExplicit);
    FAIL() << "self_abort must throw";
  } catch (const TxAbort& a) {
    EXPECT_EQ(a.cause, AbortCause::kExplicit);
  }
  EXPECT_EQ(x.v, 1u);
  EXPECT_EQ(y.v, 0u);
  EXPECT_FALSE(rt.in_tx());
  EXPECT_EQ(rt.tmcam_used(0), 0u);
}

TEST(HtmBasics, RollbackRestoresOverwritesInReverseOrder) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  Cell x;
  x.v = 10;
  rt.begin(TxMode::kRot);
  rt.store(&x.v, std::uint64_t{20});
  rt.store(&x.v, std::uint64_t{30});
  EXPECT_THROW(rt.self_abort(AbortCause::kExplicit), TxAbort);
  EXPECT_EQ(x.v, 10u);
}

TEST(HtmBasics, MultiLineStoreAndLoad) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  alignas(kLineSize) unsigned char buf[3 * kLineSize] = {};
  unsigned char src[2 * kLineSize];
  for (std::size_t i = 0; i < sizeof(src); ++i) src[i] = static_cast<unsigned char>(i);
  rt.begin(TxMode::kRot);
  rt.store_bytes(buf + 17, src, sizeof(src));  // misaligned, spans 3 lines
  unsigned char back[2 * kLineSize];
  rt.load_bytes(back, buf + 17, sizeof(back));
  EXPECT_EQ(std::memcmp(back, src, sizeof(src)), 0);
  EXPECT_EQ(rt.tracked_lines(), 3u);
  EXPECT_THROW(rt.self_abort(AbortCause::kExplicit), TxAbort);
  for (std::size_t i = 0; i < sizeof(buf); ++i) ASSERT_EQ(buf[i], 0u);
}

// With no writer inside the runtime, untracked loads (plain, and ROT reads)
// skip the bucket lock (DESIGN.md §5.2). A writer holding any line closes
// the write gate, and the same loads take the locked path — which is where
// they kill it and wait out its rollback.
TEST(HtmBasics, UntrackedLoadWithoutWriterTakesNoBucketLock) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  Cell x;
  x.v = 3;
  const auto locks = [&] { return rt.fast_path_stats(0).lock_acquisitions; };

  const std::uint64_t before = locks();
  EXPECT_EQ(rt.plain_load(&x.v), 3u);
  rt.begin(TxMode::kRot);
  EXPECT_EQ(rt.load(&x.v), 3u);
  rt.commit();
  EXPECT_EQ(locks() - before, 0u);

  for (const bool in_rot : {false, true}) {
    std::atomic<bool> written{false}, resume{false};
    bool writer_aborted = false;
    std::thread writer([&] {
      rt.register_thread(1);
      rt.begin(TxMode::kRot);
      rt.store(&x.v, std::uint64_t{4});
      rt.suspend();  // hold the line without polling; the reader helps
      written.store(true, std::memory_order_release);
      await(resume);
      try {
        rt.resume();
      } catch (const TxAbort&) {
        writer_aborted = true;
      }
    });
    await(written);
    const std::uint64_t mid = locks();
    if (in_rot) {
      rt.begin(TxMode::kRot);
      EXPECT_EQ(rt.load(&x.v), 3u);
      rt.commit();
    } else {
      EXPECT_EQ(rt.plain_load(&x.v), 3u);
    }
    EXPECT_GE(locks() - mid, 1u) << (in_rot ? "ROT load" : "plain load");
    resume.store(true, std::memory_order_release);
    writer.join();
    EXPECT_TRUE(writer_aborted);
  }
  EXPECT_EQ(x.v, 3u);
}

TEST(HtmCapacity, HtmReadsChargeTmcam) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  std::vector<Cell> cells(100);
  rt.begin(TxMode::kHtm);
  AbortCause cause = AbortCause::kNone;
  std::size_t done = 0;
  try {
    for (auto& c : cells) {
      (void)rt.load(&c.v);
      ++done;
    }
    rt.commit();
  } catch (const TxAbort& a) {
    cause = a.cause;
  }
  EXPECT_EQ(cause, AbortCause::kCapacity);
  EXPECT_EQ(done, 64u);  // 65th distinct line overflows the TMCAM
  EXPECT_EQ(rt.tmcam_used(0), 0u);
}

TEST(HtmCapacity, RotReadsAreFree) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  std::vector<Cell> cells(1000);
  rt.begin(TxMode::kRot);
  for (auto& c : cells) (void)rt.load(&c.v);
  EXPECT_EQ(rt.tracked_lines(), 0u);
  rt.commit();  // a 1000-line read set commits fine in a ROT
}

TEST(HtmCapacity, RotWritesStillBounded) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  std::vector<Cell> cells(100);
  rt.begin(TxMode::kRot);
  AbortCause cause = AbortCause::kNone;
  try {
    for (auto& c : cells) rt.store(&c.v, std::uint64_t{1});
    rt.commit();
  } catch (const TxAbort& a) {
    cause = a.cause;
  }
  EXPECT_EQ(cause, AbortCause::kCapacity);
  for (auto& c : cells) ASSERT_EQ(c.v, 0u);  // all rolled back
}

TEST(HtmCapacity, SmtThreadsShareTheCoreBudget) {
  // tids 0 and 10 both map to core 0 under scatter pinning on 10 cores.
  HtmRuntime rt(small_machine());
  std::vector<Cell> a(40), b(40);
  std::atomic<bool> a_holds{false}, done{false};
  AbortCause b_cause = AbortCause::kNone;

  std::thread ta([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    for (auto& c : a) rt.store(&c.v, std::uint64_t{1});
    a_holds.store(true, std::memory_order_release);
    await(done);
    rt.commit();
  });
  std::thread tb([&] {
    rt.register_thread(10);
    await(a_holds);
    rt.begin(TxMode::kRot);
    try {
      for (auto& c : b) rt.store(&c.v, std::uint64_t{1});
      rt.commit();
    } catch (const TxAbort& abort) {
      b_cause = abort.cause;
    }
    done.store(true, std::memory_order_release);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(b_cause, AbortCause::kCapacity);  // 40 + 40 > 64 shared lines
}

TEST(HtmCapacity, DifferentCoresDoNotShare) {
  HtmRuntime rt(small_machine());
  std::vector<Cell> a(40), b(40);
  std::atomic<bool> a_holds{false}, done{false};
  AbortCause b_cause = AbortCause::kNone;

  std::thread ta([&] {
    rt.register_thread(0);  // core 0
    rt.begin(TxMode::kRot);
    for (auto& c : a) rt.store(&c.v, std::uint64_t{1});
    a_holds.store(true, std::memory_order_release);
    await(done);
    rt.commit();
  });
  std::thread tb([&] {
    rt.register_thread(1);  // core 1
    await(a_holds);
    rt.begin(TxMode::kRot);
    try {
      for (auto& c : b) rt.store(&c.v, std::uint64_t{1});
      rt.commit();
    } catch (const TxAbort& abort) {
      b_cause = abort.cause;
    }
    done.store(true, std::memory_order_release);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(b_cause, AbortCause::kNone);
}

TEST(HtmConflicts, ReadKillsActiveWriterAndSeesOldValue) {
  HtmRuntime rt(small_machine());
  Cell x;
  x.v = 5;
  std::atomic<bool> written{false};
  AbortCause writer_cause = AbortCause::kNone;
  std::uint64_t reader_saw = ~0ull;

  std::thread writer([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{6});
    written.store(true, std::memory_order_release);
    try {
      si::util::Backoff b;
      for (;;) {
        rt.check_killed();
        b.pause();
      }
    } catch (const TxAbort& a) {
      writer_cause = a.cause;
    }
  });
  std::thread reader([&] {
    rt.register_thread(1);
    await(written);
    reader_saw = rt.plain_load(&x.v);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(writer_cause, AbortCause::kConflictRead);
  EXPECT_EQ(reader_saw, 5u);  // never the uncommitted 6
  EXPECT_EQ(x.v, 5u);
}

TEST(HtmConflicts, WriteWriteKillsTheNewcomer) {
  HtmRuntime rt(small_machine());
  Cell x;
  std::atomic<bool> first_holds{false}, second_done{false};
  AbortCause second_cause = AbortCause::kNone;

  std::thread first([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    first_holds.store(true, std::memory_order_release);
    await(second_done);
    rt.commit();
  });
  std::thread second([&] {
    rt.register_thread(1);
    await(first_holds);
    rt.begin(TxMode::kRot);
    try {
      rt.store(&x.v, std::uint64_t{2});
      rt.commit();
    } catch (const TxAbort& a) {
      second_cause = a.cause;
    }
    second_done.store(true, std::memory_order_release);
  });
  first.join();
  second.join();
  EXPECT_EQ(second_cause, AbortCause::kConflictWrite);
  EXPECT_EQ(x.v, 1u);  // the first writer survived and committed
}

TEST(HtmConflicts, WriteAfterRotReadIsTolerated) {
  // Fig. 2A: ROT reads are untracked, so a later writer sees no conflict.
  HtmRuntime rt(small_machine());
  Cell x;
  std::atomic<bool> read_done{false}, write_done{false};
  bool reader_committed = false, writer_committed = false;

  std::thread reader([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    EXPECT_EQ(rt.load(&x.v), 0u);
    read_done.store(true, std::memory_order_release);
    await(write_done);
    rt.commit();
    reader_committed = true;
  });
  std::thread writer([&] {
    rt.register_thread(1);
    await(read_done);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{9});
    rt.commit();
    writer_committed = true;
    write_done.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  EXPECT_TRUE(reader_committed);
  EXPECT_TRUE(writer_committed);
  EXPECT_EQ(x.v, 9u);
}

TEST(HtmConflicts, WriteKillsTrackedHtmReader) {
  HtmRuntime rt(small_machine());
  Cell x;
  std::atomic<bool> read_done{false};
  AbortCause reader_cause = AbortCause::kNone;

  std::thread reader([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kHtm);
    (void)rt.load(&x.v);
    read_done.store(true, std::memory_order_release);
    try {
      si::util::Backoff b;
      for (;;) {
        rt.check_killed();
        b.pause();
      }
    } catch (const TxAbort& a) {
      reader_cause = a.cause;
    }
  });
  std::thread writer([&] {
    rt.register_thread(1);
    await(read_done);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{3});
    rt.commit();
  });
  reader.join();
  writer.join();
  EXPECT_EQ(reader_cause, AbortCause::kConflictWrite);
  EXPECT_EQ(x.v, 3u);
}

TEST(HtmSuspend, SuspendedAccessesAreUntrackedAndSurviveAbort) {
  HtmRuntime rt(small_machine());
  rt.register_thread(0);
  Cell x, y;
  rt.begin(TxMode::kRot);
  rt.store(&x.v, std::uint64_t{1});
  rt.suspend();
  EXPECT_TRUE(rt.is_suspended());
  rt.plain_store(&y.v, std::uint64_t{2});  // non-transactional
  rt.resume();
  EXPECT_FALSE(rt.is_suspended());
  EXPECT_THROW(rt.self_abort(AbortCause::kExplicit), TxAbort);
  EXPECT_EQ(x.v, 0u);  // transactional write rolled back
  EXPECT_EQ(y.v, 2u);  // suspended write survives
}

TEST(HtmSuspend, KillDuringSuspensionTakesEffectAtResume) {
  HtmRuntime rt(small_machine());
  Cell x;
  x.v = 4;
  std::atomic<bool> suspended{false}, read_done{false};
  std::uint64_t reader_saw = ~0ull;
  AbortCause victim_cause = AbortCause::kNone;

  std::thread victim([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{5});
    rt.suspend();
    suspended.store(true, std::memory_order_release);
    await(read_done);
    try {
      rt.resume();
      rt.commit();
    } catch (const TxAbort& a) {
      victim_cause = a.cause;
    }
  });
  std::thread reader([&] {
    rt.register_thread(1);
    await(suspended);
    // The victim is suspended and not polling; the reader must roll it back
    // on its behalf rather than hang.
    reader_saw = rt.plain_load(&x.v);
    read_done.store(true, std::memory_order_release);
  });
  victim.join();
  reader.join();
  EXPECT_EQ(reader_saw, 4u);
  EXPECT_EQ(victim_cause, AbortCause::kConflictRead);
  EXPECT_EQ(x.v, 4u);
}

TEST(HtmSgl, KillLineOwnersAbortsSubscribers) {
  HtmRuntime rt(small_machine());
  Cell lock_word;
  std::atomic<bool> subscribed{false};
  AbortCause sub_cause = AbortCause::kNone;

  std::thread subscriber([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kHtm);
    rt.subscribe_line(&lock_word);
    subscribed.store(true, std::memory_order_release);
    try {
      si::util::Backoff b;
      for (;;) {
        rt.check_killed();
        b.pause();
      }
    } catch (const TxAbort& a) {
      sub_cause = a.cause;
    }
  });
  std::thread acquirer([&] {
    rt.register_thread(1);
    await(subscribed);
    rt.kill_line_owners(&lock_word, AbortCause::kKilledBySgl);
  });
  subscriber.join();
  acquirer.join();
  EXPECT_EQ(sub_cause, AbortCause::kKilledBySgl);
}

TEST(HtmApi, RegisterThreadValidatesRange) {
  HtmRuntime rt(small_machine());
  EXPECT_THROW(rt.register_thread(-1), std::out_of_range);
  EXPECT_THROW(rt.register_thread(kMaxThreads), std::out_of_range);
  EXPECT_NO_THROW(rt.register_thread(kMaxThreads - 1));
}

TEST(HtmApi, UnregisteredThreadThrows) {
  HtmRuntime rt(small_machine());
  std::thread t([&] { EXPECT_THROW((void)rt.thread_id(), std::logic_error); });
  t.join();
}

TEST(HtmApi, RotReadTrackingFractionCharges) {
  HtmConfig cfg = small_machine();
  cfg.rot_read_tracking_pct = 100;  // footnote 1 at its extreme
  HtmRuntime rt(cfg);
  rt.register_thread(0);
  std::vector<Cell> cells(10);
  rt.begin(TxMode::kRot);
  for (auto& c : cells) (void)rt.load(&c.v);
  EXPECT_EQ(rt.tracked_lines(), 10u);
  rt.commit();
}

// Serializability stress: concurrent HTM transfers between accounts keep the
// total balance invariant, and no transaction ever observes uncommitted data
// (sum of any read pair stays consistent).
TEST(HtmStress, ConcurrentTransfersConserveTotal) {
  HtmRuntime rt(small_machine());
  constexpr int kAccounts = 16;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      si::util::Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int from = static_cast<int>(rng.below(kAccounts));
        int to = static_cast<int>(rng.below(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        for (;;) {
          try {
            rt.begin(TxMode::kHtm);
            const auto f = rt.load(&accounts[from].v);
            const auto g = rt.load(&accounts[to].v);
            rt.store(&accounts[from].v, f - 1);
            rt.store(&accounts[to].v, g + 1);
            rt.commit();
            break;
          } catch (const TxAbort&) {
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t total = std::accumulate(
      accounts.begin(), accounts.end(), std::uint64_t{0},
      [](std::uint64_t s, const Cell& c) { return s + c.v; });
  EXPECT_EQ(total, std::uint64_t{1000} * kAccounts);
}

// The unlocked read path's safety net: ROTs keep writing a sentinel pair
// and rolling it back while plain readers copy the pair. A reader must only
// ever see the committed pair — never the sentinel, never half of it — so
// every unlocked copy that overlapped a store has to be caught by the write
// gate's re-check and redone under the bucket lock.
TEST(HtmStress, UntrackedReadsNeverSeeRolledBackWrites) {
  struct alignas(kLineSize) Pair {
    std::uint64_t a, b;
  };
  constexpr std::uint64_t kCommitted = 0x1111111111111111ull;
  constexpr std::uint64_t kSentinel = 0xdeadbeefdeadbeefull;
  HtmRuntime rt(small_machine());
  Pair cell{kCommitted, kCommitted};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0}, bad_reads{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      const Pair sentinel{kSentinel, kSentinel};
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          rt.begin(TxMode::kRot);
          rt.store_bytes(&cell, &sentinel, sizeof(sentinel));
          rt.self_abort(AbortCause::kExplicit);
        } catch (const TxAbort&) {
        }
      }
    });
  }
  for (int t = 2; t < 4; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      std::uint64_t n = 0, bad = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Pair seen{};
        rt.plain_load_bytes(&seen, &cell, sizeof(seen));
        ++n;
        if (seen.a != kCommitted || seen.b != kCommitted) ++bad;
      }
      reads.fetch_add(n);
      bad_reads.fetch_add(bad);
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u) << "of " << reads.load() << " reads";
  EXPECT_EQ(cell.a, kCommitted);
  EXPECT_EQ(cell.b, kCommitted);
}

}  // namespace
