// Scripted replays of the paper's didactic figures (1-5). Each test encodes
// one interleaving from the paper and asserts the outcome the paper states.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "p8htm/htm.hpp"
#include "protocol/state_table.hpp"
#include "protocol/tm.hpp"
#include "util/backoff.hpp"

namespace {

using namespace si::p8;
using si::util::AbortCause;
using si::util::kLineSize;

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

void await(const std::atomic<bool>& flag) {
  si::util::Backoff b;
  while (!flag.load(std::memory_order_acquire)) b.pause();
}

// Figure 1: SI semantics. t0 writes X; concurrent t1/t2 read from their
// snapshots and must see the pre-t0 value; t3 writes X concurrently with t0
// and must abort (write-write conflict); t1/t2 commit.
//
// SI-HTM is a single-version restriction of SI: instead of letting t0 commit
// while t1 is still reading (as multi-versioned SI would), it holds t0's
// commit back / aborts it. The observable outcomes asserted here are the
// figure's: snapshots never see t0's uncommitted write, and the write-write
// conflict aborts exactly one of {t0, t3}.
TEST(Fig1_SiSemantics, SnapshotsIsolatedAndWriteWriteAborts) {
  si::protocol::RealSubstrateConfig cfg;
  cfg.max_threads = 8;
  si::protocol::SiHtm cc(cfg);
  Cell x, y;
  y.v = 10;

  std::atomic<bool> t0_wrote{false};
  std::atomic<int> readers_done{0};  // t1 and t2 each count once, after reading
  std::uint64_t t1_saw_x = ~0ull, t2_saw_x = ~0ull;
  const auto await_readers = [&] {
    si::util::Backoff b;
    while (readers_done.load(std::memory_order_acquire) < 2) {
      cc.substrate().htm().check_killed();
      b.pause();
    }
  };

  std::thread t0([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      // A retry (the readers killed the first attempt) re-writes only once
      // both readers are done, so it is not killed again: ten kills would
      // push t0 onto the SGL, whose holder would then spin here while the
      // read-only readers wait for that same lock.
      if (t0_wrote.load(std::memory_order_acquire)) await_readers();
      const auto old_y = tx.read(&y.v);
      tx.write(&y.v, old_y + 10);
      tx.write(&x.v, std::uint64_t{1});
      t0_wrote.store(true, std::memory_order_release);
      // Keep t0 unfinished while t1/t2 read, like the figure's overlap. The
      // readers' accesses may kill us (single-version SI), so poll.
      await_readers();
    });
  });
  std::thread t1([&] {
    cc.register_thread(1);
    await(t0_wrote);
    cc.execute(true, [&](auto& tx) { t1_saw_x = tx.read(&x.v); });
    readers_done.fetch_add(1, std::memory_order_release);
  });
  std::thread t2([&] {
    cc.register_thread(2);
    await(t0_wrote);
    cc.execute(true, [&](auto& tx) { t2_saw_x = tx.read(&x.v); });
    readers_done.fetch_add(1, std::memory_order_release);
  });
  t1.join();
  t2.join();
  t0.join();

  EXPECT_EQ(t1_saw_x, 0u);  // r(X)=0 in the figure
  EXPECT_EQ(t2_saw_x, 0u);
  EXPECT_EQ(x.v, 1u);  // t0 eventually committed
  EXPECT_EQ(y.v, 20u);

  // Now the t0/t3 write-write conflict: two overlapping writers of X.
  std::atomic<bool> w0_in{false}, w3_done{false};
  std::uint64_t w3_aborts = 0;
  std::thread w0([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      tx.write(&x.v, std::uint64_t{100});
      w0_in.store(true, std::memory_order_release);
      si::util::Backoff b;
      while (!w3_done.load(std::memory_order_acquire)) {
        cc.substrate().htm().check_killed();
        b.pause();
      }
    });
  });
  std::thread w3([&] {
    cc.register_thread(3);
    await(w0_in);
    cc.execute(false, [&](auto& tx) {
      // Once our first attempt has hit the write-write conflict, let w0
      // finish so the retry can succeed.
      if (cc.thread_stats()[3].aborts_by_cause[static_cast<int>(
              AbortCause::kConflictWrite)] >= 1) {
        w3_done.store(true, std::memory_order_release);
      }
      tx.write(&x.v, std::uint64_t{200});
    });
    w3_aborts = cc.thread_stats()[3].aborts_by_cause[static_cast<int>(
        AbortCause::kConflictWrite)];
  });
  w0.join();
  w3.join();
  EXPECT_GE(w3_aborts, 1u);  // the overlapping writer had to abort (R5)
  EXPECT_EQ(x.v, 200u);      // w3 retried after w0 and won the final state
}

// Figure 2A: a write-after-read between two ROTs is tolerated (ROT reads are
// untracked), both commit.
TEST(Fig2A_RotWar, Tolerated) {
  HtmRuntime rt{HtmConfig{}};
  Cell x;
  std::atomic<bool> read_done{false}, write_committed{false};
  bool r0_ok = false, r1_ok = false;

  std::thread r0([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    EXPECT_EQ(rt.load(&x.v), 0u);
    read_done.store(true, std::memory_order_release);
    await(write_committed);
    rt.commit();
    r0_ok = true;
  });
  std::thread r1([&] {
    rt.register_thread(1);
    await(read_done);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    rt.commit();
    r1_ok = true;
    write_committed.store(true, std::memory_order_release);
  });
  r0.join();
  r1.join();
  EXPECT_TRUE(r0_ok);
  EXPECT_TRUE(r1_ok);
  EXPECT_EQ(x.v, 1u);
}

// Figure 2B: a read-after-write invalidates the writer ROT's TMCAM entry —
// the writer aborts, the reader commits and never sees the dirty value.
TEST(Fig2B_RotRaw, WriterAborts) {
  HtmRuntime rt{HtmConfig{}};
  Cell x;
  std::atomic<bool> written{false};
  AbortCause r1_cause = AbortCause::kNone;
  std::uint64_t r0_saw = ~0ull;

  std::thread r1([&] {
    rt.register_thread(1);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    written.store(true, std::memory_order_release);
    try {
      si::util::Backoff b;
      for (;;) {
        rt.check_killed();
        b.pause();
      }
    } catch (const TxAbort& a) {
      r1_cause = a.cause;
    }
  });
  std::thread r0([&] {
    rt.register_thread(0);
    await(written);
    rt.begin(TxMode::kRot);
    r0_saw = rt.load(&x.v);
    rt.commit();
  });
  r1.join();
  r0.join();
  EXPECT_EQ(r1_cause, AbortCause::kConflictRead);
  EXPECT_EQ(r0_saw, 0u);
  EXPECT_EQ(x.v, 0u);
}

// Figure 3: WITHOUT the safety wait, raw ROTs admit the anomaly — a reader
// that started before the writer observes both the old and (after the
// writer's immediate commit) the new value of X within one transaction.
// This is the anomaly SI-HTM exists to prevent.
TEST(Fig3_RawRotAnomaly, UnrepeatableReadHappensWithoutSafetyWait) {
  HtmRuntime rt{HtmConfig{}};
  Cell x;
  std::atomic<bool> first_read_done{false}, committed{false};
  std::uint64_t first = ~0ull, second = ~0ull;

  std::thread r0([&] {
    rt.register_thread(0);
    rt.begin(TxMode::kRot);
    first = rt.load(&x.v);
    first_read_done.store(true, std::memory_order_release);
    await(committed);
    second = rt.load(&x.v);
    rt.commit();
  });
  std::thread r1([&] {
    rt.register_thread(1);
    await(first_read_done);
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    rt.commit();  // no safety wait: commits while r0 still runs
    committed.store(true, std::memory_order_release);
  });
  r0.join();
  r1.join();
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);  // the snapshot violation the paper's Fig. 3 shows
}

// Figure 4A: with the safety wait, the same interleaving instead kills the
// writer: the reader's access during the writer's wait invalidates its write
// entry, and the reader sees the original value both times.
TEST(Fig4A_SafetyWait, ReaderKillsWaitingWriter) {
  si::protocol::RealSubstrateConfig cfg;
  cfg.max_threads = 4;
  si::protocol::SiHtm cc(cfg);
  Cell x;
  std::uint64_t first = ~0ull, second = ~0ull;
  std::atomic<bool> reader_started{false};

  std::thread r0([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      first = tx.read(&x.v);
      reader_started.store(true, std::memory_order_release);
      si::util::Backoff b;
      while (cc.substrate().state(1) != si::protocol::kCompleted) b.pause();
      second = tx.read(&x.v);  // invalidates r1's write entry: r1 aborts
    });
  });
  std::thread r1([&] {
    cc.register_thread(1);
    await(reader_started);
    cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{1}); });
  });
  r0.join();
  r1.join();
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 0u);
  EXPECT_GE(cc.thread_stats()[1].aborts_by_cause[static_cast<int>(
                AbortCause::kConflictRead)],
            1u);
  EXPECT_EQ(x.v, 1u);  // r1's retry committed after r0 finished
}

// Figure 4B: the writer safety-waits, the concurrent transaction reads a
// *different* location; once it completes, the writer commits — no aborts.
TEST(Fig4B_SafetyWait, WriterCommitsAfterCleanWait) {
  si::protocol::RealSubstrateConfig cfg;
  cfg.max_threads = 4;
  si::protocol::SiHtm cc(cfg);
  Cell x, y;
  y.v = 3;
  std::atomic<bool> reader_started{false};
  std::uint64_t r0_saw_y = ~0ull;

  std::thread r0([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      reader_started.store(true, std::memory_order_release);
      si::util::Backoff b;
      while (cc.substrate().state(1) != si::protocol::kCompleted) b.pause();
      r0_saw_y = tx.read(&y.v);  // disjoint from r1's write set
    });
  });
  std::thread r1([&] {
    cc.register_thread(1);
    await(reader_started);
    cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{1}); });
  });
  r0.join();
  r1.join();
  EXPECT_EQ(r0_saw_y, 3u);
  EXPECT_EQ(x.v, 1u);
  EXPECT_EQ(cc.thread_stats()[1].commits, 1u);
  // Clean wait: r1 committed on its first ROT attempt, no aborts at all.
  std::uint64_t r1_aborts = 0;
  for (int i = 1; i < static_cast<int>(AbortCause::kCauseCount_); ++i) {
    r1_aborts += cc.thread_stats()[1].aborts_by_cause[i];
  }
  EXPECT_EQ(r1_aborts, 0u);
}

// Figure 5: why the Commit-Timestamp is the instant the committer finishes
// snapshotting the state array rather than HTMEnd. t2 begins after t1's
// snapshot but before t1's HTMEnd, reads t1's value after the HTMEnd — that
// is legal because t1's Commit-Timestamp precedes t2's start. We drive
// Algorithm 1 by hand to freeze t1 between snapshot and HTMEnd.
TEST(Fig5_CommitTimestamp, ReadAfterHtmEndSeesValue) {
  HtmRuntime rt{HtmConfig{}};
  si::protocol::StateTable state(4);
  si::util::LogicalClock clock;
  Cell x;

  std::atomic<bool> t1_snapshotted{false}, t2_started{false}, t1_ended{false};
  std::uint64_t t2_saw = ~0ull;

  std::thread t1([&] {
    rt.register_thread(1);
    state.set(1, clock.now());
    rt.begin(TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    // TxEnd by hand: publish completed, snapshot (t2 is inactive: no wait).
    rt.suspend();
    state.set(1, si::protocol::kCompleted);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    rt.resume();
    std::uint64_t snapshot[4];
    state.snapshot(snapshot);
    EXPECT_LE(snapshot[2], si::protocol::kCompleted);  // t2 not active yet
    t1_snapshotted.store(true, std::memory_order_release);
    await(t2_started);  // t2 begins *between* our snapshot and HTMEnd
    rt.commit();        // HTMEnd
    state.set(1, si::protocol::kInactive);
    t1_ended.store(true, std::memory_order_release);
  });
  std::thread t2([&] {
    rt.register_thread(2);
    await(t1_snapshotted);
    state.set(2, clock.now());
    rt.begin(TxMode::kRot);
    t2_started.store(true, std::memory_order_release);
    await(t1_ended);
    t2_saw = rt.load(&x.v);  // after t1's HTMEnd: sees the committed 1
    rt.commit();
    state.set(2, si::protocol::kInactive);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(t2_saw, 1u);
  EXPECT_EQ(x.v, 1u);
}

}  // namespace
