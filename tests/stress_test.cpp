// Fault-injection and adversarial stress for the P8-HTM emulation: kill
// storms, suspend/resume churn, capacity pressure from all sides, and mixed
// plain/transactional traffic. These tests care about liveness (no deadlock
// in the kill/help protocol) and the no-uncommitted-data invariant under
// hostile interleavings, not about throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "p8htm/htm.hpp"
#include "protocol/tm.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace {

using namespace si::p8;
using si::util::AbortCause;
using si::util::kLineSize;

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

TEST(StressKillStorm, SweeperVsSubscribersStaysLive) {
  // One thread repeatedly sweeps a line with kill_line_owners while several
  // others subscribe to it — the handshake must neither deadlock nor leak
  // registrations. Subscribers run a *bounded* number of transactions: a
  // single sweep only returns once the line is momentarily unowned, so an
  // unbounded re-subscription storm could starve it (real SGL subscribers
  // stop re-subscribing once they observe the lock taken).
  HtmRuntime rt{HtmConfig{}};
  Cell lock_word;
  std::atomic<int> active_subscribers{3};
  std::atomic<std::uint64_t> kills{0}, survivals{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    rt.register_thread(0);
    while (active_subscribers.load(std::memory_order_acquire) > 0) {
      rt.kill_line_owners(&lock_word, AbortCause::kKilledBySgl);
      std::this_thread::yield();
    }
    rt.kill_line_owners(&lock_word, AbortCause::kKilledBySgl);  // final sweep
  });
  for (int t = 1; t <= 3; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      for (int i = 0; i < 150; ++i) {
        rt.begin(TxMode::kHtm);
        try {
          rt.subscribe_line(&lock_word);
          for (int spin = 0; spin < 50; ++spin) rt.check_killed();
          rt.commit();
          survivals.fetch_add(1, std::memory_order_relaxed);
        } catch (const TxAbort&) {
          kills.fetch_add(1, std::memory_order_relaxed);
        }
      }
      active_subscribers.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(kills.load() + survivals.load(), 3u * 150u);
  // After the storm the line must be fully released (the sweep returned).
}

TEST(StressSuspend, HelpersRollBackSuspendedVictimsUnderChurn) {
  // Writers suspend mid-transaction while readers hammer their write sets;
  // every read must return the pre-transactional value via helper rollback.
  HtmRuntime rt{HtmConfig{}};
  constexpr int kWriters = 2, kReaders = 2, kRounds = 150;
  std::vector<Cell> cells(8);
  for (auto& c : cells) c.v = 7;
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      si::util::Xoshiro256 rng(50 + t);
      for (int i = 0; i < kRounds; ++i) {
        const auto idx = rng.below(cells.size());
        try {
          rt.begin(TxMode::kRot);
          rt.store(&cells[idx].v, std::uint64_t{999});
          rt.suspend();
          std::this_thread::yield();  // linger suspended: helpers must act
          rt.resume();
          // Roll our own write back so the invariant value 7 is permanent.
          rt.self_abort(AbortCause::kExplicit);
        } catch (const TxAbort&) {
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }
  for (int t = kWriters; t < kWriters + kReaders; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      si::util::Xoshiro256 rng(80 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto idx = rng.below(cells.size());
        const auto seen = rt.plain_load(&cells[idx].v);
        if (seen != 7) bad.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad.load()) << "a reader observed an uncommitted value";
  for (auto& c : cells) EXPECT_EQ(c.v, 7u);
}

TEST(StressCapacity, TmcamNeverLeaksUnderAbortChurn) {
  HtmRuntime rt{HtmConfig{}};
  constexpr int kThreads = 3;
  std::vector<Cell> cells(200);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);  // distinct cores (scatter pinning)
      si::util::Xoshiro256 rng(90 + t);
      for (int i = 0; i < 200; ++i) {
        const auto n = 32 + rng.below(64);  // sometimes exceeds 64
        try {
          rt.begin(TxMode::kRot);
          for (std::uint64_t k = 0; k < n; ++k) {
            rt.store(&cells[(t * 67 + k) % cells.size()].v, k);
          }
          rt.commit();
        } catch (const TxAbort&) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int core = 0; core < 10; ++core) {
    EXPECT_EQ(rt.tmcam_used(core), 0u) << "core " << core;
  }
}

// Owned-line fast path (DESIGN.md section 5.1): repeat accesses to lines a
// transaction already owns skip the bucket lock entirely, so this hammers
// exactly that unlocked path from several writers while plain readers watch
// the same lines for torn values. Run once with the fast path on and once
// force-disabled: both runs must stay untorn, finish the same deterministic
// number of commits, and only the enabled run may report cache hits.
std::uint64_t owned_line_hammer(bool fast_path,
                                si::util::FastPathStats* fp_out) {
  HtmConfig cfg;
  cfg.owned_line_fast_path = fast_path;
  HtmRuntime rt{cfg};
  constexpr int kWriters = 6, kReaders = 2, kCommitsPerWriter = 40;
  constexpr std::size_t kCells = 4, kRepeats = 24;
  std::vector<Cell> cells(kCells);
  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> commits{0};

  // Every committed value replicates one byte across the word, so any mix of
  // two values (a torn read) fails this check.
  auto untorn = [](std::uint64_t v) {
    return v == (v & 0xFF) * 0x0101010101010101ULL;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      si::util::Xoshiro256 rng(910 + t);
      for (int done = 0; done < kCommitsPerWriter;) {
        const std::uint64_t pattern =
            (1 + rng.below(255)) * 0x0101010101010101ULL;
        try {
          rt.begin(TxMode::kRot);
          for (std::size_t r = 0; r < kRepeats; ++r) {
            for (auto& c : cells) rt.store(&c.v, pattern);
          }
          // Read-own-write goes through the write-owner role of the cache.
          for (auto& c : cells) {
            if (rt.load(&c.v) != pattern) torn.store(true);
          }
          rt.commit();
          ++done;
          commits.fetch_add(1, std::memory_order_relaxed);
        } catch (const TxAbort&) {
        }
      }
      writers_left.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (int t = kWriters; t < kWriters + kReaders; ++t) {
    threads.emplace_back([&, t] {
      rt.register_thread(t);
      std::size_t i = 0;
      while (writers_left.load(std::memory_order_acquire) > 0) {
        const auto seen = rt.plain_load(&cells[i % kCells].v);
        if (!untorn(seen)) torn.store(true);
        ++i;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(torn.load()) << "torn value observed (fast_path="
                            << fast_path << ")";
  // Write locks are held to commit, so committed writers serialize: the
  // final state is the last committer's pattern on every line.
  for (auto& c : cells) {
    EXPECT_TRUE(untorn(c.v));
    EXPECT_EQ(c.v, cells[0].v);
  }
  if (fp_out) *fp_out = rt.fast_path_totals();
  return commits.load();
}

TEST(StressFastPath, OwnedLineHammerUntornWithIdenticalCommits) {
  si::util::FastPathStats fp_on, fp_off;
  const auto commits_on = owned_line_hammer(true, &fp_on);
  const auto commits_off = owned_line_hammer(false, &fp_off);
  EXPECT_EQ(commits_on, commits_off);
  EXPECT_GT(fp_on.hits, 0u);
  EXPECT_EQ(fp_off.hits, 0u);  // disabled: every access takes the slow path
}

TEST(StressMixed, SiHtmSurvivesAdversarialMixAndStaysConsistent) {
  si::protocol::RealSubstrateConfig cfg;
  cfg.max_threads = 6;
  si::protocol::SiHtm cc(cfg, {.retries = 3});
  constexpr int kCells = 6;
  constexpr std::uint64_t kInitial = 500;
  std::vector<Cell> cells(kCells);
  for (auto& c : cells) c.v = kInitial;

  std::vector<std::thread> threads;
  std::atomic<bool> bad{false};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      cc.register_thread(t);
      si::util::Xoshiro256 rng(700 + t);
      for (int i = 0; i < 400; ++i) {
        const int choice = static_cast<int>(rng.below(3));
        if (choice == 0) {  // scan
          std::uint64_t sum = 0;
          cc.execute(true, [&](auto& tx) {
            sum = 0;
            for (auto& c : cells) sum += tx.read(&c.v);
          });
          if (sum != kInitial * kCells) bad.store(true);
        } else if (choice == 1) {  // transfer
          const int a = static_cast<int>(rng.below(kCells));
          const int b = (a + 1) % kCells;
          cc.execute(false, [&](auto& tx) {
            const auto va = tx.read(&cells[a].v);
            const auto vb = tx.read(&cells[b].v);
            tx.write(&cells[a].v, va - 1);
            tx.write(&cells[b].v, vb + 1);
          });
        } else {  // oversized write set: forces the SGL path under churn
          Cell scratch[70];
          cc.execute(false, [&](auto& tx) {
            for (auto& s : scratch) tx.write(&s.v, std::uint64_t{1});
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad.load());
  std::uint64_t total = 0;
  for (auto& c : cells) total += c.v;
  EXPECT_EQ(total, kInitial * kCells);
}

TEST(StressObs, ConcurrentEmittersWithMidRunCounterReads) {
  // The tracer's thread-safety claim: emitters never share a slot (each owns
  // its ring) and the cursor is safe to read from any thread mid-run. Hammer
  // both sides at once — under TSan this is the proof.
  if (!si::obs::kTraceEnabled) GTEST_SKIP() << "built with SI_TRACE=0";
  constexpr int kThreads = 6;
  constexpr std::uint64_t kEvents = 20000;
  si::obs::Tracer tracer(kThreads, 1u << 8);  // small ring: constant wrapping
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        tracer.emit(t, si::obs::TraceEventKind::kBegin, static_cast<double>(i));
        tracer.emit(t, si::obs::TraceEventKind::kCommit,
                    static_cast<double>(i) + 0.5, 1);
      }
    });
  }
  std::thread reader([&] {
    std::uint64_t sum = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int t = 0; t < kThreads; ++t) {
        sum += tracer.emitted(t) + tracer.dropped(t);
      }
    }
    // One guaranteed pass after the emitters finish: on a loaded single-CPU
    // host the reader may never get scheduled before stop flips, so the
    // mid-run reads alone cannot be asserted on.
    for (int t = 0; t < kThreads; ++t) {
      sum += tracer.emitted(t) + tracer.dropped(t);
    }
    EXPECT_GT(sum, 0u);
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  reader.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tracer.emitted(t), 2 * kEvents);
    EXPECT_EQ(tracer.dropped(t), 2 * kEvents - tracer.capacity());
    const auto recs = tracer.drain(t);
    EXPECT_EQ(recs.size(), tracer.capacity());
    for (const auto& r : recs) EXPECT_EQ(r.tid, t);
  }
}

TEST(StressObs, TracedAdversarialMixStaysBalanced) {
  // Full-stack version: obs attached to a real SiHtm run with kills,
  // capacity overflows and SGL fallbacks. Every drained ring must hold
  // balanced attempt brackets (begin / commit-or-abort alternation) and the
  // metrics commit count must match the backend's own statistics.
  if (!si::obs::kTraceEnabled) GTEST_SKIP() << "built with SI_TRACE=0";
  constexpr int kThreads = 4;
  si::obs::Tracer tracer(kThreads);
  si::obs::Metrics metrics(kThreads);
  si::protocol::RealSubstrateConfig cfg;
  cfg.max_threads = kThreads;
  cfg.obs = si::obs::ObsConfig{&tracer, &metrics};
  si::protocol::SiHtm cc(cfg, {.retries = 3});
  std::vector<Cell> cells(8);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cc.register_thread(t);
      si::util::Xoshiro256 rng(900 + t);
      for (int i = 0; i < 300; ++i) {
        if (rng.percent(40)) {
          std::uint64_t sum = 0;
          cc.execute(true, [&](auto& tx) {
            sum = 0;
            for (auto& c : cells) sum += tx.read(&c.v);
          });
        } else if (rng.percent(10)) {  // oversized: forces the SGL path
          Cell scratch[70];
          cc.execute(false, [&](auto& tx) {
            for (auto& s : scratch) tx.write(&s.v, std::uint64_t{1});
          });
        } else {
          const auto a = rng.below(cells.size());
          cc.execute(false, [&](auto& tx) {
            tx.write(&cells[a].v, tx.read(&cells[a].v) + 1);
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t traced_commits = 0;
  for (int t = 0; t < kThreads; ++t) {
    bool open = false;
    for (const auto& r : tracer.drain(t)) {
      switch (r.kind) {
        case si::obs::TraceEventKind::kBegin:
          EXPECT_FALSE(open) << "tid " << t << ": begin inside open attempt";
          open = true;
          break;
        case si::obs::TraceEventKind::kCommit:
          EXPECT_TRUE(open);
          open = false;
          ++traced_commits;
          break;
        case si::obs::TraceEventKind::kAbort:
          EXPECT_TRUE(open);
          open = false;
          break;
        default:
          break;
      }
    }
    EXPECT_FALSE(open) << "tid " << t << ": attempt left open";
    EXPECT_EQ(tracer.dropped(t), 0u);
  }
  std::uint64_t commits = 0;
  for (const auto& st : cc.thread_stats()) commits += st.commits;
  EXPECT_EQ(traced_commits, commits);
  EXPECT_EQ(metrics.snapshot().commit_latency.count(), commits);
}

}  // namespace
