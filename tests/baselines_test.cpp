// Tests of the baseline concurrency controls (HTM+SGL, P8TM, Silo) and the
// Runtime façade dispatching over all four backends.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "protocol/tm.hpp"
#include "protocol/version_table.hpp"
#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace {

using si::util::AbortCause;
using si::util::kLineSize;

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

void await(const std::atomic<bool>& flag) {
  si::util::Backoff b;
  while (!flag.load(std::memory_order_acquire)) b.pause();
}

// --- VersionTable ------------------------------------------------------------

TEST(VersionTableTest, LockUnlockBump) {
  si::protocol::VersionTable vt(8);
  const si::util::LineId line = 99;
  const auto v0 = vt.read_stable(line);
  ASSERT_TRUE(vt.try_lock(line));
  EXPECT_FALSE(vt.try_lock(line));
  vt.unlock(line, /*bump=*/true);
  EXPECT_EQ(vt.read_stable(line), v0 + 2);
  vt.bump(line);
  EXPECT_EQ(vt.read_stable(line), v0 + 4);
}

TEST(VersionTableTest, UnlockWithoutBumpKeepsVersion) {
  si::protocol::VersionTable vt(8);
  const auto v0 = vt.read_stable(5);
  ASSERT_TRUE(vt.try_lock(5));
  vt.unlock(5, /*bump=*/false);
  EXPECT_EQ(vt.read_stable(5), v0);
}

// --- HTM + SGL ---------------------------------------------------------------

TEST(HtmSglTest, CommitsSimpleTx) {
  si::protocol::HtmSgl cc;
  cc.register_thread(0);
  Cell x;
  cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{5}); });
  EXPECT_EQ(x.v, 5u);
  EXPECT_EQ(cc.thread_stats()[0].commits, 1u);
}

TEST(HtmSglTest, LargeFootprintFallsBackToSglWithCapacityAborts) {
  si::protocol::HtmSgl cc({}, {.retries = 3});
  cc.register_thread(0);
  std::vector<Cell> cells(200);
  std::uint64_t sum = 0;
  // Even a pure *read* footprint overflows plain HTM (reads are tracked).
  cc.execute(false, [&](auto& tx) {
    sum = 0;
    for (auto& c : cells) sum += tx.read(&c.v);
  });
  const auto& st = cc.thread_stats()[0];
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.sgl_commits, 1u);
  // Capacity aborts are persistent: one attempt, then straight to the SGL.
  EXPECT_EQ(st.aborts_by_cause[static_cast<int>(AbortCause::kCapacity)], 1u);
}

TEST(HtmSglTest, SglAcquisitionKillsSubscribedTx) {
  si::protocol::HtmSgl cc({}, {.retries = 1});
  std::vector<Cell> big(100);
  Cell x;
  std::atomic<bool> victim_in_tx{false}, sgl_done{false};

  std::thread victim([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      (void)tx.read(&x.v);
      victim_in_tx.store(true, std::memory_order_release);
      // Park inside the attempt; the SGL acquisition must kill us, so poll.
      si::util::Backoff b;
      while (!sgl_done.load(std::memory_order_acquire)) {
        cc.substrate().htm().check_killed();
        b.pause();
      }
      tx.write(&x.v, std::uint64_t{1});
    });
  });
  std::thread sgl_user([&] {
    cc.register_thread(1);
    await(victim_in_tx);
    // Oversized tx: aborts for capacity, then takes the SGL and kills the
    // parked victim via the subscribed lock line.
    cc.execute(false, [&](auto& tx) {
      for (auto& c : big) tx.write(&c.v, std::uint64_t{2});
    });
    sgl_done.store(true, std::memory_order_release);
  });
  victim.join();
  sgl_user.join();
  const auto& vst = cc.thread_stats()[0];
  EXPECT_GE(vst.aborts_by_cause[static_cast<int>(AbortCause::kKilledBySgl)], 1u);
  EXPECT_EQ(vst.commits, 1u);  // eventually retried and committed
  EXPECT_EQ(x.v, 1u);
}

TEST(HtmSglTest, SerializableTransfers) {
  si::protocol::HtmSgl cc;
  constexpr int kAccounts = 8;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 100;
  auto stats = si::runtime::run_fixed_ops(cc, 4, 500, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(42 + tid);
    const int from = static_cast<int>(rng.below(kAccounts));
    const int to = static_cast<int>((from + 1 + rng.below(kAccounts - 1)) % kAccounts);
    cc.execute(false, [&](auto& tx) {
      const auto f = tx.read(&accounts[from].v);
      const auto g = tx.read(&accounts[to].v);
      tx.write(&accounts[from].v, f - 1);
      tx.write(&accounts[to].v, g + 1);
    });
  });
  EXPECT_EQ(stats.totals.commits, 2000u);
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.v;
  EXPECT_EQ(total, 100u * kAccounts);
}

// --- P8TM ----------------------------------------------------------------

TEST(P8tmTest, CommitsUpdateAndReadOnly) {
  si::protocol::P8tm cc;
  cc.register_thread(0);
  Cell x;
  cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{3}); });
  std::uint64_t seen = 0;
  cc.execute(true, [&](auto& tx) { seen = tx.read(&x.v); });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(cc.thread_stats()[0].commits, 2u);
  EXPECT_EQ(cc.thread_stats()[0].ro_commits, 1u);
}

TEST(P8tmTest, LargeReadSetUpdateCommits) {
  // P8TM also stretches capacity: update reads are software-tracked, not
  // TMCAM-tracked.
  si::protocol::P8tm cc;
  cc.register_thread(0);
  std::vector<Cell> cells(300);
  Cell out;
  cc.execute(false, [&](auto& tx) {
    std::uint64_t sum = 0;
    for (auto& c : cells) sum += tx.read(&c.v);
    tx.write(&out.v, sum + 7);
  });
  EXPECT_EQ(out.v, 7u);
  EXPECT_EQ(cc.thread_stats()[0].sgl_commits, 0u);
}

TEST(P8tmTest, WriteSkewIsPreventedBySerializability) {
  // The same interleaving that materialises a write skew under SI-HTM
  // (see SiHtmSemantics.WriteSkewIsAllowed) must stay serializable under
  // P8TM: read {x, y}, write one of them to 0 only if the sum is still 2.
  // Serializable outcomes zero exactly one cell; SI would zero both.
  si::protocol::P8tm cc;
  Cell x, y;
  x.v = 1;
  y.v = 1;
  std::atomic<int> arrived{0};
  bool first_attempt[2] = {true, true};

  auto run = [&](int tid, Cell* mine) {
    cc.register_thread(tid);
    cc.execute(false, [&, tid, mine](auto& tx) {
      const auto sum = tx.read(&x.v) + tx.read(&y.v);
      if (first_attempt[tid]) {
        // Rendezvous only on the first attempt so both transactions truly
        // overlap; retries must not wait for a partner that already left.
        first_attempt[tid] = false;
        arrived.fetch_add(1, std::memory_order_acq_rel);
        si::util::Backoff b;
        while (arrived.load(std::memory_order_acquire) < 2) b.pause();
      }
      if (sum == 2) tx.write(&mine->v, std::uint64_t{0});
    });
  };
  std::thread t1([&] { run(0, &x); });
  std::thread t2([&] { run(1, &y); });
  t1.join();
  t2.join();
  EXPECT_EQ(x.v + y.v, 1u) << "both zeroed: write skew leaked through P8TM";
  std::uint64_t validation_aborts = 0;
  for (int t = 0; t < 2; ++t) {
    validation_aborts +=
        cc.thread_stats()[t].aborts_by_cause[static_cast<int>(AbortCause::kExplicit)];
  }
  EXPECT_GE(validation_aborts, 1u);
}

TEST(P8tmTest, SerializableTransfers) {
  si::protocol::P8tm cc;
  constexpr int kAccounts = 8;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 100;
  auto stats = si::runtime::run_fixed_ops(cc, 4, 400, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(7 + tid);
    const int from = static_cast<int>(rng.below(kAccounts));
    const int to = static_cast<int>((from + 1 + rng.below(kAccounts - 1)) % kAccounts);
    cc.execute(false, [&](auto& tx) {
      const auto f = tx.read(&accounts[from].v);
      const auto g = tx.read(&accounts[to].v);
      tx.write(&accounts[from].v, f - 1);
      tx.write(&accounts[to].v, g + 1);
    });
  });
  EXPECT_EQ(stats.totals.commits, 1600u);
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.v;
  EXPECT_EQ(total, 100u * kAccounts);
}

// --- Silo ----------------------------------------------------------------

TEST(SiloTest, ReadOwnBufferedWrites) {
  si::protocol::Silo cc;
  cc.register_thread(0);
  Cell x;
  x.v = 1;
  cc.execute(false, [&](auto& tx) {
    tx.write(&x.v, std::uint64_t{2});
    EXPECT_EQ(tx.read(&x.v), 2u);  // overlay, even though memory still holds 1
    tx.write(&x.v, std::uint64_t{3});
    EXPECT_EQ(tx.read(&x.v), 3u);
  });
  EXPECT_EQ(x.v, 3u);
}

TEST(SiloTest, WritesInvisibleUntilCommit) {
  si::protocol::Silo cc;
  Cell x;
  std::atomic<bool> wrote{false}, checked{false};
  std::uint64_t observed = ~0ull;

  std::thread writer([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      tx.write(&x.v, std::uint64_t{5});
      wrote.store(true, std::memory_order_release);
      await(checked);
    });
  });
  std::thread reader([&] {
    cc.register_thread(1);
    await(wrote);
    cc.execute(true, [&](auto& tx) { observed = tx.read(&x.v); });
    checked.store(true, std::memory_order_release);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(observed, 0u);  // buffered write was invisible
  EXPECT_EQ(x.v, 5u);
}

TEST(SiloTest, PartialOverlayOnWideRead) {
  si::protocol::Silo cc;
  cc.register_thread(0);
  struct alignas(kLineSize) Pair {
    std::uint64_t a = 1, b = 2;
  } p;
  cc.execute(false, [&](auto& tx) {
    tx.write(&p.b, std::uint64_t{20});
    Pair snap{};
    tx.read_bytes(&snap, &p, sizeof(Pair));
    EXPECT_EQ(snap.a, 1u);
    EXPECT_EQ(snap.b, 20u);  // buffered field overlaid into the wide read
  });
  EXPECT_EQ(p.a, 1u);
  EXPECT_EQ(p.b, 20u);
}

TEST(SiloTest, SerializableTransfers) {
  si::protocol::Silo cc;
  constexpr int kAccounts = 8;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 100;
  auto stats = si::runtime::run_fixed_ops(cc, 4, 600, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(99 + tid);
    const int from = static_cast<int>(rng.below(kAccounts));
    const int to = static_cast<int>((from + 1 + rng.below(kAccounts - 1)) % kAccounts);
    cc.execute(false, [&](auto& tx) {
      const auto f = tx.read(&accounts[from].v);
      const auto g = tx.read(&accounts[to].v);
      tx.write(&accounts[from].v, f - 1);
      tx.write(&accounts[to].v, g + 1);
    });
  });
  EXPECT_EQ(stats.totals.commits, 2400u);
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.v;
  EXPECT_EQ(total, 100u * kAccounts);
}

// --- Runtime façade --------------------------------------------------------

class RuntimeFacadeTest : public ::testing::TestWithParam<si::runtime::Backend> {};

TEST_P(RuntimeFacadeTest, TransfersConserveTotalOnEveryBackend) {
  si::runtime::RuntimeConfig cfg;
  cfg.backend = GetParam();
  cfg.max_threads = 8;
  si::runtime::Runtime rt(cfg);
  constexpr int kAccounts = 8;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 100;

  auto stats = si::runtime::run_fixed_ops(rt, 3, 300, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(1 + tid);
    const int from = static_cast<int>(rng.below(kAccounts));
    const int to = static_cast<int>((from + 1 + rng.below(kAccounts - 1)) % kAccounts);
    rt.execute(false, [&](auto& tx) {
      const auto f = tx.read(&accounts[from].v);
      const auto g = tx.read(&accounts[to].v);
      tx.write(&accounts[from].v, f - 1);
      tx.write(&accounts[to].v, g + 1);
    });
  });
  EXPECT_EQ(stats.totals.commits, 900u);
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.v;
  EXPECT_EQ(total, 100u * kAccounts);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RuntimeFacadeTest,
    ::testing::Values(si::runtime::Backend::kHtm, si::runtime::Backend::kSiHtm,
                      si::runtime::Backend::kP8tm, si::runtime::Backend::kSilo),
    [](const auto& info) {
      return std::string(si::runtime::to_string(info.param)) == "SI-HTM"
                 ? "SiHtm"
                 : std::string(si::runtime::to_string(info.param));
    });

TEST(RuntimeFacadeTest2, BackendFromString) {
  using si::runtime::Backend;
  using si::runtime::backend_from_string;
  EXPECT_EQ(backend_from_string("htm"), Backend::kHtm);
  EXPECT_EQ(backend_from_string("si-htm"), Backend::kSiHtm);
  EXPECT_EQ(backend_from_string("p8tm"), Backend::kP8tm);
  EXPECT_EQ(backend_from_string("silo"), Backend::kSilo);
  EXPECT_EQ(backend_from_string("raw-rot"), Backend::kRawRot);
  EXPECT_THROW(backend_from_string("nope"), std::invalid_argument);

  // Every spelling si_serve or si_fuzz has ever accepted.
  EXPECT_EQ(backend_from_string("sihtm"), Backend::kSiHtm);
  EXPECT_EQ(backend_from_string("htm-sgl"), Backend::kHtm);
  EXPECT_EQ(backend_from_string("rawrot"), Backend::kRawRot);
  EXPECT_EQ(backend_from_string("HTM"), Backend::kHtm);
  EXPECT_EQ(backend_from_string("SI-HTM"), Backend::kSiHtm);
  EXPECT_EQ(backend_from_string("P8TM"), Backend::kP8tm);
  EXPECT_EQ(backend_from_string("Silo"), Backend::kSilo);
  EXPECT_EQ(backend_from_string("raw-ROT"), Backend::kRawRot);

  // The printed names: display names in bench rows and si_serve, CLI names
  // in si_fuzz. Both round-trip through the parser.
  EXPECT_EQ(si::runtime::to_string(Backend::kSiHtm), "SI-HTM");
  EXPECT_EQ(si::runtime::cli_name(Backend::kSiHtm), "si-htm");
  EXPECT_EQ(si::runtime::cli_name(Backend::kRawRot), "raw-rot");
  for (const Backend b : {Backend::kHtm, Backend::kSiHtm, Backend::kP8tm,
                          Backend::kSilo, Backend::kRawRot}) {
    EXPECT_EQ(backend_from_string(si::runtime::to_string(b)), b);
    EXPECT_EQ(backend_from_string(si::runtime::cli_name(b)), b);
  }
}

}  // namespace
