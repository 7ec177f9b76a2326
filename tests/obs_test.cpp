// Observability layer (src/obs): tracer ring semantics, exporter byte
// stability, the safety-wait span invariant the paper's Algorithm 1 implies,
// metrics counts, and real/sim taxonomy parity.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hashmap/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/driver.hpp"
#include "protocol/tm.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"

namespace {

using si::obs::Tracer;
using si::obs::TraceEventKind;
using si::obs::TraceRecord;

// Everything here exercises the live tracer; under -DSIHTM_TRACE=OFF the
// stubs record nothing, so the whole file degrades to skips.
#define SKIP_IF_TRACE_COMPILED_OUT()                 \
  if (!si::obs::kTraceEnabled) {                     \
    GTEST_SKIP() << "built with SI_TRACE=0";         \
  }

// --- ring buffer semantics ---------------------------------------------------

TEST(TracerTest, EmitsAndDrainsInOrder) {
  SKIP_IF_TRACE_COMPILED_OUT();
  Tracer t(2, 16);
  t.emit(0, TraceEventKind::kBegin, 10.0);
  t.emit(0, TraceEventKind::kCommit, 20.0, 1);
  t.emit(1, TraceEventKind::kBegin, 15.0);

  const auto r0 = t.drain(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].kind, TraceEventKind::kBegin);
  EXPECT_EQ(r0[0].ts_ns, 10.0);
  EXPECT_EQ(r0[1].kind, TraceEventKind::kCommit);
  EXPECT_EQ(r0[1].arg, 1u);
  EXPECT_EQ(t.drain(1).size(), 1u);
  EXPECT_EQ(t.emitted(0), 2u);
  EXPECT_EQ(t.dropped(0), 0u);
}

TEST(TracerTest, RingWrapKeepsNewestOldestFirst) {
  SKIP_IF_TRACE_COMPILED_OUT();
  Tracer t(1, 8);
  for (int i = 0; i < 11; ++i) {
    t.emit(0, TraceEventKind::kSuspend, static_cast<double>(i));
  }
  EXPECT_EQ(t.emitted(0), 11u);
  EXPECT_EQ(t.dropped(0), 3u);
  const auto recs = t.drain(0);
  ASSERT_EQ(recs.size(), 8u);  // capacity; the 3 oldest fell off
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].ts_ns, static_cast<double>(i + 3)) << "slot " << i;
  }
}

TEST(TracerTest, EpochBumpsOnBeginOnly) {
  SKIP_IF_TRACE_COMPILED_OUT();
  Tracer t(1, 16);
  t.emit(0, TraceEventKind::kBegin, 1.0);
  t.emit(0, TraceEventKind::kAbort, 2.0);
  t.emit(0, TraceEventKind::kBegin, 3.0);
  t.emit(0, TraceEventKind::kCommit, 4.0, 2);
  const auto recs = t.drain(0);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].epoch, 1u);
  EXPECT_EQ(recs[1].epoch, 1u);  // abort belongs to attempt 1
  EXPECT_EQ(recs[2].epoch, 2u);
  EXPECT_EQ(recs[3].epoch, 2u);
}

// --- exporter ----------------------------------------------------------------

// Golden render of a hand-built one-transaction trace: any byte-level drift
// in the exporter (key order, spacing, number formatting) is a breaking
// change for downstream tooling and must show up here.
TEST(ChromeTraceTest, GoldenSingleTransaction) {
  SKIP_IF_TRACE_COMPILED_OUT();
  Tracer t(1, 16);
  t.emit(0, TraceEventKind::kBegin, 100.0);
  t.emit(0, TraceEventKind::kSuspend, 200.0);
  t.emit(0, TraceEventKind::kResume, 250.0);
  t.emit(0, TraceEventKind::kSafetyWaitEnter, 300.0, 1);
  t.emit(0, TraceEventKind::kStragglerRetire, 400.0, 3);
  t.emit(0, TraceEventKind::kSafetyWaitExit, 500.0);
  t.emit(0, TraceEventKind::kCommit, 600.0, 1);

  std::ostringstream os;
  si::obs::write_chrome_trace(os, t);
  const std::string expected = R"({
  "traceEvents": [
    {
      "name": "process_name",
      "ph": "M",
      "pid": 0,
      "tid": 0,
      "args": {
        "name": "si"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 0,
      "tid": 0,
      "args": {
        "name": "worker 0"
      }
    },
    {
      "name": "tx",
      "ph": "B",
      "pid": 0,
      "tid": 0,
      "ts": 0.10000000000000001,
      "args": {
        "epoch": 1,
        "path": "hw"
      }
    },
    {
      "name": "suspend",
      "ph": "i",
      "pid": 0,
      "tid": 0,
      "ts": 0.20000000000000001,
      "s": "t",
      "args": {
        "epoch": 1
      }
    },
    {
      "name": "resume",
      "ph": "i",
      "pid": 0,
      "tid": 0,
      "ts": 0.25,
      "s": "t",
      "args": {
        "epoch": 1
      }
    },
    {
      "name": "safety-wait",
      "ph": "B",
      "pid": 0,
      "tid": 0,
      "ts": 0.29999999999999999,
      "args": {
        "epoch": 1,
        "stragglers": 1
      }
    },
    {
      "name": "straggler-retire",
      "ph": "i",
      "pid": 0,
      "tid": 0,
      "ts": 0.40000000000000002,
      "s": "t",
      "args": {
        "epoch": 1,
        "straggler": 3
      }
    },
    {
      "name": "safety-wait",
      "ph": "E",
      "pid": 0,
      "tid": 0,
      "ts": 0.5
    },
    {
      "name": "tx",
      "ph": "E",
      "pid": 0,
      "tid": 0,
      "ts": 0.59999999999999998,
      "args": {
        "outcome": "commit",
        "attempts": 1
      }
    }
  ],
  "displayTimeUnit": "ns"
}
)";
  EXPECT_EQ(os.str(), expected);
}

TEST(ChromeTraceTest, TruncatedRingStaysBalanced) {
  SKIP_IF_TRACE_COMPILED_OUT();
  // A begin whose close fell off the ring must be force-closed, and a close
  // with no open must be skipped — the rendered span stream stays balanced.
  Tracer t(1, 4);
  t.emit(0, TraceEventKind::kBegin, 1.0);     // will be overwritten
  t.emit(0, TraceEventKind::kCommit, 2.0, 1); // survives, with no open tx
  t.emit(0, TraceEventKind::kBegin, 3.0);
  t.emit(0, TraceEventKind::kBegin, 4.0);     // closes the previous as truncated
  t.emit(0, TraceEventKind::kCommit, 5.0, 1);
  std::ostringstream os;
  si::obs::write_chrome_trace(os, t);
  const std::string out = os.str();
  std::size_t opens = 0, closes = 0, pos = 0;
  while ((pos = out.find("\"ph\": \"B\"", pos)) != std::string::npos) {
    ++opens;
    pos += 1;
  }
  pos = 0;
  while ((pos = out.find("\"ph\": \"E\"", pos)) != std::string::npos) {
    ++closes;
    pos += 1;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_NE(out.find("truncated"), std::string::npos);
}

// --- deterministic sim runs --------------------------------------------------

struct SimTraceRun {
  std::string chrome;
  std::vector<std::vector<TraceRecord>> records;  // per tid
  std::uint64_t commits = 0;
  si::obs::MetricsSnapshot metrics;
};

SimTraceRun run_sim_hashmap(bool with_obs, int threads = 4,
                            double virtual_ns = 2e5) {
  SimTraceRun out;
  Tracer tracer(threads);
  si::obs::Metrics metrics(threads);
  const si::obs::ObsConfig obs =
      with_obs ? si::obs::ObsConfig{&tracer, &metrics} : si::obs::ObsConfig{};
  si::sim::SimEngine eng(si::sim::SimMachineConfig{}, threads);
  si::sim::SimSiHtm cc(eng, {.obs = obs});
  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 50;
  wcfg.avg_chain = 20;
  wcfg.ro_pct = 50;
  si::hashmap::Workload workload(wcfg, threads);
  const auto rs =
      eng.run(virtual_ns, [&](int tid) { workload.step(cc, tid); });
  out.commits = rs.totals.commits;
  std::ostringstream os;
  si::obs::write_chrome_trace(os, tracer);
  out.chrome = os.str();
  for (int t = 0; t < threads; ++t) out.records.push_back(tracer.drain(t));
  out.metrics = metrics.snapshot();
  return out;
}

TEST(ChromeTraceTest, SimExportByteStableAcrossRuns) {
  SKIP_IF_TRACE_COMPILED_OUT();
  const auto a = run_sim_hashmap(true);
  const auto b = run_sim_hashmap(true);
  EXPECT_GT(a.commits, 0u);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.records, b.records);
}

TEST(ObsEquivalenceTest, TracingDoesNotChangeSimOutcome) {
  SKIP_IF_TRACE_COMPILED_OUT();
  // Obs hooks are pure bookkeeping: they never advance virtual time, so a
  // traced run and an untraced run of the same seed commit identically.
  const auto traced = run_sim_hashmap(true);
  const auto plain = run_sim_hashmap(false);
  EXPECT_GT(traced.commits, 0u);
  EXPECT_EQ(traced.commits, plain.commits);
  for (const auto& recs : plain.records) EXPECT_TRUE(recs.empty());
}

TEST(ObsInvariantTest, EveryCommittedHwUpdateTxHasAWaitSpan) {
  SKIP_IF_TRACE_COMPILED_OUT();
  // Algorithm 1: an update ROT publishes, then waits for stragglers before
  // HTMEnd. The trace must show a matched safety-wait span inside every
  // committed hw-path transaction, even when there were zero stragglers.
  const auto run = run_sim_hashmap(true);
  std::uint64_t hw_commits = 0;
  for (const auto& recs : run.records) {
    bool open = false, has_wait = false, wait_open = false, is_hw = false;
    for (const auto& r : recs) {
      switch (r.kind) {
        case TraceEventKind::kBegin:
          open = true;
          has_wait = false;
          is_hw = (r.arg & (si::obs::kBeginRo | si::obs::kBeginSgl)) == 0;
          break;
        case TraceEventKind::kSafetyWaitEnter:
          EXPECT_TRUE(open);
          wait_open = true;
          break;
        case TraceEventKind::kSafetyWaitExit:
          EXPECT_TRUE(wait_open);
          wait_open = false;
          has_wait = true;
          break;
        case TraceEventKind::kCommit:
          EXPECT_FALSE(wait_open);
          if (open && is_hw) {
            ++hw_commits;
            EXPECT_TRUE(has_wait) << "committed hw tx without a safety wait";
          }
          open = false;
          break;
        case TraceEventKind::kAbort:
          open = false;
          wait_open = false;
          break;
        default:
          break;
      }
    }
  }
  EXPECT_GT(hw_commits, 0u);
}

TEST(ObsMetricsTest, CountsMatchTraceAndStats) {
  SKIP_IF_TRACE_COMPILED_OUT();
  const auto run = run_sim_hashmap(true);
  std::uint64_t commits = 0, waits = 0;
  for (const auto& recs : run.records) {
    for (const auto& r : recs) {
      if (r.kind == TraceEventKind::kCommit) ++commits;
      if (r.kind == TraceEventKind::kSafetyWaitExit) ++waits;
    }
  }
  EXPECT_EQ(commits, run.commits);
  EXPECT_EQ(run.metrics.commit_latency.count(), run.commits);
  EXPECT_EQ(run.metrics.retries.count(), run.commits);
  EXPECT_EQ(run.metrics.safety_wait.count(), waits);
  EXPECT_GT(run.metrics.safety_wait.count(), 0u);
  EXPECT_GE(run.metrics.safety_wait_p99_ns(), run.metrics.safety_wait_p50_ns());
}

// --- real/sim taxonomy parity ------------------------------------------------

std::set<TraceEventKind> kinds_of(const std::vector<TraceRecord>& recs) {
  std::set<TraceEventKind> kinds;
  for (const auto& r : recs) kinds.insert(r.kind);
  return kinds;
}

TEST(ObsTaxonomyTest, RealAndSimEmitTheSameLifecycleKinds) {
  SKIP_IF_TRACE_COMPILED_OUT();
  constexpr int kThreads = 2;
  const std::set<TraceEventKind> core = {
      TraceEventKind::kBegin,          TraceEventKind::kSuspend,
      TraceEventKind::kResume,         TraceEventKind::kSafetyWaitEnter,
      TraceEventKind::kSafetyWaitExit, TraceEventKind::kCommit,
  };

  std::set<TraceEventKind> sim_kinds;
  {
    const auto run = run_sim_hashmap(true, kThreads);
    for (const auto& recs : run.records) {
      const auto k = kinds_of(recs);
      sim_kinds.insert(k.begin(), k.end());
    }
  }

  std::set<TraceEventKind> real_kinds;
  {
    Tracer tracer(kThreads);
    si::obs::Metrics metrics(kThreads);
    si::protocol::SiHtm cc({.max_threads = kThreads,
                            .obs = si::obs::ObsConfig{&tracer, &metrics}});
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = 50;
    wcfg.avg_chain = 20;
    wcfg.ro_pct = 50;
    si::hashmap::Workload workload(wcfg, kThreads);
    si::runtime::run_fixed_ops(cc, kThreads, 500,
                               [&](int tid) { workload.step(cc, tid); });
    for (int t = 0; t < kThreads; ++t) {
      const auto k = kinds_of(tracer.drain(t));
      real_kinds.insert(k.begin(), k.end());
    }
  }

  for (const auto kind : core) {
    EXPECT_TRUE(sim_kinds.count(kind)) << "sim missing " << to_string(kind);
    EXPECT_TRUE(real_kinds.count(kind)) << "real missing " << to_string(kind);
  }
}

}  // namespace
