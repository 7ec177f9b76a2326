// Google-benchmark microbenches of the library's primitives: emulated HTM
// access paths, SI-HTM execute overhead per path, Silo OCC, the conflict
// table, the PRNG, and the discrete-event engine's event throughput.
// Beyond the stock google-benchmark flags, the binary accepts:
//   -quick        short measuring window (smoke runs, CI perf-smoke)
//   -json <file>  write an si-bench-v1 result file (scripts/bench_to_csv.py)
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "baselines/silo.hpp"
#include "bench/common.hpp"
#include "p8htm/htm.hpp"
#include "sihtm/sihtm.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace {

struct alignas(si::util::kLineSize) Cell {
  std::uint64_t v = 0;
};

/// Publishes the run's owned-line fast-path counters as user counters,
/// `fast_path_hit_rate` being the headline one (only when some access looked
/// up the owned-line cache). Callers reset the counters
/// (HtmRuntime::reset_fast_path_stats) right before the timed loop, so the
/// rate describes the measured phase only — warm-up/setup accesses don't
/// pollute the BENCH_primitives.json hit rates.
void report_fast_path(benchmark::State& state, const si::p8::HtmRuntime& rt) {
  const si::util::FastPathStats fp = rt.fast_path_stats(0);
  if (fp.hits + fp.misses > 0) state.counters["fast_path_hit_rate"] = fp.hit_rate();
  state.counters["lock_acqs_per_iter"] = benchmark::Counter(
      static_cast<double>(fp.lock_acquisitions),
      benchmark::Counter::kAvgIterations);
}

void BM_Xoshiro(benchmark::State& state) {
  si::util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_HtmRotStoreCommit(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Cell> cells(n);
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kRot);
    for (std::size_t i = 0; i < n; ++i) rt.store(&cells[i].v, std::uint64_t{1});
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HtmRotStoreCommit)->Arg(1)->Arg(8)->Arg(32);

// Untracked ROT reads with no writer in the runtime: the write gate is
// empty, so every load skips the bucket lock (lock_acqs_per_iter == 0).
void BM_HtmRotLoad(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  std::vector<Cell> cells(256);
  rt.reset_fast_path_stats();
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kRot);
    std::uint64_t sum = 0;
    for (auto& c : cells) sum += rt.load(&c.v);  // untracked: capacity-free
    benchmark::DoNotOptimize(sum);
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  report_fast_path(state, rt);
}
BENCHMARK(BM_HtmRotLoad);

// The same 256 cells read outside any transaction: the read-only path's
// uninstrumented loads, also lock-free while the write gate is empty.
void BM_HtmPlainLoad(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  std::vector<Cell> cells(256);
  rt.reset_fast_path_stats();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (auto& c : cells) sum += rt.plain_load(&c.v);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  report_fast_path(state, rt);
}
BENCHMARK(BM_HtmPlainLoad);

void BM_HtmTrackedLoad(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  std::vector<Cell> cells(32);  // fits the TMCAM
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kHtm);
    std::uint64_t sum = 0;
    for (auto& c : cells) sum += rt.load(&c.v);
    benchmark::DoNotOptimize(sum);
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_HtmTrackedLoad);

// Write-repeat: a ROT that keeps writing the same few lines. After the first
// touch per line every store hits a line the transaction already owns, so
// this isolates the owned-line fast path (ownership-cache hit → no bucket
// lock) against the conflict-resolution slow path.
void BM_HtmWriteRepeat(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  constexpr std::size_t kLines = 4, kRepeats = 64;
  std::vector<Cell> cells(kLines);
  rt.reset_fast_path_stats();
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kRot);
    for (std::size_t r = 0; r < kRepeats; ++r) {
      for (std::size_t i = 0; i < kLines; ++i) {
        rt.store(&cells[i].v, static_cast<std::uint64_t>(r));
      }
    }
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLines * kRepeats));
  report_fast_path(state, rt);
}
BENCHMARK(BM_HtmWriteRepeat);

// Read-mostly: an HTM transaction re-reading a tracked working set with a few
// writes mixed in. Repeat tracked reads hit lines already registered in the
// read set, so this isolates the reader-role side of the ownership cache.
void BM_HtmReadMostly(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  constexpr std::size_t kLines = 16, kRepeats = 16;
  std::vector<Cell> cells(kLines);
  rt.reset_fast_path_stats();
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kHtm);
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      for (std::size_t i = 0; i < kLines; ++i) sum += rt.load(&cells[i].v);
    }
    for (std::size_t i = 0; i < kLines; i += 2) rt.store(&cells[i].v, sum);
    benchmark::DoNotOptimize(sum);
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLines * kRepeats));
  report_fast_path(state, rt);
}
BENCHMARK(BM_HtmReadMostly);

// ROT read-after-write: untracked reads that land on lines this transaction
// write-owns (the Fig. 2B pattern, minus the conflict). Exercises the
// write-owner lookup from the untracked-read path.
void BM_HtmRotReadOwnWrite(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  constexpr std::size_t kLines = 8, kRepeats = 32;
  std::vector<Cell> cells(kLines);
  rt.reset_fast_path_stats();
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kRot);
    for (std::size_t i = 0; i < kLines; ++i) rt.store(&cells[i].v, std::uint64_t{1});
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      for (std::size_t i = 0; i < kLines; ++i) sum += rt.load(&cells[i].v);
    }
    benchmark::DoNotOptimize(sum);
    rt.commit();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLines * kRepeats));
  report_fast_path(state, rt);
}
BENCHMARK(BM_HtmRotReadOwnWrite);

void BM_PlainLoad(benchmark::State& state) {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  rt.register_thread(0);
  Cell c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.plain_load(&c.v));
  }
}
BENCHMARK(BM_PlainLoad);

void BM_SiHtmExecuteReadOnly(benchmark::State& state) {
  si::sihtm::SiHtm cc;
  cc.register_thread(0);
  Cell c;
  for (auto _ : state) {
    std::uint64_t out = 0;
    cc.execute(true, [&](auto& tx) { out = tx.read(&c.v); });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SiHtmExecuteReadOnly);

void BM_SiHtmExecuteUpdate(benchmark::State& state) {
  si::sihtm::SiHtm cc;
  cc.register_thread(0);
  Cell c;
  for (auto _ : state) {
    cc.execute(false, [&](auto& tx) { tx.write(&c.v, c.v + 1); });
  }
}
BENCHMARK(BM_SiHtmExecuteUpdate);

void BM_SiloExecuteUpdate(benchmark::State& state) {
  si::baselines::Silo cc;
  cc.register_thread(0);
  Cell c;
  for (auto _ : state) {
    cc.execute(false, [&](auto& tx) {
      const auto v = tx.read(&c.v);
      tx.write(&c.v, v + 1);
    });
  }
}
BENCHMARK(BM_SiloExecuteUpdate);

// Footnote 1 of the paper: a fraction of ROT reads is TMCAM-tracked anyway.
// Sweeping the modelled fraction shows how quickly large read sets would
// start hitting capacity if the hardware tracked more of them.
void BM_RotReadTrackingFraction(benchmark::State& state) {
  si::p8::HtmConfig cfg;
  cfg.rot_read_tracking_pct = static_cast<unsigned>(state.range(0));
  si::p8::HtmRuntime rt(cfg);
  rt.register_thread(0);
  std::vector<Cell> cells(256);
  std::uint64_t capacity_aborts = 0;
  for (auto _ : state) {
    rt.begin(si::p8::TxMode::kRot);
    try {
      std::uint64_t sum = 0;
      for (auto& c : cells) sum += rt.load(&c.v);
      benchmark::DoNotOptimize(sum);
      rt.commit();
    } catch (const si::p8::TxAbort&) {
      ++capacity_aborts;
    }
  }
  state.counters["capacity_abort_rate"] = benchmark::Counter(
      static_cast<double>(capacity_aborts), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RotReadTrackingFraction)->Arg(0)->Arg(5)->Arg(25)->Arg(100);

void BM_SimEngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    si::sim::SimMachineConfig mcfg;
    si::sim::SimEngine eng(mcfg, 8);
    Cell c;
    const auto stats = eng.run(1e5, [&](int) {
      std::uint64_t v;
      eng.access(&v, &c.v, 8, false, false, si::util::AbortCause::kConflictRead);
      benchmark::DoNotOptimize(v);
    });
    benchmark::DoNotOptimize(stats.elapsed_seconds);
  }
}
BENCHMARK(BM_SimEngineEvents)->Unit(benchmark::kMillisecond);

/// ConsoleReporter that additionally keeps every per-iteration run so the
/// main can emit them as si-bench-v1 records.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type == Run::RT_Iteration && !r.error_occurred) {
        runs.push_back(r);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Run> runs;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off the harness's own flags (-quick, -json <file>); everything else
  // goes through to google-benchmark untouched.
  std::string json_path;
  bool quick = false;
  std::vector<char*> bm_args;
  bm_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "-quick" || a == "--quick") {
      quick = true;
    } else if ((a == "-json" || a == "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      bm_args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.05";
  if (quick) bm_args.push_back(min_time.data());

  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!json_path.empty()) {
    si::bench::JsonSink sink(json_path, "bench_primitives");
    for (const auto& run : reporter.runs) {
      si::bench::BenchRecord rec;
      rec.system = "primitives";
      rec.point = run.benchmark_name();
      rec.threads = static_cast<int>(run.threads);
      const auto items = run.counters.find("items_per_second");
      rec.throughput = items != run.counters.end()
                           ? static_cast<double>(items->second)
                           : static_cast<double>(run.iterations) /
                                 run.real_accumulated_time;
      rec.commits = static_cast<std::uint64_t>(run.iterations);
      const auto fp = run.counters.find("fast_path_hit_rate");
      if (fp != run.counters.end()) {
        rec.fast_path_hit_rate = static_cast<double>(fp->second);
      }
      const auto locks = run.counters.find("lock_acqs_per_iter");
      if (locks != run.counters.end()) {
        rec.lock_acqs_per_iter = static_cast<double>(locks->second);
      }
      sink.add(std::move(rec));
    }
    if (!sink.flush()) return 1;
  }
  return 0;
}
