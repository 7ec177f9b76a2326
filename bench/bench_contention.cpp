// Adversarial contention sweeps for the slim-lock SGL and the AIMD
// admission controller (DESIGN.md section 11).
//
// Three simulated panels stress the SGL fallback path where the TTAS
// spinlock hurt most — virtual time, so every number is deterministic and
// comparable across machines:
//
//  * straggler-storm   capacity-doomed updates take the SGL over and over
//                      while long-running ROT stragglers keep every holder's
//                      drain phase microseconds long; the rest of the threads
//                      offer short read-only scans. Slim+shared admits those
//                      reads during the drains (the upgrade wait is bounded
//                      by one short scan); TTAS parks every reader for every
//                      full drain.
//  * zipfian-hotspot   skewed array counter: zipf-distributed RMWs on a hot
//                      head force repeated ROT conflicts and SGL storms
//                      while zipf-distributed scans keep a large read-only
//                      population arriving.
//  * long-tx           long chains (400-element buckets) with a mixed op
//                      mix: long lookups and long updates → long SGL holds
//                      and long drains, the worst case for spin-waiting.
//
// All three run SI-HTM with the slim lock (shared-mode RO overlap on)
// against SI-HTM with the seed's TTAS SGL and against plain HTM+SGL, on a
// 120-core SMT-1 simulated machine so the 40..120-thread points are real
// concurrency, not SMT sharing. `-check` asserts the headline acceptance
// criterion: slim+shared >= 1.5x TTAS throughput on the straggler-storm
// panel at every point with >= 40 threads.
//
// The fourth panel runs on real threads: the serving layer under open-loop
// overload, static watermark vs the AIMD controller, reporting end-of-run
// request-latency percentiles and controller state. Wall-clock numbers, so
// it is reported (and committed in BENCH_primitives.json) but never gated
// by -check; `-no-serve` skips it entirely.
//
// Flags: -quick (short sweep), -json FILE (si-bench-v1 records),
// -threads a,b,c, -ms VIRTUAL_MS, -serve-ms WALL_MS, -check, -no-serve.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "hashmap/workload.hpp"
#include "obs/metrics.hpp"
#include "serve/kv_app.hpp"
#include "serve/service.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

enum class Leg { kSiHtmSlim, kSiHtmTtas, kHtmSgl };

const char* leg_name(Leg leg) {
  switch (leg) {
    case Leg::kSiHtmSlim: return "SI-HTM-slim";
    case Leg::kSiHtmTtas: return "SI-HTM-ttas";
    case Leg::kHtmSgl: return "HTM";
  }
  return "?";
}

/// The straggler-storm acceptance workload. Three thread roles on disjoint
/// cell regions (so every slowdown is protocol-induced, not data conflicts):
///
///  * fallers (tid % 10 == 0)    update transactions writing more distinct
///                               lines than one core's TMCAM holds — every
///                               attempt dies with a capacity abort and goes
///                               straight to the SGL, so the lock is taken
///                               over and over (the "storm").
///  * stragglers (tid % 10 == 5) long update ROTs: a multi-thousand-line
///                               untracked read scan plus one private write.
///                               Their state slots stay active for microseconds,
///                               so every SGL holder's drain is long.
///  * readers (the rest)         short read-only scans — the population the
///                               two SGL modes treat differently. TTAS parks
///                               every reader for the full drain; slim+shared
///                               admits them in shared mode, and the price
///                               (gl_upgrade waiting out the last joiner) is
///                               bounded by one short scan.
class StragglerStormWorkload {
 public:
  StragglerStormWorkload(int max_threads)
      : faller_cells_(kFallerLines * kMaxFallers),
        straggler_cells_(kStragglerScan),
        straggler_priv_(kMaxStragglers),
        reader_cells_(kReaderRegion) {
    rngs_.reserve(static_cast<std::size_t>(max_threads));
    for (int t = 0; t < max_threads; ++t) {
      rngs_.emplace_back(0x5eedULL ^ (0x9e3779b9ULL * (t + 1)));
    }
  }

  template <typename CC>
  void step(CC& cc, int tid) {
    if (tid % 10 == 0) {  // faller: capacity-doomed update -> SGL
      const std::size_t base =
          static_cast<std::size_t>((tid / 10) % kMaxFallers) * kFallerLines;
      cc.execute(/*is_ro=*/false, [&](auto& tx) {
        for (std::size_t i = 0; i < kFallerLines; ++i) {
          auto* cell = &faller_cells_[base + i].v;
          tx.write(cell, tx.read(cell) + 1);
        }
      });
    } else if (tid % 10 == 5) {  // straggler: long ROT, active for ~6us
      auto* priv = &straggler_priv_[static_cast<std::size_t>((tid / 10) %
                                                             kMaxStragglers)]
                        .v;
      std::uint64_t sum = 0;
      cc.execute(/*is_ro=*/false, [&](auto& tx) {
        sum = 0;
        for (auto& c : straggler_cells_) sum += tx.read(&c.v);
        tx.write(priv, sum);
      });
      sink_ = sink_ + sum;
    } else {  // reader: short RO scan
      auto& rng = rngs_[static_cast<std::size_t>(tid)];
      const std::size_t base = rng.below(kReaderRegion - kReaderScan);
      std::uint64_t sum = 0;
      cc.execute(/*is_ro=*/true, [&](auto& tx) {
        sum = 0;
        for (std::size_t i = 0; i < kReaderScan; ++i) {
          sum += tx.read(&reader_cells_[base + i].v);
        }
      });
      sink_ = sink_ + sum;
    }
  }

 private:
  struct alignas(si::util::kLineSize) Cell {
    std::uint64_t v = 0;
  };
  // 80 distinct lines > the 64-line per-core TMCAM: guaranteed capacity
  // abort (and a ~0.5us SGL body of plain writes).
  static constexpr std::size_t kFallerLines = 80;
  static constexpr std::size_t kMaxFallers = 12;     // 120 threads / 10
  static constexpr std::size_t kMaxStragglers = 12;
  static constexpr std::size_t kStragglerScan = 1024;  // ~6us of ROT reads
  static constexpr std::size_t kReaderRegion = 4096;
  static constexpr std::size_t kReaderScan = 16;

  std::vector<Cell> faller_cells_;
  std::vector<Cell> straggler_cells_;
  std::vector<Cell> straggler_priv_;
  std::vector<Cell> reader_cells_;
  std::vector<si::util::Xoshiro256> rngs_;
  volatile std::uint64_t sink_ = 0;
};

/// Zipf-skewed array-counter workload: `ro_pct`% of operations scan
/// `scan_len` consecutive cells read-only; the rest RMW a single
/// zipf-distributed cell. theta ~ 0.9 concentrates updates on a few hot
/// cells, which is what keeps the ROT conflict rate (and therefore the SGL
/// fallback rate) high at every thread count.
class ZipfWorkload {
 public:
  ZipfWorkload(std::size_t cells, double theta, unsigned ro_pct,
               std::size_t scan_len, int max_threads)
      : ro_pct_(ro_pct), scan_len_(scan_len), cells_(cells) {
    cdf_.reserve(cells);
    double acc = 0;
    for (std::size_t i = 0; i < cells; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_.push_back(acc);
    }
    for (auto& w : cdf_) w /= acc;
    rngs_.reserve(static_cast<std::size_t>(max_threads));
    for (int t = 0; t < max_threads; ++t) {
      rngs_.emplace_back(0x5eedULL ^ (0x9e3779b9ULL * (t + 1)));
    }
  }

  template <typename CC>
  void step(CC& cc, int tid) {
    auto& rng = rngs_[static_cast<std::size_t>(tid)];
    const std::size_t idx = zipf(rng);
    if (rng.percent(ro_pct_)) {
      std::uint64_t sum = 0;
      cc.execute(/*is_ro=*/true, [&](auto& tx) {
        sum = 0;
        for (std::size_t i = 0; i < scan_len_; ++i) {
          sum += tx.read(&cells_[(idx + i) % cells_.size()].v);
        }
      });
      sink_ = sink_ + sum;
    } else {
      cc.execute(/*is_ro=*/false, [&](auto& tx) {
        const std::uint64_t v = tx.read(&cells_[idx].v);
        tx.write(&cells_[idx].v, v + 1);
      });
    }
  }

 private:
  struct alignas(si::util::kLineSize) Cell {
    std::uint64_t v = 0;
  };

  std::size_t zipf(si::util::Xoshiro256& rng) {
    const double u =
        static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

  unsigned ro_pct_;
  std::size_t scan_len_;
  std::vector<Cell> cells_;
  std::vector<double> cdf_;
  std::vector<si::util::Xoshiro256> rngs_;
  volatile std::uint64_t sink_ = 0;
};

/// One (leg, threads) point on the 120-core SMT-1 machine.
template <typename MakeWorkload>
si::util::RunStats run_leg(Leg leg, int threads, double virtual_ns,
                           MakeWorkload&& make_workload) {
  si::sim::SimMachineConfig mcfg;
  mcfg.topo.cores = 120;  // SMT-1: every simulated thread is a real core
  mcfg.topo.smt = 1;
  si::sim::SimEngine eng(mcfg, threads);
  auto workload = make_workload(threads);
  const bool ttas = leg == Leg::kSiHtmTtas;
  const si::protocol::SimSubstrateConfig scfg{
      .sgl_impl = ttas ? si::util::SglImpl::kTtas : si::util::SglImpl::kSlim,
      .sgl_shared_ro = !ttas};
  return si::sim::with_sim_backend(
      leg == Leg::kHtmSgl ? si::runtime::Backend::kHtm
                          : si::runtime::Backend::kSiHtm,
      eng, scfg, 10,
      [&](auto& cc) {
        return eng.run(virtual_ns, [&](int tid) { workload->step(cc, tid); });
      });
}

struct PanelResult {
  // throughput[leg][i] for threads[i]
  std::vector<std::vector<double>> throughput;
};

template <typename MakeWorkload>
PanelResult run_panel(const std::string& title,
                      const std::vector<int>& threads, double virtual_ns,
                      MakeWorkload&& make_workload, si::bench::JsonSink* sink) {
  const std::vector<Leg> legs = {Leg::kSiHtmSlim, Leg::kSiHtmTtas,
                                 Leg::kHtmSgl};
  std::printf("== %s ==\n", title.c_str());
  PanelResult res;
  for (Leg leg : legs) {
    res.throughput.emplace_back();
    std::printf("%-12s", leg_name(leg));
    for (int n : threads) {
      const auto rs = run_leg(leg, n, virtual_ns, make_workload);
      res.throughput.back().push_back(rs.throughput());
      std::printf("  x%-3d %10.0f tx/s (ab %4.1f%% slp %llu sgl %llu ro %llu)", n,
                  rs.throughput(), rs.abort_pct(),
                  static_cast<unsigned long long>(rs.totals.sgl_sleep_wakeups),
                  static_cast<unsigned long long>(rs.totals.sgl_commits),
                  static_cast<unsigned long long>(rs.totals.ro_commits));
      if (sink != nullptr && sink->enabled()) {
        si::bench::BenchRecord rec;
        rec.system = leg_name(leg);
        rec.point = title;
        rec.threads = n;
        rec.throughput = rs.throughput();
        rec.commits = rs.totals.commits;
        rec.abort_pct = rs.abort_pct();
        rec.abort_pct_transactional =
            rs.abort_pct(si::util::AbortClass::kTransactional);
        rec.abort_pct_non_transactional =
            rs.abort_pct(si::util::AbortClass::kNonTransactional);
        rec.abort_pct_capacity = rs.abort_pct(si::util::AbortClass::kCapacity);
        rec.sgl_sleep_wakeups =
            static_cast<std::int64_t>(rs.totals.sgl_sleep_wakeups);
        sink->add(std::move(rec));
      }
      si::bench::progress_dot();
    }
    std::printf("\n");
  }
  std::printf("\n");
  return res;
}

// ---------------------------------------------------------------------------
// Serve panel: AIMD vs static watermark under open-loop overload
// ---------------------------------------------------------------------------

struct ServeResult {
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  si::serve::AimdState aimd;
};

/// Hammers the service from `clients` threads with no think time for
/// `run_ms` wall milliseconds: an open-loop overload (rejected requests are
/// dropped, not retried). Static admission lets the queue fill to the
/// watermark so the queue-delay tail compounds; AIMD cuts until the epoch
/// p99 fits the target.
ServeResult run_serve_leg(bool adaptive, double run_ms,
                          std::uint64_t target_p99_ns) {
  si::serve::KvAppConfig acfg;
  acfg.buckets = 512;
  acfg.seed_elements = 4000;
  acfg.key_space = acfg.seed_elements * 2;

  si::serve::ServiceConfig scfg;
  scfg.shards = 2;
  // Deep enough that the static leg's full-queue delay (capacity x service
  // time) is an order of magnitude over any sane p99 target; AIMD never
  // sees the cap — it cuts the watermark long before.
  scfg.queue_capacity = 16384;
  scfg.admit_watermark = 0;  // static leg: hard bound only (the seed default)
  scfg.runtime.backend = si::runtime::Backend::kSiHtm;
  scfg.runtime.max_threads = scfg.shards;
  scfg.aimd.enabled = adaptive;
  scfg.aimd.target_p99_ns = target_p99_ns;
  scfg.aimd.epoch_us = 1000;

  si::obs::Metrics metrics(scfg.shards);
  scfg.runtime.obs.metrics = &metrics;

  si::serve::KvApp app(acfg, scfg.shards);
  si::serve::Service<si::serve::KvApp> service(app, scfg);

  // Enough open-loop spammers to saturate, but don't starve the shard
  // workers of cores on small hosts — the panel measures queueing policy,
  // not scheduler pathology.
  const int kClients = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()) / 2, 2, 8);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{0}, rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      si::util::Xoshiro256 rng(0xc11e57ULL * (c + 1));
      std::uint64_t id = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        si::serve::Request req;
        req.id = ++id;
        req.op = si::serve::KvApp::kGet;
        req.key = rng.below(acfg.key_space);
        if (service.submit(req).accepted()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // First half is warm-up (queue fill + controller convergence); the
  // reported percentiles are the steady-state second half, carved out of
  // the cumulative histograms with the same saturating subtract the AIMD
  // epochs use.
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(run_ms * 500)));
  const auto warm = metrics.snapshot();
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(run_ms * 500)));
  stop.store(true);
  for (auto& t : clients) t.join();
  service.stop();

  auto lat = metrics.snapshot().request_latency;
  lat.subtract(warm.request_latency);
  ServeResult r;
  r.p50_ns = static_cast<std::uint64_t>(lat.quantile(0.5));
  r.p99_ns = static_cast<std::uint64_t>(lat.quantile(0.99));
  r.accepted = accepted.load();
  r.rejected = rejected.load();
  r.aimd = service.aimd_state();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const bool check = cli.has("check");

  std::vector<int> threads = quick ? std::vector<int>{8, 40}
                                   : std::vector<int>{8, 40, 80, 120};
  threads = si::util::parse_int_list(cli.get("threads"), threads);
  const double virtual_ns =
      cli.get_double("ms", quick ? 0.5 : 2.0) * 1e6;
  const double serve_ms = cli.get_double("serve-ms", quick ? 200.0 : 1000.0);

  auto sink = si::bench::JsonSink::from_cli(cli, "bench_contention");

  // Panel 1 — straggler-storm (the -check acceptance panel).
  const PanelResult p_storm = run_panel(
      "bench_contention straggler-storm", threads, virtual_ns,
      [&](int n) { return std::make_unique<StragglerStormWorkload>(n); },
      &sink);

  // Panel 2 — zipfian-hotspot.
  run_panel(
      "bench_contention zipfian-hotspot", threads, virtual_ns,
      [&](int n) {
        return std::make_unique<ZipfWorkload>(/*cells=*/4096, /*theta=*/0.9,
                                              /*ro_pct=*/80, /*scan_len=*/64,
                                              n);
      },
      &sink);

  // Panel 3 — long transactions.
  si::hashmap::WorkloadConfig longtx;
  longtx.buckets = 20;
  longtx.avg_chain = 400;
  longtx.ro_pct = 60;
  run_panel(
      "bench_contention long-tx", threads, virtual_ns,
      [&](int n) { return std::make_unique<si::hashmap::Workload>(longtx, n); },
      &sink);

  // Panel 4 — serve AIMD vs static under overload (real threads, never
  // gated: wall-clock numbers).
  if (!cli.has("no-serve")) {
    const std::uint64_t target_p99_ns = static_cast<std::uint64_t>(
        cli.get_int("target-p99-us", 5000) * 1000LL);
    std::printf("== bench_contention aimd-overload (target p99 %.0f us) ==\n",
                static_cast<double>(target_p99_ns) / 1000.0);
    double p99_of[2] = {0, 0};
    for (const bool adaptive : {false, true}) {
      const ServeResult r = run_serve_leg(adaptive, serve_ms, target_p99_ns);
      p99_of[adaptive ? 1 : 0] = static_cast<double>(r.p99_ns);
      std::printf("%-12s  p50 %8llu ns  p99 %10llu ns  accepted %8llu  "
                  "rejected %8llu",
                  adaptive ? "serve-aimd" : "serve-static",
                  static_cast<unsigned long long>(r.p50_ns),
                  static_cast<unsigned long long>(r.p99_ns),
                  static_cast<unsigned long long>(r.accepted),
                  static_cast<unsigned long long>(r.rejected));
      if (adaptive) {
        std::printf("  [watermark %zu raises %llu cuts %llu]",
                    r.aimd.watermark,
                    static_cast<unsigned long long>(r.aimd.raises),
                    static_cast<unsigned long long>(r.aimd.cuts));
      }
      std::printf("\n");
      if (sink.enabled()) {
        si::bench::BenchRecord rec;
        rec.system = adaptive ? "serve-aimd" : "serve-static";
        rec.point = "bench_contention aimd-overload";
        rec.threads = 2;
        // throughput deliberately 0: wall-clock serving numbers must never
        // trip the --max-regression gate.
        rec.req_latency_p50_ns = static_cast<double>(r.p50_ns);
        rec.req_latency_p99_ns = static_cast<double>(r.p99_ns);
        if (adaptive) {
          rec.aimd_watermark = static_cast<std::int64_t>(r.aimd.watermark);
          rec.aimd_raises = static_cast<std::int64_t>(r.aimd.raises);
          rec.aimd_cuts = static_cast<std::int64_t>(r.aimd.cuts);
          rec.aimd_last_p99_ns = static_cast<double>(r.aimd.last_p99_ns);
        }
        sink.add(std::move(rec));
      }
    }
    const double t = static_cast<double>(target_p99_ns);
    std::printf("aimd p99 = %.1fx target, static p99 = %.1fx target\n\n",
                p99_of[1] / t, p99_of[0] / t);
  }

  if (!sink.flush()) return 1;

  if (check) {
    // Acceptance: slim+shared >= 1.5x TTAS on the straggler storm at every
    // 40+-thread point (deterministic: virtual time).
    int failures = 0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] < 40) continue;
      const double slim = p_storm.throughput[0][i];
      const double ttas = p_storm.throughput[1][i];
      const double ratio = ttas > 0 ? slim / ttas : 0.0;
      std::printf("check: straggler-storm x%d slim/ttas = %.2f (need 1.50)\n",
                  threads[i], ratio);
      if (ratio < 1.5) ++failures;
    }
    if (failures > 0) {
      std::printf("check: FAILED (%d point(s) under 1.5x)\n", failures);
      return 1;
    }
    std::printf("check: OK\n");
  }
  return 0;
}
