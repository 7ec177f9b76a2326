// si_trace — transaction-lifecycle tracing front end (DESIGN.md section 8).
//
// Runs a workload with the obs tracer attached and dumps the ring buffers as
// a Chrome trace_event JSON file (load it in Perfetto / chrome://tracing),
// plus an optional terminal summary: top-N longest safety waits, the
// abort-cause timeline, and per-thread utilisation.
//
//   si_trace -backend si-htm -workload hashmap            # -> trace.json
//   si_trace -backend sihtm -workload tpcc -summary
//   si_trace -backend p8tm -threads 16 -ms 2 -out p8.json
//   si_trace -backend si-htm -real -ops 20000             # real threads
//
// The default substrate is the simulator: same seed, same machine, same
// trace, byte for byte — which is what CI's trace-smoke step relies on. The
// -real switch runs the same workload on OS threads over the P8-HTM
// emulation instead (timestamps then come from the wall clock and the trace
// is not reproducible, but the event taxonomy is identical).
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "hashmap/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "sim/backends.hpp"
#include "sim/engine.hpp"
#include "tpcc/workload.hpp"
#include "util/cli.hpp"

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [-backend si-htm|htm|p8tm|silo|raw-rot]\n"
               "          [-workload hashmap|tpcc] [-threads N] [-seed S]\n"
               "          [-ms VIRTUAL_MS] [-ro PCT] [-out FILE|-]\n"
               "          [-summary] [-top N]\n"
               "          [-real [-ops OPS_PER_THREAD]]\n",
               prog);
}

struct Options {
  si::runtime::Backend backend = si::runtime::Backend::kSiHtm;
  std::string workload = "hashmap";
  int threads = 8;
  std::uint64_t seed = 42;
  double virtual_ns = 1e6;
  unsigned ro_pct = 50;
  std::string out = "trace.json";
  bool summary = false;
  int top_n = 10;
  bool real = false;
  std::uint64_t ops = 20000;
};

/// Runs `workload->step(cc, tid)` to completion on the chosen substrate and
/// returns the committed-transaction total (for the closing status line).
template <typename MakeWorkload>
std::uint64_t run_traced(const Options& opt, const si::obs::ObsConfig& obs,
                         MakeWorkload&& make_workload) {
  if (opt.real) {
    si::runtime::RuntimeConfig rcfg;
    rcfg.backend = opt.backend;
    rcfg.max_threads = opt.threads;
    rcfg.obs = obs;
    si::runtime::Runtime rt(rcfg);
    auto workload = make_workload(opt.threads);
    const auto rs = si::runtime::run_fixed_ops(
        rt, opt.threads, opt.ops, [&](int tid) { workload->step(rt, tid); });
    return rs.totals.commits;
  }

  si::sim::SimMachineConfig mcfg;  // the paper's machine: 10 cores, SMT-8
  si::sim::SimEngine eng(mcfg, opt.threads);
  auto workload = make_workload(opt.threads);
  return si::sim::with_sim_backend(
      opt.backend, eng, {.obs = obs}, 10, [&](auto& cc) {
        return eng
            .run(opt.virtual_ns, [&](int tid) { workload->step(cc, tid); })
            .totals.commits;
      });
}

void print_metrics(const si::obs::MetricsSnapshot& m) {
  auto line = [](const char* name, const si::util::Histogram& h) {
    if (h.count() == 0) {
      std::printf("%-22s (no samples)\n", name);
      return;
    }
    std::printf("%-22s n=%-8llu p50=%-10llu p99=%-10llu max=%llu ns\n", name,
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.quantile(0.50)),
                static_cast<unsigned long long>(h.quantile(0.99)),
                static_cast<unsigned long long>(h.max()));
  };
  line("commit latency", m.commit_latency);
  line("safety wait", m.safety_wait);
  line("SGL hold", m.sgl_hold);
  if (m.retries.count() > 0) {
    std::printf("%-22s n=%-8llu p50=%-10llu p99=%-10llu max=%llu attempts\n",
                "attempts per commit",
                static_cast<unsigned long long>(m.retries.count()),
                static_cast<unsigned long long>(m.retries.quantile(0.50)),
                static_cast<unsigned long long>(m.retries.quantile(0.99)),
                static_cast<unsigned long long>(m.retries.max()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    usage(argv[0]);
    return 0;
  }

  Options opt;
  try {
    opt.backend = si::runtime::backend_from_string(cli.get("backend", "si-htm"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }
  opt.workload = cli.get("workload", opt.workload);
  if (opt.workload != "hashmap" && opt.workload != "tpcc") {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    usage(argv[0]);
    return 2;
  }
  opt.threads = static_cast<int>(cli.get_int("threads", opt.threads));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  opt.virtual_ns = cli.get_double("ms", opt.virtual_ns / 1e6) * 1e6;
  opt.ro_pct = static_cast<unsigned>(cli.get_int("ro", opt.ro_pct));
  opt.out = cli.get("out", opt.out);
  opt.summary = cli.has("summary");
  opt.top_n = static_cast<int>(cli.get_int("top", opt.top_n));
  opt.real = cli.has("real");
  opt.ops = static_cast<std::uint64_t>(cli.get_int("ops", 20000));

#if !SI_TRACE
  std::fprintf(stderr,
               "si_trace: built with SI_TRACE=0 (SIHTM_TRACE=OFF); the "
               "tracer is compiled out.\n");
  return 2;
#endif

  si::obs::Tracer tracer(opt.threads);
  si::obs::Metrics metrics(opt.threads);
  const si::obs::ObsConfig obs{&tracer, &metrics};

  std::uint64_t commits = 0;
  try {
    if (opt.workload == "hashmap") {
      si::hashmap::WorkloadConfig wcfg;
      wcfg.ro_pct = opt.ro_pct;
      wcfg.seed = opt.seed;
      commits = run_traced(opt, obs, [&](int threads) {
        return std::make_unique<si::hashmap::Workload>(wcfg, threads);
      });
    } else {
      si::tpcc::DbConfig dcfg;
      dcfg.warehouses = 2;
      dcfg.items = 1000;
      dcfg.customers_per_district = 300;
      dcfg.initial_orders_per_district = 200;
      dcfg.order_ring_bits = 10;
      commits = run_traced(opt, obs, [&](int threads) {
        return std::make_unique<si::tpcc::Workload>(
            dcfg, si::tpcc::Mix::standard(), threads, opt.seed);
      });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (opt.out == "-") {
    si::obs::write_chrome_trace(std::cout, tracer);
  } else {
    std::ofstream os(opt.out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 2;
    }
    si::obs::write_chrome_trace(os, tracer);
    if (!os) {
      std::fprintf(stderr, "write failed: %s\n", opt.out.c_str());
      return 2;
    }
  }

  std::uint64_t events = 0, dropped = 0;
  for (int t = 0; t < tracer.threads(); ++t) {
    events += tracer.emitted(t);
    dropped += tracer.dropped(t);
  }
  std::printf("backend=%s workload=%s substrate=%s threads=%d commits=%llu "
              "events=%llu dropped=%llu -> %s\n",
              std::string(to_string(opt.backend)).c_str(),
              opt.workload.c_str(), opt.real ? "real" : "sim", opt.threads,
              static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(dropped),
              opt.out == "-" ? "(stdout)" : opt.out.c_str());
  print_metrics(metrics.snapshot());
  if (opt.summary) {
    const auto s = si::obs::summarize_trace(tracer, opt.top_n);
    si::obs::print_summary(std::cout, s);
  }
  return 0;
}
