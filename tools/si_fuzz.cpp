// si_fuzz — command-line front end for the deterministic schedule fuzzer.
//
// Batch mode runs N consecutive seeds against one simulated backend and
// reports every failing seed; replay mode re-runs a single seed and dumps
// the full event log plus the verifier's verdict, which is how a failure
// found in CI is debugged locally.
//
//   si_fuzz --backend=si-htm --schedules=500 --seed=1
//   si_fuzz --backend=raw-rot --schedules=200        # expect violations
//   si_fuzz --backend=raw-rot --replay=5013          # full log for one seed
//   si_fuzz --struct=skiplist --backend=si-htm       # map-structure workload
//
// Exits 0 when every schedule is clean, 1 otherwise.
#include <cstdio>
#include <exception>

#include "check/fuzzer.hpp"
#include "check/history.hpp"
#include "check/verify.hpp"
#include "runtime/backend.hpp"
#include "util/cli.hpp"

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--backend=si-htm|htm|silo|p8tm|raw-rot]\n"
               "          [--struct=ledger|skiplist|bst|btree]\n"
               "          [--schedules=N] [--seed=BASE] [--threads=N]\n"
               "          [--jitter=NS] [--virtual-ns=NS] [--kill-ns=NS]\n"
               "          [--replay=SEED]\n",
               prog);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    usage(argv[0]);
    return 0;
  }

  si::check::FuzzConfig cfg;
  try {
    cfg.backend = si::runtime::backend_from_string(cli.get("backend", "si-htm"));
    cfg.structure =
        si::check::fuzz_struct_from_string(cli.get("struct", "ledger"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }
  cfg.threads = static_cast<int>(cli.get_int("threads", cfg.threads));
  cfg.jitter_ns = cli.get_double("jitter", cfg.jitter_ns);
  cfg.virtual_ns = cli.get_double("virtual-ns", cfg.virtual_ns);
  cfg.straggler_kill_after_ns = cli.get_double("kill-ns", 0);

  if (cli.has("replay")) {
    const auto seed = static_cast<std::uint64_t>(cli.get_int("replay", 0));
    cfg.keep_history = true;
    si::check::ScheduleReport r;
    try {
      r = si::check::run_schedule(cfg, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    std::printf("# backend=%s struct=%s seed=%llu events=%zu invariants=%s\n",
                std::string(si::runtime::cli_name(cfg.backend)).c_str(),
                std::string(to_string(cfg.structure)).c_str(),
                static_cast<unsigned long long>(seed), r.history.size(),
                r.invariants_ok ? "ok" : "VIOLATED");
    std::fputs(si::check::dump(r.history).c_str(), stdout);
    std::fputs(describe(r.verify).c_str(), stdout);
    return r.ok() ? 0 : 1;
  }

  const auto base = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto n = static_cast<int>(cli.get_int("schedules", 200));
  si::check::FuzzSummary s;
  try {
    s = si::check::fuzz(cfg, base, n);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("backend=%s struct=%s schedules=%d failures=%d\n",
              std::string(si::runtime::cli_name(cfg.backend)).c_str(),
              std::string(to_string(cfg.structure)).c_str(), s.schedules,
              s.failures);
  if (!s.ok()) {
    std::printf("failing seeds:");
    for (auto seed : s.failing_seeds)
      std::printf(" %llu", static_cast<unsigned long long>(seed));
    std::printf("\nfirst failure (seed %llu):\n%s",
                static_cast<unsigned long long>(s.first_failure.seed),
                describe(s.first_failure.verify).c_str());
    std::printf("replay with: %s --backend=%s --struct=%s --replay=%llu\n",
                argv[0], std::string(si::runtime::cli_name(cfg.backend)).c_str(),
                std::string(to_string(cfg.structure)).c_str(),
                static_cast<unsigned long long>(s.first_failure.seed));
  }
  return s.ok() ? 0 : 1;
}
