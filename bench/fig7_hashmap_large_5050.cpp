// Figure 7 — hash map, 50% read-only / 50% update transactions, LARGE
// footprint (avg. 200 elements per bucket), low and high contention;
// HTM vs SI-HTM.
//
// Paper's findings this harness should reproduce in shape:
//  * at low contention SI-HTM still wins (~10% peak gain): update
//    transactions run as ROTs whose large *read* footprints are free, only
//    their small write sets are capacity-bounded;
//  * at high contention SI-HTM falls behind HTM: the quiescence phase delays
//    aborting transactions, postponing the SGL fall-back.
// `-struct skiplist|bst|btree` runs the same 50/50 mix over a zoo structure
// of matching footprint (see bench/struct_opt.hpp).
#include "bench/common.hpp"
#include "bench/struct_opt.hpp"
#include "hashmap/workload.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const auto sweep = si::bench::Sweep::from_cli(cli);
  auto sink = si::bench::JsonSink::from_cli(cli, "fig7_hashmap_large_5050");
  const std::vector<si::bench::Backend> systems = {si::bench::Backend::kHtm,
                                                  si::bench::Backend::kSiHtm};

  const int zoo = si::bench::run_struct_panels(
      cli, "Fig.7", systems, sweep, /*avg_chain=*/200, /*ro_pct=*/50, &sink);
  if (zoo >= 0) return zoo;

  for (const bool high_contention : {false, true}) {
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = high_contention ? 10 : 1000;
    wcfg.avg_chain = 200;
    wcfg.ro_pct = 50;
    si::bench::run_panel(
        std::string("Fig.7 hashmap 50% RO, large footprint, ") +
            (high_contention ? "HIGH contention (10 buckets)"
                             : "LOW contention (1000 buckets)"),
        systems, sweep, /*tx_scale=*/1e6,
        [&](int threads) {
          return std::make_unique<si::hashmap::Workload>(wcfg, threads);
        },
        &sink, cli.get("trace"));
  }
  return sink.flush() ? 0 : 1;
}
