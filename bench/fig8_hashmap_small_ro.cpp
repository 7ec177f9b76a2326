// Figure 8 — hash map, 90% read-only transactions, SMALL footprint
// (avg. 50 elements per bucket), low and high contention; HTM vs SI-HTM.
//
// Paper's findings this harness should reproduce in shape:
//  * with transactions that mostly fit the TMCAM, SI-HTM cannot beat HTM —
//    the safety wait taxes update transactions without buying capacity
//    relief;
//  * SI-HTM still behaves well in SMT territory at low contention (TMCAM
//    sharing hurts HTM first).
// `-struct skiplist|bst|btree` runs the same 90% RO mix over a zoo structure
// of matching (small) footprint (see bench/struct_opt.hpp).
#include "bench/common.hpp"
#include "bench/struct_opt.hpp"
#include "hashmap/workload.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const auto sweep = si::bench::Sweep::from_cli(cli);
  auto sink = si::bench::JsonSink::from_cli(cli, "fig8_hashmap_small_ro");
  const std::vector<si::bench::Backend> systems = {si::bench::Backend::kHtm,
                                                  si::bench::Backend::kSiHtm};

  const int zoo = si::bench::run_struct_panels(
      cli, "Fig.8", systems, sweep, /*avg_chain=*/50, /*ro_pct=*/90, &sink);
  if (zoo >= 0) return zoo;

  for (const bool high_contention : {false, true}) {
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = high_contention ? 10 : 1000;
    wcfg.avg_chain = 50;
    wcfg.ro_pct = 90;
    si::bench::run_panel(
        std::string("Fig.8 hashmap 90% RO, small footprint, ") +
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
