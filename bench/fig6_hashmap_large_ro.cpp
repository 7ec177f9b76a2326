// Figure 6 — hash map, 90% read-only transactions, LARGE footprint
// (avg. 200 elements per bucket), low (1000 buckets) and high (10 buckets)
// contention; HTM vs SI-HTM.
//
// Paper's findings this harness should reproduce in shape:
//  * SI-HTM improves peak throughput by ~576% over HTM at low contention —
//    HTM's lookups exceed the 64-line TMCAM, abort for capacity and escalate
//    into SGL serialisation ("non-transactional" aborts), while SI-HTM runs
//    them read-only with no capacity bound;
//  * SI-HTM keeps scaling into SMT levels (up to ~32-40 threads), the first
//    HTM-based scheme to do so.
// `-struct skiplist|bst|btree` swaps the flat hash map for a zoo structure
// of the same footprint (elements = buckets x avg_chain, same RO mix);
// tree lookups touch O(log n) lines instead of 200-node chains, so these
// panels show HTM recovering once footprints fit — bench_maps' range scans
// are where the zoo re-breaks it.
#include "bench/common.hpp"
#include "bench/struct_opt.hpp"
#include "hashmap/workload.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const auto sweep = si::bench::Sweep::from_cli(cli);
  auto sink = si::bench::JsonSink::from_cli(cli, "fig6_hashmap_large_ro");
  const std::vector<si::bench::Backend> systems = {si::bench::Backend::kHtm,
                                                  si::bench::Backend::kSiHtm};

  const int zoo = si::bench::run_struct_panels(
      cli, "Fig.6", systems, sweep, /*avg_chain=*/200, /*ro_pct=*/90, &sink);
  if (zoo >= 0) return zoo;

  for (const bool high_contention : {false, true}) {
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = high_contention ? 10 : 1000;
    wcfg.avg_chain = 200;
    wcfg.ro_pct = 90;
    si::bench::run_panel(
        std::string("Fig.6 hashmap 90% RO, large footprint, ") +
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
