// Figure 9 — TPC-C, standard mix (-s 4 -d 4 -o 4 -p 43 -r 45), low and high
// contention; HTM vs SI-HTM vs P8TM vs Silo.
//
// Paper's findings this harness should reproduce in shape:
//  * SI-HTM improves peak throughput by ~48% over the best alternative (HTM)
//    around 8 threads;
//  * beyond SMT-2 SI-HTM shows capacity pressure again (TMCAM shared among
//    SMT threads now bounds the *write* sets of the update-heavy mix);
//  * Silo pays per-access software instrumentation; P8TM pays per-read
//    instrumentation on update transactions.
//
// Contention knob: warehouses = 10 (low; one per core) vs 1 (high; every
// terminal hammers the same district hotspots).
#include "bench/common.hpp"
#include "tpcc/workload.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  auto sweep = si::bench::Sweep::from_cli(cli);
  // TPC-C transactions are ~10x longer than hash-map ones; simulate a longer
  // windows by default so low thread counts still commit enough work.
  if (!cli.has("ms")) sweep.virtual_ns = 5e6;
  auto sink = si::bench::JsonSink::from_cli(cli, "fig9_tpcc_standard");
  const std::vector<si::bench::Backend> systems = {
      si::bench::Backend::kHtm, si::bench::Backend::kSiHtm,
      si::bench::Backend::kP8tm, si::bench::Backend::kSilo};

  for (const bool high_contention : {false, true}) {
    si::tpcc::DbConfig dcfg;
    dcfg.warehouses = high_contention ? 1 : 10;
    dcfg.items = static_cast<int>(cli.get_int("items", 1000));
    dcfg.customers_per_district = static_cast<int>(cli.get_int("customers", 300));
    dcfg.initial_orders_per_district = static_cast<int>(cli.get_int("orders", 200));
    dcfg.order_ring_bits = 10;  // 1024-order window per district (memory-friendly)
    si::bench::run_panel(
        std::string("Fig.9 TPC-C standard mix (-s4 -d4 -o4 -p43 -r45), ") +
            (high_contention ? "HIGH contention (1 warehouse)"
                             : "LOW contention (10 warehouses)"),
        systems, sweep, /*tx_scale=*/1e4,
        [&](int threads) {
          return std::make_unique<si::tpcc::Workload>(
              dcfg, si::tpcc::Mix::standard(), threads);
        },
        &sink, cli.get("trace"));
  }
  return sink.flush() ? 0 : 1;
}
