// The one instantiation point of the protocol cores: Tm<Substrate, Core>
// owns a substrate and the core transcribed over it (DESIGN.md section 5).
// Every protocol decision lives in the core, every environment decision in
// the substrate; Tm only wires the two together, so the simulator cannot
// drift from the library.
//
//   si::protocol::SiHtm cc({.max_threads = 8}, {.retries = 4});  // real
//   si::sim::SimSiHtm cc(eng, {.recorder = &rec});               // sim
//
// The real-thread aliases live here; the simulator aliases and the
// Backend-keyed dispatch live in sim/backends.hpp.
#pragma once

#include <concepts>
#include <utility>
#include <vector>

#include "protocol/htm_sgl_core.hpp"
#include "protocol/p8tm_core.hpp"
#include "protocol/real_substrate.hpp"
#include "protocol/sihtm_core.hpp"
#include "protocol/silo_core.hpp"
#include "util/stats.hpp"

namespace si::sim {
class SimEngine;
}

namespace si::protocol {

template <class Sub, template <class> class Core>
class Tm {
 public:
  using CoreConfig = typename Core<Sub>::Config;
  /// Per-attempt handle passed to transaction bodies.
  using Tx = typename Core<Sub>::Tx;

  /// Real threads: the substrate owns the HTM emulation and state array.
  explicit Tm(typename Sub::Config sub_cfg = {}, CoreConfig core_cfg = {})
    requires std::constructible_from<Sub, typename Sub::Config>
      : sub_(sub_cfg), core_(sub_, core_cfg) {}

  /// Simulator: the substrate runs on the engine's fibers.
  explicit Tm(si::sim::SimEngine& eng, typename Sub::Config sub_cfg = {},
              CoreConfig core_cfg = {})
    requires std::constructible_from<Sub, si::sim::SimEngine&,
                                     typename Sub::Config>
      : sub_(eng, sub_cfg), core_(sub_, core_cfg) {}

  /// Binds the calling thread to slot `tid` (real substrate only).
  void register_thread(int tid) { sub_.register_thread(tid); }

  /// Runs `body(Tx&)` as one transaction, retrying or falling back inside
  /// the core until it commits. `is_ro` selects the read-only path where the
  /// protocol has one.
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    core_.execute(is_ro, std::forward<Body>(body));
  }

  std::vector<si::util::ThreadStats>& thread_stats() {
    return sub_.thread_stats();
  }

  /// Tests reach the emulation (`htm()`) and the state array (`state(t)`)
  /// through here.
  Sub& substrate() noexcept { return sub_; }

 private:
  Sub sub_;
  Core<Sub> core_;
};

using SiHtm = Tm<RealSubstrate, SiHtmCore>;
using HtmSgl = Tm<RealSubstrate, HtmSglCore>;
using P8tm = Tm<RealSubstrate, P8tmCore>;
using Silo = Tm<RealSubstrate, SiloCore>;
using RawRot = Tm<RealSubstrate, RawRotCore>;  // UNSAFE: see RawRotCore

}  // namespace si::protocol
