// The protocol cores on the simulator: Tm<SimSubstrate, Core> under the
// names the benches and the fuzzer use, plus the one Backend-keyed dispatch
// every simulated front end goes through (DESIGN.md section 5).
#pragma once

#include <stdexcept>
#include <type_traits>

#include "protocol/sim_substrate.hpp"
#include "protocol/tm.hpp"
#include "runtime/backend.hpp"
#include "sim/engine.hpp"

namespace si::sim {

using SimSiHtm = si::protocol::Tm<si::protocol::SimSubstrate, si::protocol::SiHtmCore>;
using SimHtmSgl = si::protocol::Tm<si::protocol::SimSubstrate, si::protocol::HtmSglCore>;
using SimP8tm = si::protocol::Tm<si::protocol::SimSubstrate, si::protocol::P8tmCore>;
using SimSilo = si::protocol::Tm<si::protocol::SimSubstrate, si::protocol::SiloCore>;
using SimRawRot = si::protocol::Tm<si::protocol::SimSubstrate, si::protocol::RawRotCore>;

/// Builds the simulated backend `b` on `eng` and returns `fn(cc)`. `retries`
/// is the ROT budget of the cores that have one (Silo retries until commit).
/// Only SI-HTM arms the straggler guard, so `cfg.straggler_kill_after_ns`
/// is inert for the others.
template <typename Fn>
std::invoke_result_t<Fn&, SimSiHtm&> with_sim_backend(
    si::runtime::Backend b, SimEngine& eng, si::protocol::SimSubstrateConfig cfg,
    int retries, Fn&& fn) {
  using si::runtime::Backend;
  switch (b) {
    case Backend::kHtm: {
      SimHtmSgl cc(eng, cfg, {.retries = retries});
      return fn(cc);
    }
    case Backend::kSiHtm: {
      SimSiHtm cc(eng, cfg, {.retries = retries});
      return fn(cc);
    }
    case Backend::kP8tm: {
      SimP8tm cc(eng, cfg, {.retries = retries});
      return fn(cc);
    }
    case Backend::kSilo: {
      SimSilo cc(eng, cfg);
      return fn(cc);
    }
    case Backend::kRawRot: {
      SimRawRot cc(eng, cfg, {.retries = retries});
      return fn(cc);
    }
  }
  throw std::logic_error("unreachable backend");
}

}  // namespace si::sim
