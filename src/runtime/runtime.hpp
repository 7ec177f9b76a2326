// Unified façade over the concurrency-control backends the paper evaluates
// (section 4) — HTM, SI-HTM, P8TM, Silo — plus the unsafe raw-ROT ablation
// (SI-HTM without the safety wait; see RawRotCore in protocol/sihtm_core.hpp).
//
// All five share one RealSubstrate; the selected core sits next to it in a
// variant. Workload code written against the generic transaction-handle
// concept (`read`, `write`, `read_bytes`, `write_bytes`) runs unmodified on
// any backend; `Runtime::execute` is one std::visit, so there is no virtual
// call on the access path.
#pragma once

#include <stdexcept>
#include <variant>
#include <vector>

#include "check/history.hpp"
#include "obs/obs.hpp"
#include "protocol/retry_budget.hpp"
#include "protocol/tm.hpp"
#include "runtime/backend.hpp"
#include "util/stats.hpp"

namespace si::runtime {

struct RuntimeConfig {
  Backend backend = Backend::kSiHtm;
  si::p8::HtmConfig htm{};
  int max_threads = 80;
  int retries = 10;

  /// Contention-aware retry budgets (protocol/retry_budget.hpp): forwarded
  /// to the HTM / SI-HTM / P8TM cores. Silo retries until commit and raw-ROT
  /// never falls back, so the budget does not apply to them.
  si::protocol::RetryBudgetConfig retry_budget{};

  /// Forwarded to the selected backend's config (null: recording off).
  si::check::HistoryRecorder* recorder = nullptr;

  /// Forwarded to the selected backend's config (empty: tracing off).
  si::obs::ObsConfig obs{};

  /// Post-commit hook, invoked on the committing thread after execute()
  /// returns (i.e. after the transaction committed — every backend retries
  /// internally until commit). C-style so RuntimeConfig stays trivially
  /// copyable. The durability tier (serve/service.hpp) uses it as the
  /// group-commit doorbell: the hook fires right after SI-HTM's safety wait
  /// completes, which is exactly where a batched fsync piggybacks for free
  /// (DESIGN.md section 14). Must be cheap and must not re-enter execute().
  struct CommitHook {
    void (*fn)(void* ctx, bool is_ro) = nullptr;
    void* ctx = nullptr;
  };
  CommitHook on_commit{};
};

class Runtime {
 public:
  explicit Runtime(const RuntimeConfig& cfg)
      : cfg_(cfg),
        sub_({.htm = cfg.htm, .max_threads = cfg.max_threads,
              .recorder = cfg.recorder, .obs = cfg.obs}),
        core_(make_core(cfg, sub_)) {}

  Backend backend() const noexcept { return cfg_.backend; }

  /// The configuration the runtime was built with. Phase hygiene: the
  /// driver's reset_phase_counters() reaches the obs sinks through here.
  const RuntimeConfig& config() const noexcept { return cfg_; }

  void register_thread(int tid) { sub_.register_thread(tid); }

  /// Runs `body(auto& tx)` as one transaction on the configured backend.
  /// The body must be a generic callable (it is instantiated once per
  /// backend transaction-handle type).
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    std::visit([&](auto& core) { core.execute(is_ro, body); }, core_);
    if (cfg_.on_commit.fn != nullptr) cfg_.on_commit.fn(cfg_.on_commit.ctx, is_ro);
  }

  std::vector<si::util::ThreadStats>& thread_stats() {
    return sub_.thread_stats();
  }

 private:
  using Sub = si::protocol::RealSubstrate;
  using Core = std::variant<si::protocol::HtmSglCore<Sub>, si::protocol::SiHtmCore<Sub>,
                            si::protocol::P8tmCore<Sub>, si::protocol::SiloCore<Sub>,
                            si::protocol::RawRotCore<Sub>>;

  /// Builds the selected core in place. Silo retries until commit and
  /// raw-ROT never falls back, so neither takes the retry settings.
  static Core make_core(const RuntimeConfig& cfg, Sub& sub) {
    using namespace si::protocol;
    switch (cfg.backend) {
      case Backend::kHtm:
        return Core(std::in_place_type<HtmSglCore<Sub>>, sub,
                    HtmSglCoreConfig{cfg.retries, cfg.retry_budget});
      case Backend::kSiHtm:
        return Core(std::in_place_type<SiHtmCore<Sub>>, sub,
                    SiHtmCoreConfig{cfg.retries, cfg.retry_budget});
      case Backend::kP8tm:
        return Core(std::in_place_type<P8tmCore<Sub>>, sub,
                    P8tmCoreConfig{cfg.retries, cfg.retry_budget});
      case Backend::kSilo:
        return Core(std::in_place_type<SiloCore<Sub>>, sub);
      case Backend::kRawRot:
        return Core(std::in_place_type<RawRotCore<Sub>>, sub);
    }
    throw std::logic_error("unreachable backend");
  }

  RuntimeConfig cfg_;
  Sub sub_;
  Core core_;
};

}  // namespace si::runtime
