// In-process driver for the serving benchmark: drives serve::Service<App>
// through submit() from one thread, with no socket in the path.
//
//   pb_inproc [spec flags: -app kv|map -elements -buckets -get-pm -range-pm
//              -rate -seed]
//             [-durability off|buffered|fsync -log-dir D]
//             [-rate-s 4] [-capacity-s 2] [-spans-out FILE]
//
// Each phase runs on its own Service (2 shards, SI-HTM) over the same app.
// The phases alternate for kRounds rounds that split -rate-s and
// -capacity-s, so that every figure samples the whole run; each phase
// discards its first kWarmupS.
//   1. open loop at -rate: the generator sleeps until each Poisson arrival;
//      latency runs from the intended submit time to the completion
//      callback. The p50 pools all rounds, the p99 is the median of the
//      rounds' p99s. The generator and this Service's threads share one
//      CPU: the highest in this process's affinity mask.
//   2. closed loop for capacity on all CPUs: kWindow requests in flight; the
//      submitter sleeps while the window is full. Completions are counted in
//      100 ms windows; the figure is the median window over all rounds.
// Every answer is checked against the oracle (common.hpp).
//
// Both phases are traced: the app is wrapped so each App::execute is a child
// span of its request span, the runtime records into an obs::Metrics sink,
// and the runtime and WAL counters are read after the drain. Each round
// starts with an untraced capacity pass, the reference for the tracing
// overhead. With durability on, the log is then scanned and replayed into a
// fresh app. Spans stay in memory and are written to -spans-out at exit.
// Prints one JSON line; exit 1 on any wrong answer or a recovery mismatch.
#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "durability/recover.hpp"
#include "maps/skiplist.hpp"
#include "obs/metrics.hpp"
#include "serve/kv_app.hpp"
#include "serve/map_app.hpp"
#include "serve/service.hpp"

namespace {

using namespace perfbench;
namespace serve = si::serve;

/// A span around App::execute, keyed by the request id it served.
struct ExecSpan {
  std::uint64_t id = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Forwards to App; when recording, times each execute as a child span of
/// the request. Spans are per worker tid, so recording takes no lock.
template <typename App>
class Timed {
 public:
  Timed(App& app, int shards, bool record)
      : app_(app), record_(record), spans_(static_cast<std::size_t>(shards)) {}

  void execute(si::runtime::Runtime& rt, int tid, const serve::Request& req,
               serve::Response* resp) {
    if (!record_) {
      app_.execute(rt, tid, req, resp);
      return;
    }
    ExecSpan s;
    s.id = req.id;
    s.t0 = now_ns();
    app_.execute(rt, tid, req, resp);
    s.t1 = now_ns();
    spans_[static_cast<std::size_t>(tid)].push_back(s);
  }

  static bool logged_op(std::uint16_t op) { return App::logged_op(op); }

  /// Read only after the service stopped.
  const std::vector<std::vector<ExecSpan>>& spans() const { return spans_; }

 private:
  App& app_;
  bool record_;
  std::vector<std::vector<ExecSpan>> spans_;
};

std::atomic<std::uint64_t> g_completed{0};
/// Completion count at which the sleeping closed-loop submitter is woken.
std::atomic<std::uint64_t> g_wake_at{~std::uint64_t{0}};

void on_done(void* ctx, const serve::Response& resp) {
  auto* r = static_cast<Rec*>(ctx);
  r->done_ns = now_ns();
  r->value = resp.value;
  r->status = static_cast<std::uint8_t>(resp.status);
  r->answers.fetch_add(1, std::memory_order_release);
  if (g_completed.fetch_add(1) + 1 == g_wake_at.load()) g_completed.notify_all();
}

constexpr int kRounds = 5;              ///< phase repetitions; figures are medians
constexpr std::uint64_t kWindow = 64;  ///< closed-loop requests in flight
constexpr double kWarmupS = 0.1;       ///< discarded at the start of each phase

struct Options {
  double rate_s = 4;
  double capacity_s = 2;
  std::string spans_out;
};

/// Submits the stream's requests to one Service and waits for their answers.
template <typename Svc>
class Driver {
 public:
  Driver(Svc& svc, Stream& stream, std::deque<Rec>& recs)
      : svc_(svc), stream_(stream), recs_(recs) {}

  /// Open loop: sleeps until each arrival; returns after every answer.
  void open_loop(double warmup_s, double seconds, int round) {
    TightTimerSlack slack;
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t warm_end = start + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::int64_t end = warm_end + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t due = start; due < end; due += stream_.gap_ns()) {
      sleep_until_ns(due);
      submit(due, due < warm_end ? kWarmup : kMeasured, round);
    }
    drain();
  }

  /// Closed loop with a fixed window; appends completions per second in each
  /// 100 ms window after the warm-up to `per_window`.
  void closed_loop(double warmup_s, double seconds, std::vector<double>* per_window) {
    const std::size_t first = recs_.size();
    const std::int64_t from = now_ns() + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::int64_t end = from + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t now = now_ns(); now < end; now = now_ns()) {
      if (submitted_ - g_completed.load() < kWindow) {
        submit(now, now < from ? kWarmup : kCapacity, 0);
        continue;
      }
      // Window full: sleep until half of it has completed.
      const std::uint64_t target = submitted_ - kWindow / 2;
      g_wake_at.store(target);
      for (std::uint64_t c = g_completed.load(); c < target; c = g_completed.load()) {
        g_completed.wait(c);
      }
    }
    g_wake_at.store(~std::uint64_t{0});
    drain();
    constexpr std::int64_t kWindowNs = 100'000'000;
    const std::size_t base = per_window->size();
    per_window->resize(base + static_cast<std::size_t>((end - from) / kWindowNs), 0.0);
    for (std::size_t i = first; i < recs_.size(); ++i) {
      const std::int64_t w = (recs_[i].done_ns - from) / kWindowNs;
      if (recs_[i].done_ns >= from && base + static_cast<std::size_t>(w) < per_window->size()) {
        (*per_window)[base + static_cast<std::size_t>(w)] += 1e9 / kWindowNs;
      }
    }
  }

  /// Shard depth seen by each measured open-loop submit.
  const std::vector<double>& depths() const { return depths_; }

 private:
  void submit(std::int64_t due, Phase phase, int round) {
    Rec& r = recs_.emplace_back();
    r.due_ns = due;
    r.phase = phase;
    r.round = static_cast<std::uint8_t>(round);
    stream_.next(&r);
    serve::Request req;
    req.id = recs_.size() - 1;
    req.key = r.key;
    req.arg = r.arg;
    req.op = r.op;
    req.ro = r.op == kGet || r.op == kRange;
    req.done = on_done;
    req.ctx = &r;
    r.sent_ns = now_ns();
    const serve::SubmitResult sr = svc_.submit(req);
    ++submitted_;
    if (!sr.accepted()) {
      // Refused at admission: no completion will come, so record the refusal
      // as the answer; the check counts it.
      r.done_ns = r.sent_ns;
      r.status = static_cast<std::uint8_t>(serve::Status::kRejected);
      r.answers.fetch_add(1, std::memory_order_release);
      g_completed.fetch_add(1);
    }
    if (phase == kMeasured) depths_.push_back(static_cast<double>(sr.depth));
  }

  void drain() {
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (g_completed.load() < submitted_ && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  Svc& svc_;
  Stream& stream_;
  std::deque<Rec>& recs_;
  std::uint64_t submitted_ = g_completed.load();
  std::vector<double> depths_;
};

/// Counters of the traced services, summed after each one drained.
struct LayerTotals {
  std::uint64_t commits = 0, sgl_commits = 0, aborts = 0, capacity_aborts = 0;
  si::util::FastPathStats fast_path;
  serve::DurabilityStats wal;
  std::vector<ExecSpan> spans;

  template <typename App, typename Svc>
  void add(Svc& svc, const Timed<App>& timed) {
    for (const auto& ts : svc.runtime().thread_stats()) {
      commits += ts.commits;
      sgl_commits += ts.sgl_commits;
      for (std::uint64_t a : ts.aborts_by_cause) aborts += a;
      capacity_aborts += ts.aborts_by_cause[static_cast<int>(si::util::AbortCause::kCapacity)];
      fast_path += ts.fast_path;
    }
    const serve::DurabilityStats d = svc.durability_stats();
    wal.appends += d.appends;
    wal.bytes += d.bytes;
    wal.flushes += d.flushes;
    for (const auto& per_tid : timed.spans()) spans.insert(spans.end(), per_tid.begin(), per_tid.end());
  }
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Writes the open-loop phase's spans, one JSON object per line: the request
/// span (submit to completion) and its App::execute child.
void write_spans(const std::string& path, const std::deque<Rec>& recs,
                 const std::vector<std::int64_t>& exec_t0,
                 const std::vector<std::int64_t>& exec_t1) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    if (r.phase != kMeasured || exec_t0[i] < 0) continue;
    out << "{\"id\": " << i << ", \"name\": \"service.request\", \"op\": \""
        << op_class(r.op) << "\", \"start_ns\": " << r.sent_ns
        << ", \"end_ns\": " << r.done_ns << ", \"parent\": null}\n";
    out << "{\"id\": " << i << ", \"name\": \"app.execute\", \"start_ns\": "
        << exec_t0[i] << ", \"end_ns\": " << exec_t1[i]
        << ", \"parent\": \"service.request\"}\n";
  }
}

/// Per-layer figures of a traced run (the README lists what each moves).
void report_layers(JsonLine* out, const Options& opt, const std::deque<Rec>& recs,
                   const LayerTotals& t, const si::obs::Metrics& metrics,
                   const std::vector<double>& depths) {
  std::vector<std::int64_t> exec_t0(recs.size(), -1), exec_t1(recs.size(), -1);
  for (const ExecSpan& s : t.spans) {
    exec_t0[s.id] = s.t0;
    exec_t1[s.id] = s.t1;
  }
  // Service self time: the request span minus its App::execute child.
  std::vector<double> wait;
  std::map<std::string, std::vector<double>> exec;
  for (const char* cls : {"get", "update", "range"}) exec[cls];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    if (exec_t0[i] < 0 || r.done_ns == 0 || r.phase == kWarmup) continue;
    const double exec_us = static_cast<double>(exec_t1[i] - exec_t0[i]) / 1e3;
    if (r.phase == kMeasured) {
      wait.push_back(static_cast<double>(r.done_ns - r.sent_ns) / 1e3 - exec_us);
    }
    exec[op_class(r.op)].push_back(exec_us);
  }
  out->num("wait_p50_us", percentile(wait, 0.50));
  out->num("wait_p99_us", percentile(wait, 0.99));
  for (auto& [cls, v] : exec) out->num("app_" + cls + "_us", mean(v));
  out->num("queue_depth_mean", mean(depths));

  const double kcommits = static_cast<double>(t.commits) / 1e3;
  out->num("aborts_per_kcommit", ratio(static_cast<double>(t.aborts), kcommits));
  out->num("capacity_aborts_per_kcommit", ratio(static_cast<double>(t.capacity_aborts), kcommits));
  out->num("sgl_commit_pct", 100.0 * ratio(static_cast<double>(t.sgl_commits), static_cast<double>(t.commits)));
  out->num("owned_hit_pct", 100.0 * t.fast_path.hit_rate());
  const si::obs::MetricsSnapshot snap = metrics.snapshot();
  out->num("safety_wait_mean_us", snap.safety_wait.mean() / 1e3);
  out->num("sgl_hold_mean_us", snap.sgl_hold.mean() / 1e3);
  out->num("durable_ack_mean_us", snap.durable_ack.mean() / 1e3);

  const double appends = static_cast<double>(t.wal.appends);
  out->num("records_per_flush", ratio(appends, static_cast<double>(t.wal.flushes)));
  // A user byte is one of the 16 bytes of key and argument an update carries.
  out->num("bytes_per_user_byte", ratio(static_cast<double>(t.wal.bytes), 16 * appends));

  if (!opt.spans_out.empty()) write_spans(opt.spans_out, recs, exec_t0, exec_t1);
}

/// The oracle's preload must be the app's: compares every key's value.
template <typename App>
bool preload_matches(App& app, const Spec& spec) {
  const Oracle oracle(spec);
  for (std::uint64_t k = 0; k <= spec.key_space; ++k) {
    std::uint64_t value = 0;
    if constexpr (std::is_same_v<App, serve::KvApp>) {
      si::maps::DirectTx tx;
      app.map().lookup(tx, k, &value);
    } else {
      si::maps::DirectCC cc;
      si::maps::map_get(app.map(), cc, k, &value);
    }
    if (value != oracle.get(k)) {
      std::fprintf(stderr, "pb_inproc: oracle preload differs at key %llu\n",
                   static_cast<unsigned long long>(k));
      return false;
    }
  }
  return true;
}

/// Replays the log into a freshly seeded app, timing the scan and the replay.
/// True when every acked update was replayed and none failed.
template <typename App>
bool recover(JsonLine* out, const std::string& dir, std::uint64_t acked,
             const std::function<std::unique_ptr<App>()>& make_app) {
  std::unique_ptr<App> fresh = make_app();
  si::runtime::RuntimeConfig rcfg;
  rcfg.max_threads = 1;
  si::runtime::Runtime rt(rcfg);
  std::vector<si::durability::ShardScan> scans;
  std::string err;
  const std::int64_t t0 = now_ns();
  const bool scanned = si::durability::scan_dir(dir, &scans, &err);
  const std::int64_t t1 = now_ns();
  const si::durability::RecoveryReport rep = si::durability::recover_into(*fresh, rt, dir);
  const double replay_s = seconds_since(t1);
  out->num("recover_scan_s", static_cast<double>(t1 - t0) / 1e9);
  out->num("recover_replay_s", replay_s);
  out->num("recover_krecords_per_s", static_cast<double>(rep.replayed) / replay_s / 1e3);
  out->num("recover_replayed", static_cast<double>(rep.replayed));
  if (!scanned || !rep.ok) std::fprintf(stderr, "pb_inproc: recovery: %s%s\n", err.c_str(), rep.error.c_str());
  return scanned && rep.ok && rep.failed == 0 && rep.replayed == acked;
}

template <typename App>
int run(const si::util::Cli& cli, const Spec& spec, const Options& opt,
        const std::function<std::unique_ptr<App>()>& make_app) {
  JsonLine out;
  const std::int64_t t_seed = now_ns();
  std::unique_ptr<App> app = make_app();
  out.num("seed_s", seconds_since(t_seed));
  if (!preload_matches(*app, spec)) return 2;

  serve::ServiceConfig cfg;
  cfg.shards = 2;
  if (!si::durability::mode_from_string(cli.get("durability", "off"), &cfg.durability.mode)) {
    std::fprintf(stderr, "pb_inproc: unknown durability mode\n");
    return 2;
  }
  cfg.durability.dir = cli.get("log-dir", "");

  cpu_set_t all_cpus, latency_cpus;
  ::sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  CPU_ZERO(&latency_cpus);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all_cpus)) {
      CPU_SET(cpu, &latency_cpus);
      break;
    }
  }

  Stream stream(spec);
  std::deque<Rec> recs;
  si::obs::Metrics metrics(cfg.shards);
  LayerTotals layers;
  using Svc = serve::Service<Timed<App>>;
  // One Service per phase, all over the same app and log directory. A new
  // Service's threads inherit the caller's CPU mask, so the mask is set
  // before it is built.
  auto phase = [&](bool traced, const cpu_set_t& cpus, auto&& body) {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(cpus), &cpus);
    serve::ServiceConfig c = cfg;
    if (traced) c.runtime.obs.metrics = &metrics;
    Timed<App> timed(*app, c.shards, traced);
    Svc svc(timed, c);
    Driver<Svc> drv(svc, stream, recs);
    body(drv);
    svc.stop();
    if (traced) layers.add(svc, timed);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(all_cpus), &all_cpus);
  };

  std::vector<double> reference_windows, windows, depths;
  const double rate_s = opt.rate_s / kRounds, capacity_s = opt.capacity_s / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    phase(false, all_cpus, [&](Driver<Svc>& d) {
      d.closed_loop(kWarmupS, capacity_s, &reference_windows);
    });
    phase(true, latency_cpus, [&](Driver<Svc>& d) {
      d.open_loop(kWarmupS, rate_s, round);
      depths.insert(depths.end(), d.depths().begin(), d.depths().end());
    });
    phase(true, all_cpus, [&](Driver<Svc>& d) {
      d.closed_loop(kWarmupS, capacity_s, &windows);
    });
  }
  const double kops = percentile(windows, 0.5) / 1e3;
  const double reference_kops = percentile(reference_windows, 0.5) / 1e3;

  const CheckResult check = check_ledger(spec, recs);
  out.num("sent", static_cast<double>(recs.size()));
  report_check(&out, check);
  report_latency(&out, recs);
  report_lateness(&out, recs);
  out.num("capacity_kops", kops);
  out.num("keys_per_range", keys_per_range(recs));
  out.num("trace_overhead_pct", 100.0 * (reference_kops - kops) / reference_kops);
  report_layers(&out, opt, recs, layers, metrics, depths);
  bool recovered = true;
  if (cfg.durability.enabled()) {
    recovered = recover<App>(&out, cfg.durability.dir, check.acked_updates, make_app);
  }
  out.num("recovered_ok", recovered ? 1 : 0);
  out.print();
  return check.errors() == 0 && recovered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const Spec spec = Spec::from_cli(cli);
  Options opt;
  opt.rate_s = cli.get_double("rate-s", opt.rate_s);
  opt.capacity_s = cli.get_double("capacity-s", opt.capacity_s);
  opt.spans_out = cli.get("spans-out", "");

  if (spec.map) {
    using App = serve::MapApp<si::maps::SkipList>;
    return run<App>(cli, spec, opt, [&spec] {
      serve::MapAppConfig acfg;
      acfg.seed_elements = spec.elements;
      acfg.key_space = spec.key_space;
      acfg.seed = kAppSeed;
      acfg.scan_cap = kScanCap;
      return std::make_unique<App>(acfg, 2);
    });
  }
  return run<serve::KvApp>(cli, spec, opt, [&spec] {
    serve::KvAppConfig acfg;
    acfg.buckets = spec.buckets;
    acfg.seed_elements = spec.elements;
    acfg.key_space = spec.key_space;
    acfg.seed = kAppSeed;
    return std::make_unique<serve::KvApp>(acfg, 2);
  });
}
