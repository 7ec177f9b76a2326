// Shared pieces of the serving benchmark's two load generators (client.cpp
// over TCP, inproc.cpp through Service::submit): the seeded request stream,
// the per-request ledger, the sequential oracle that checks every answer,
// exact percentiles and a flat JSON line writer.
//
// Correctness model. Keys route to one shard (and, over TCP, to one
// connection), and one thread generates the whole stream, so the operations
// on any one key execute in generation order. Point operations therefore have
// exactly one correct answer, which the oracle computes by replaying the
// stream in order over a model seeded like the server's app. A range scan
// spans keys of both shards; a key whose update was in flight while the scan
// ran may be seen in either state, so such scans are checked against a count
// bracket instead of exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include <sys/prctl.h>

#include "maps/maps.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr std::uint16_t kGet = 0;
inline constexpr std::uint16_t kPut = 1;
inline constexpr std::uint16_t kDel = 2;
inline constexpr std::uint16_t kRange = 3;

/// Seed both apps use for their preload (KvAppConfig/MapAppConfig default,
/// which si_serve does not override). The request stream has its own seed.
inline constexpr std::uint64_t kAppSeed = 42;

/// MapApp's range hit budget: si_serve's default -scan-cap.
inline constexpr std::size_t kScanCap = 128;

/// Keys covered by one range request.
inline constexpr std::uint64_t kSpan = 64;

/// CLOCK_MONOTONIC in ns: the clock clock_nanosleep and timerfd sleep on.
inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Tightens the calling thread's timer slack to 1 ns for the guard's life, so
/// a sleeping generator wakes on time instead of up to 50 us late. Threads
/// spawned meanwhile inherit it, so construct servers outside the guard.
class TightTimerSlack {
 public:
  TightTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }
  ~TightTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 0UL, 0, 0, 0); }
  TightTimerSlack(const TightTimerSlack&) = delete;
  TightTimerSlack& operator=(const TightTimerSlack&) = delete;
};

/// What the server preloads and what the stream asks of it.
struct Spec {
  bool map = false;             ///< MapApp<SkipList> (else KvApp over HashMap)
  std::uint64_t elements = 20000;
  std::uint64_t key_space = 40000;  ///< si_serve uses 2 x elements
  std::size_t buckets = 1000;       ///< KvApp only
  int get_pm = 950;                 ///< per mille of gets
  int range_pm = 0;                 ///< per mille of ranges; the rest is put/del
  double rate = 10000;              ///< open-loop arrivals per second
  std::uint64_t seed = 1;           ///< request-stream seed

  static Spec from_cli(const si::util::Cli& cli) {
    Spec s;
    s.map = cli.get("app", "kv") == "map";
    s.elements = static_cast<std::uint64_t>(cli.get_int("elements", 20000));
    s.key_space = 2 * s.elements;
    s.buckets = static_cast<std::size_t>(cli.get_int("buckets", 1000));
    s.get_pm = static_cast<int>(cli.get_int("get-pm", 950));
    s.range_pm = static_cast<int>(cli.get_int("range-pm", 0));
    s.rate = cli.get_double("rate", 10000);
    s.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    return s;
  }
};

enum Phase : std::uint8_t { kWarmup = 0, kMeasured = 1, kCapacity = 2 };

/// One request's ledger entry. Written by the generator (due/sent/op/key/arg)
/// and by the single completion of the request (done/value/status); `answers`
/// counts completions so duplicates show.
struct Rec {
  std::int64_t due_ns = 0;   ///< intended send time (open loop) or submit time
  std::int64_t sent_ns = 0;  ///< when the request actually left the generator
  std::int64_t done_ns = 0;  ///< when its answer was observed
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
  std::uint64_t value = 0;
  std::uint16_t op = 0;
  std::uint8_t status = 0;
  std::uint8_t phase = kWarmup;
  std::uint8_t conn = 0;   ///< TCP connection that carried it
  std::uint8_t round = 0;  ///< in-process measurement round
  std::atomic<std::uint8_t> answers{0};
};

/// The seeded request stream: op mix, uniform keys and Poisson gaps.
class Stream {
 public:
  explicit Stream(const Spec& spec) : spec_(spec), rng_(spec.seed) {}

  void next(Rec* r) {
    const int roll = static_cast<int>(rng_.below(1000));
    r->key = rng_.below(spec_.key_space) + (spec_.map ? 1 : 0);
    if (roll < spec_.get_pm) {
      r->op = kGet;
    } else if (roll < spec_.get_pm + spec_.range_pm) {
      r->op = kRange;
      r->arg = r->key + kSpan - 1;
    } else {
      r->op = (rng_() & 1) != 0 ? kPut : kDel;
      r->arg = rng_() | 1;
    }
  }

  /// Exponential inter-arrival gap at `spec.rate`, in ns.
  std::int64_t gap_ns() {
    const double u =
        (static_cast<double>(rng_() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    return static_cast<std::int64_t>(-std::log(u) / spec_.rate * 1e9);
  }

 private:
  Spec spec_;
  si::util::Xoshiro256 rng_;
};

inline bool is_update(std::uint16_t op) { return op == kPut || op == kDel; }

/// Sequential model of the served app. KvApp's preload prepends without a
/// duplicate check, so a key may hold a stack of values: get reads the top,
/// put overwrites the top (answer 0) or links a new one (answer 1), del pops
/// the top (answer 1 if there was one) and exposes the older preload.
class Oracle {
 public:
  explicit Oracle(const Spec& spec) {
    if (spec.map) {
      for (std::uint64_t i = 0; i < spec.elements; ++i) {
        const std::uint64_t key =
            1 + si::maps::mix64(kAppSeed + i) % spec.key_space;
        auto& v = keys_[key];
        if (v.empty()) v.push_back(key * 3);
      }
    } else {
      // KvApp draws `map_.seed(rng.below(key_space), rng(), ...)`; C++ leaves
      // the argument order open and GCC evaluates right to left, so the value
      // comes first. pb_inproc checks the result against the real preload.
      si::util::Xoshiro256 rng(kAppSeed);
      for (std::uint64_t i = 0; i < spec.elements; ++i) {
        const std::uint64_t value = rng();
        keys_[rng.below(spec.key_space)].push_back(value);
      }
    }
  }

  /// Applies a point operation and returns the answer the app must give.
  std::uint64_t apply(std::uint16_t op, std::uint64_t key, std::uint64_t arg) {
    auto it = keys_.find(key);
    const bool present = it != keys_.end() && !it->second.empty();
    switch (op) {
      case kGet:
        return present ? it->second.back() : 0;
      case kPut:
        if (present) {
          it->second.back() = arg;
          return 0;
        }
        keys_[key].push_back(arg);
        return 1;
      case kDel:
        if (!present) return 0;
        it->second.pop_back();
        return 1;
      default:
        return 0;
    }
  }

  /// The value a get of `key` must return now (0 when absent).
  std::uint64_t get(std::uint64_t key) const {
    const auto it = keys_.find(key);
    return it == keys_.end() || it->second.empty() ? 0 : it->second.back();
  }

  /// MapApp's range answer over the current state: (hits << 32) | checksum.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t* hits) const {
    std::uint64_t n = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (auto it = keys_.lower_bound(lo);
         it != keys_.end() && it->first <= hi && n < kScanCap; ++it) {
      if (it->second.empty()) continue;
      seen.emplace_back(it->first, it->second.back());
      ++n;
    }
    std::uint64_t fold = n;
    for (const auto& [k, v] : seen) fold = fold * 1099511628211ULL ^ k ^ (v << 1);
    *hits = n;
    return (n << 32) | (fold & 0xFFFFFFFFULL);
  }

 private:
  std::map<std::uint64_t, std::vector<std::uint64_t>> keys_;
};

struct CheckResult {
  std::uint64_t unanswered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t wrong = 0;          ///< answers the oracle disagrees with
  std::uint64_t acked_updates = 0;  ///< OK put/del answers (= WAL records)
  std::uint64_t ranges_exact = 0;   ///< scans with no update in flight
  std::string first_error;

  std::uint64_t errors() const {
    return unanswered + duplicates + bad_status + wrong;
  }

  void fail(std::uint64_t* counter, const std::string& what) {
    ++*counter;
    if (first_error.empty()) first_error = what;
  }
};

/// Replays the ledger in generation order through the oracle and checks
/// every answer. `recs` must be fully answered (or abandoned) by now.
inline CheckResult check_ledger(const Spec& spec, const std::deque<Rec>& recs) {
  CheckResult res;
  Oracle oracle(spec);
  std::int64_t max_latency = 0;
  for (const Rec& r : recs) {
    if (r.done_ns > 0) max_latency = std::max(max_latency, r.done_ns - r.sent_ns);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    const std::string where = "request " + std::to_string(i);
    const std::uint8_t answers = r.answers.load(std::memory_order_acquire);
    if (answers == 0) res.fail(&res.unanswered, where + " unanswered");
    if (answers > 1) res.fail(&res.duplicates, where + " answered twice");
    if (answers > 0 && r.status != 0) {
      res.fail(&res.bad_status, where + " status " + std::to_string(r.status));
    }
    const bool ok = answers == 1 && r.status == 0;
    if (r.op != kRange) {
      const std::uint64_t want = oracle.apply(r.op, r.key, r.arg);
      if (ok && r.value != want) {
        res.fail(&res.wrong, where + " op " + std::to_string(r.op) + " key " +
                                 std::to_string(r.key) + " answered " +
                                 std::to_string(r.value) + ", expected " +
                                 std::to_string(want));
      }
      if (ok && is_update(r.op)) ++res.acked_updates;
      continue;
    }
    if (!ok) continue;
    // Keys in [key, arg] whose update may or may not have been applied when
    // the scan ran: earlier updates not yet answered when it was sent, and
    // later updates sent before its answer came back.
    std::uint64_t uncertain = 0;
    auto touches = [&](const Rec& u) {
      return is_update(u.op) && u.key >= r.key && u.key <= r.arg;
    };
    for (std::size_t j = i; j-- > 0 && recs[j].sent_ns >= r.sent_ns - max_latency;) {
      if (touches(recs[j]) && (recs[j].done_ns == 0 || recs[j].done_ns >= r.sent_ns)) {
        ++uncertain;
      }
    }
    for (std::size_t j = i + 1; j < recs.size() && recs[j].sent_ns <= r.done_ns; ++j) {
      if (touches(recs[j])) ++uncertain;
    }
    std::uint64_t want_hits = 0;
    const std::uint64_t want = oracle.range(r.key, r.arg, &want_hits);
    const std::uint64_t got_hits = r.value >> 32;
    const std::uint64_t lo = want_hits > uncertain ? want_hits - uncertain : 0;
    const bool exact = uncertain == 0;
    if (exact) ++res.ranges_exact;
    if ((exact && r.value != want) ||
        (!exact && (got_hits < lo || got_hits > want_hits + uncertain)) ||
        got_hits > kScanCap) {
      res.fail(&res.wrong, where + " range [" + std::to_string(r.key) + "," +
                               std::to_string(r.arg) + "] hits " +
                               std::to_string(got_hits) + ", expected " +
                               std::to_string(want_hits) + " +- " +
                               std::to_string(uncertain));
    }
  }
  return res;
}

/// Exact nearest-rank percentile of `v` (reorders it); 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Op class names the reports use: get, update (put + del), range.
inline const char* op_class(std::uint16_t op) {
  return op == kGet ? "get" : op == kRange ? "range" : "update";
}

/// Builds one flat JSON object, printed as a single line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c >= 0x20 ? c : ' ');
    }
    return raw(key, quoted + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonLine& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string body_;
};

/// Latency summary per op class over the measured phase, in microseconds
/// from the intended send time: the exact p50 of all samples, and the p99 as
/// the median over measurement rounds of each round's exact p99, so a host
/// stall during one round spoils that round rather than the figure.
inline void report_latency(JsonLine* out, const std::deque<Rec>& recs) {
  std::map<std::string, std::map<int, std::vector<double>>> lat;
  for (const char* cls : {"get", "update", "range"}) lat[cls];
  for (const Rec& r : recs) {
    if (r.phase != kMeasured || r.done_ns == 0) continue;
    lat[op_class(r.op)][r.round].push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
  }
  for (auto& [cls, rounds] : lat) {
    std::vector<double> all, p99s;
    for (auto& [round, v] : rounds) {
      all.insert(all.end(), v.begin(), v.end());
      p99s.push_back(percentile(v, 0.99));
    }
    out->num(cls + "_n", static_cast<double>(all.size()));
    out->num(cls + "_p50_us", percentile(all, 0.50));
    out->num(cls + "_p99_us", percentile(p99s, 0.50));
  }
}

/// How late the generator ran: sent - due over the measured phase, in us.
inline void report_lateness(JsonLine* out, const std::deque<Rec>& recs) {
  std::vector<double> late;
  for (const Rec& r : recs) {
    if (r.phase == kMeasured) late.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
  }
  const double worst = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  out->num("late_p50_us", percentile(late, 0.50));
  out->num("late_p99_us", percentile(late, 0.99));
  out->num("late_max_us", worst);
}

/// Mean hit count of the answered range scans (0 without ranges).
inline double keys_per_range(const std::deque<Rec>& recs) {
  double hits = 0, n = 0;
  for (const Rec& r : recs) {
    if (r.op == kRange && r.done_ns != 0) {
      hits += static_cast<double>(r.value >> 32);
      n += 1;
    }
  }
  return n == 0 ? 0.0 : hits / n;
}

inline void report_check(JsonLine* out, const CheckResult& c) {
  out->num("unanswered", static_cast<double>(c.unanswered));
  out->num("duplicates", static_cast<double>(c.duplicates));
  out->num("bad_status", static_cast<double>(c.bad_status));
  out->num("wrong", static_cast<double>(c.wrong));
  out->num("acked_updates", static_cast<double>(c.acked_updates));
  out->num("ranges_exact", static_cast<double>(c.ranges_exact));
  out->str("first_error", c.first_error);
}

}  // namespace perfbench
