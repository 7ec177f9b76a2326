// si_loadgen — load generator for si_serve (DESIGN.md sections 9 and 12).
//
// One engine drives every run: `-client-threads T` epoll event-loop threads,
// each owning conns/T non-blocking connections speaking the length-prefixed
// binary protocol (serve/wire.hpp). Requests are encoded back-to-back and
// flushed in one send, responses are matched to in-flight requests by
// correlation id — a response with an unknown id counts as `misrouted` and
// fails the run. The engine scales to tens of thousands of concurrent
// pipelined connections.
//
// Closed loop (default): each connection keeps up to `-pipeline D` requests
// in flight. Offered load adapts to service capacity, so every request
// eventually completes — the classic benchmark shape. A rejected request is
// resent after the server's retry hint:
//
//   si_loadgen -port 7070 -conns 8 -requests 100000
//
// Open loop: a target aggregate arrival rate, split into one Poisson
// (exponential inter-arrival) schedule per connection. Each engine thread
// sleeps on a timerfd armed for its earliest due arrival, and every due
// request is sent whatever is already in flight, so offered load does NOT
// adapt — which is what exposes admission control: past saturation the
// service answers Status::kRejected and the generator counts shed load
// instead of retrying. Latency runs from each request's intended send time,
// so a late generator is charged to the requests it delayed:
//
//   si_loadgen -port 7070 -conns 8 -mode open -rate 50000 -duration-s 5
//
// Both modes print completed/rejected/failed/lost counts, goodput, and
// client-side latency percentiles (p50/p99/p999); the open loop also prints
// the offered rate over its send window. Exit status is 0 iff no request was
// lost (sent but never answered), misrouted or failed.
//
// Request mix (hashmap workload): -ro PCT lookups, the rest alternating
// put/del over -keys distinct keys, ids unique per connection. Against a
// map-workload server (si_serve -workload map) add -range PCT: that share
// of requests become range scans (op 3) over [key, key + -span], carved out
// of the read-only fraction first. For a TPC-C server use -tpcc: every
// request is op 255 (mix-sampled by the server).
#include <cmath>
#include <cstdio>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "obs/trace.hpp"  // wall_ns
#include "serve/kv_app.hpp"
#include "serve/map_app.hpp"
#include "serve/net.hpp"
#include "serve/request.hpp"
#include "serve/tpcc_app.hpp"
#include "serve/wire.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::string ledger;  ///< -ledger FILE: record every acked put/del
  std::uint16_t port = 7070;
  int conns = 8;
  std::uint64_t requests = 100000;  ///< total across connections (closed loop)
  unsigned ro_pct = 90;
  unsigned range_pct = 0;   ///< share of requests that are range scans (op 3)
  std::uint64_t span = 16;  ///< range-scan width: hi = lo + span
  std::uint64_t keys = 40000;
  bool open_loop = false;
  double rate = 10000.0;     ///< aggregate target req/s (open loop)
  double duration_s = 5.0;   ///< send window (open loop)
  bool tpcc = false;
  std::uint64_t seed = 7;
  int pipeline = 8;         ///< max requests in flight per connection (closed)
  int client_threads = 2;   ///< epoll event-loop threads
};

/// Acked-write ledger (DESIGN.md §14): one text line `id op key arg` per
/// put/del the server answered with kOk. The ledger is the client-side
/// ground truth for crash recovery — after kill -9 + `si_serve -recover`,
/// every id in this file must appear in the replayed log
/// (scripts/crash_recovery_smoke.py diffs it against `si_logdump -ids`).
/// Lines are written only after the ack arrives, so requests that were in
/// flight when the server died are (correctly) absent. Shared by all
/// client threads; the mutex is nowhere near the latency path we measure.
class Ledger {
 public:
  bool open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "w");
    return file_ != nullptr;
  }
  bool enabled() const noexcept { return file_ != nullptr; }
  void record(std::uint64_t id, std::uint16_t op, std::uint64_t key,
              std::uint64_t arg) {
    if (file_ == nullptr) return;
    if (op != si::serve::KvApp::kPut && op != si::serve::KvApp::kDel) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(file_, "%llu %u %llu %llu\n",
                 static_cast<unsigned long long>(id),
                 static_cast<unsigned>(op),
                 static_cast<unsigned long long>(key),
                 static_cast<unsigned long long>(arg));
  }
  void close() {
    if (file_ == nullptr) return;
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

Ledger g_ledger;

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  std::uint64_t misrouted = 0;  ///< responses whose id matched nothing in flight
  std::uint64_t retries = 0;  ///< closed loop: resubmissions after rejection
  si::util::Histogram latency;
  bool io_error = false;
};

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [-host H] [-port P] [-conns N] [-requests TOTAL]\n"
               "          [-pipeline D] [-client-threads T]\n"
               "          [-ro PCT] [-keys N] [-seed S]\n"
               "          [-range PCT] [-span N]\n"
               "          [-mode closed|open] [-rate REQ_S] [-duration-s S]\n"
               "          [-tpcc] [-json FILE] [-system NAME] [-point NAME]\n"
               "          [-ledger FILE]   record every acked put/del as\n"
               "                           'id op key arg' (crash recovery)\n",
               prog);
}

/// Samples the next request for this connection; returns (op, key, arg).
struct MixSampler {
  si::util::Xoshiro256 rng;
  unsigned ro_pct;
  unsigned range_pct;
  std::uint64_t span;
  std::uint64_t keys;
  bool tpcc;
  bool put_next = true;

  void sample(std::uint16_t* op, std::uint64_t* key, std::uint64_t* arg) {
    if (tpcc) {
      *op = si::serve::TpccApp::kSampled;
      *key = rng();  // routing only
      *arg = 0;
      return;
    }
    *key = rng.below(keys);
    // One roll decides the op class; range scans are carved out of the
    // read-only share (both are RO), so -ro still bounds the update rate.
    const std::uint64_t roll = rng.below(100);
    if (roll < range_pct) {
      *op = si::serve::MapOps::kRange;
      *arg = *key + span;
    } else if (roll < ro_pct) {
      *op = si::serve::KvApp::kGet;
      *arg = 0;
    } else if (put_next) {
      *op = si::serve::KvApp::kPut;
      *arg = *key + 1;
      put_next = false;
    } else {
      *op = si::serve::KvApp::kDel;
      *arg = 0;
      put_next = true;
    }
  }
};

/// A request awaiting its response: send timestamp (the intended one in the
/// open loop) plus what was asked, kept so rejected requests can be resent
/// verbatim (closed loop) and acked writes can be recorded in the ledger.
struct PendingReq {
  double t0 = 0.0;
  std::uint16_t op = 0;
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
};

// ---------------------------------------------------------------------------
// The epoll engine.
//
// Each client thread owns an epoll set over its share of the connections.
// Requests are encoded back-to-back into a connection's outbound buffer and
// flushed in a single send, responses are split by the shared FrameParser and
// matched to the in-flight table by correlation id. A response that matches
// nothing counts as `misrouted` (the acceptance signal that completions were
// routed to the wrong connection).
//
// Closed loop: a connection keeps up to `-pipeline D` requests in flight.
// Rejections re-arm after the server's retry hint while still occupying
// their pipeline slot, so the loop stays closed.
//
// Open loop: each connection walks its own Poisson schedule. The engine keeps
// the connections in a min-heap by next due arrival and sleeps on one timerfd
// armed for the heap's top; every arrival that is due when it wakes is sent,
// stamped with its intended send time. Rejections are shed, not retried.
// After the send window the engine waits up to kDrainGraceNs for answers;
// whatever is still unanswered then is lost.

constexpr double kDrainGraceNs = 10e9;

struct RetryReq {
  double due_ns = 0.0;
  std::uint64_t id = 0;
  std::uint16_t op = 0;
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
};

struct BinConn {
  int fd = -1;
  std::uint64_t next_id = 0;
  std::uint64_t quota_left = 0;  ///< closed loop: requests not yet issued
  double next_due = 0.0;         ///< open loop: next intended send (wall_ns)
  bool arrivals = false;         ///< open loop: next_due is inside the window
  si::util::Xoshiro256 gap_rng;  ///< open loop: inter-arrival draws
  si::serve::wire::FrameParser parser;
  std::string out;
  std::size_t out_off = 0;
  std::unordered_map<std::uint64_t, PendingReq> pending;
  std::vector<RetryReq> retries;
  MixSampler mix;
  ConnResult* res = nullptr;
  bool want_write = false;
  bool done = false;
};

class BinEngine {
 public:
  /// [send_start, send_end) is the open loop's send window (wall_ns).
  BinEngine(const Options& opt, std::vector<BinConn*> conns, double send_start,
            double send_end)
      : opt_(opt),
        conns_(std::move(conns)),
        send_start_(send_start),
        send_end_(send_end) {}

  void run() {
    ep_ = ::epoll_create1(0);
    if (ep_ < 0 || (opt_.open_loop && !start_arrivals())) {
      for (BinConn* c : conns_) c->res->io_error = true;
      if (ep_ >= 0) ::close(ep_);
      return;
    }
    for (BinConn* c : conns_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, c->fd, &ev);
      ++live_;
      issue_new(*c);
      if (!flush(*c)) {
        kill(*c);
      } else if (finished(*c)) {
        finish(*c);
      }
    }

    epoll_event events[512];
    while (live_ > 0) {
      if (opt_.open_loop) {
        send_due();  // also arms the timer the wait below sleeps on
        if (si::obs::wall_ns() > send_end_ + kDrainGraceNs) {
          for (BinConn* c : conns_) {
            if (!c->done) finish(*c);  // grace over: the rest is lost
          }
          break;
        }
      }
      const int ne = ::epoll_wait(ep_, events, 512, wait_timeout_ms());
      for (int i = 0; i < ne; ++i) {
        auto* c = static_cast<BinConn*>(events[i].data.ptr);
        if (c == nullptr) {  // the arrival timer expired and is disarmed
          std::uint64_t expirations = 0;
          if (::read(tfd_, &expirations, sizeof(expirations)) < 0) {
            // EAGAIN: a re-arm raced the expiry; nothing to consume.
          }
          armed_for_ = -1.0;  // send_due() re-arms it, even for the same top
          continue;
        }
        if (c->done) continue;
        const std::uint32_t ev = events[i].events;
        if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
          kill(*c);
          continue;
        }
        if ((ev & EPOLLOUT) != 0 && !flush(*c)) {
          kill(*c);
          continue;
        }
        if ((ev & EPOLLIN) != 0) {
          if (!handle_read(*c)) {
            kill(*c);
            continue;
          }
          issue_new(*c);
          if (!flush(*c)) {
            kill(*c);
            continue;
          }
          if (finished(*c)) finish(*c);
        }
      }
      if (total_retries_ > 0) resend_due();
    }
    if (tfd_ >= 0) ::close(tfd_);
    ::close(ep_);
  }

 private:
  bool finished(const BinConn& c) const noexcept {
    return c.quota_left == 0 && !c.arrivals && c.pending.empty() &&
           c.retries.empty();
  }

  int wait_timeout_ms() const noexcept {
    if (total_retries_ > 0) return 1;  // retry hints are µs–ms scale
    if (opt_.open_loop && !due_.empty()) return -1;  // the timerfd wakes us
    return 100;
  }

  /// Encodes one freshly sampled request timed from `t0`.
  void issue(BinConn& c, double t0) {
    std::uint16_t op = 0;
    std::uint64_t key = 0, arg = 0;
    c.mix.sample(&op, &key, &arg);
    const std::uint64_t id = ++c.next_id;
    si::serve::wire::encode_request(&c.out, id, op, key, arg);
    c.pending.emplace(id, PendingReq{t0, op, key, arg});
    ++c.res->sent;
  }

  /// Closed loop: tops the pipeline up with first-time requests. Slots held
  /// by armed retries stay occupied, keeping the loop closed under rejection.
  void issue_new(BinConn& c) {
    while (c.quota_left > 0 &&
           c.pending.size() + c.retries.size() <
               static_cast<std::size_t>(opt_.pipeline)) {
      issue(c, si::obs::wall_ns());
      --c.quota_left;
    }
  }

  /// Open loop: the timer every arrival wakes the engine through, and each
  /// connection's first arrival.
  bool start_arrivals() {
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (tfd_ < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
    // Timer slack is per thread and 50 µs by default: wake on time instead.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const double per_conn_rate = opt_.rate / opt_.conns;
    mean_gap_ns_ = 1e9 / (per_conn_rate > 1 ? per_conn_rate : 1);
    for (BinConn* c : conns_) schedule(*c, send_start_);
    return true;
  }

  /// Draws the connection's next arrival after `from` (exponential gap) and
  /// queues it while it falls inside the send window.
  void schedule(BinConn& c, double from) {
    const double u =
        (static_cast<double>(c.gap_rng()) + 1.0) / 1.8446744073709552e19;
    c.next_due = from - std::log(u) * mean_gap_ns_;
    c.arrivals = c.next_due < send_end_;
    if (c.arrivals) due_.emplace(c.next_due, &c);
  }

  /// Open loop: sends every due arrival whatever is already in flight, then
  /// re-arms the timer for the earliest arrival still to come.
  void send_due() {
    const double now = si::obs::wall_ns();
    while (!due_.empty() && due_.top().first <= now) {
      BinConn& c = *due_.top().second;
      due_.pop();
      if (c.done) continue;
      issue(c, c.next_due);
      schedule(c, c.next_due);
      touched_.push_back(&c);
    }
    for (BinConn* c : touched_) {
      if (!c->done && !flush(*c)) kill(*c);
    }
    touched_.clear();
    if (!due_.empty() && due_.top().first != armed_for_) {
      armed_for_ = due_.top().first;
      const auto wait_ns = static_cast<std::int64_t>(
          std::max(1.0, armed_for_ - now));
      itimerspec its{};
      its.it_value.tv_sec = wait_ns / 1'000'000'000;
      its.it_value.tv_nsec = wait_ns % 1'000'000'000;
      ::timerfd_settime(tfd_, 0, &its, nullptr);
    }
  }

  /// Closed loop: re-sends retries whose hint deadline passed.
  void resend_due() {
    const double now = si::obs::wall_ns();
    for (BinConn* cp : conns_) {
      BinConn& c = *cp;
      if (c.done || c.retries.empty()) continue;
      bool resent = false;
      for (std::size_t i = 0; i < c.retries.size();) {
        if (c.retries[i].due_ns > now) {
          ++i;
          continue;
        }
        const RetryReq r = c.retries[i];
        c.retries[i] = c.retries.back();
        c.retries.pop_back();
        --total_retries_;
        si::serve::wire::encode_request(&c.out, r.id, r.op, r.key, r.arg);
        c.pending.emplace(r.id,
                          PendingReq{si::obs::wall_ns(), r.op, r.key, r.arg});
        ++c.res->sent;
        resent = true;
      }
      if (resent && !flush(c)) kill(c);
    }
  }

  bool flush(BinConn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (c.out_off >= c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    } else if (c.out_off >= c.out.size() - c.out_off) {
      c.out.erase(0, c.out_off);
      c.out_off = 0;
    }
    const bool ww = c.out.size() > c.out_off;
    if (ww != c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (ww ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.ptr = &c;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_write = ww;
    }
    return true;
  }

  bool handle_read(BinConn& c) {
    for (;;) {
      const ssize_t n = ::recv(c.fd, chunk_, sizeof(chunk_), 0);
      if (n > 0) {
        c.parser.append(chunk_, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk_)) break;
        continue;
      }
      if (n == 0) return false;  // EOF with requests possibly in flight
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    si::serve::wire::FrameView f;
    while (c.parser.next(&f)) {
      std::uint64_t id = 0, value = 0;
      int status = 0;
      if (!si::serve::wire::decode_response(f, &id, &status, &value)) {
        c.res->io_error = true;
        return false;
      }
      const auto it = c.pending.find(id);
      if (it == c.pending.end()) {
        ++c.res->misrouted;
        continue;
      }
      if (status == static_cast<int>(si::serve::Status::kOk)) {
        ++c.res->ok;
        c.res->latency.record(
            static_cast<std::uint64_t>(si::obs::wall_ns() - it->second.t0));
        g_ledger.record(id, it->second.op, it->second.key, it->second.arg);
      } else if (status == static_cast<int>(si::serve::Status::kRejected)) {
        ++c.res->rejected;
        if (!opt_.open_loop) {
          ++c.res->retries;
          const double hint_us =
              value > 0 ? static_cast<double>(value) : 100.0;
          c.retries.push_back(RetryReq{si::obs::wall_ns() + hint_us * 1000.0,
                                       id, it->second.op, it->second.key,
                                       it->second.arg});
          ++total_retries_;
        }
      } else {
        ++c.res->failed;
      }
      c.pending.erase(it);
    }
    if (c.parser.poisoned()) {
      c.res->io_error = true;
      return false;
    }
    return true;
  }

  /// Closes the connection. Whatever it still owed (in flight, armed for a
  /// retry or never issued) is lost; after a graceful run that is nothing.
  void finish(BinConn& c) {
    c.res->lost += c.pending.size() + c.retries.size() + c.quota_left;
    total_retries_ -= c.retries.size();
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    c.done = true;
    --live_;
  }

  /// Fatal drop: an I/O or protocol error ends the connection.
  void kill(BinConn& c) {
    c.res->io_error = true;
    finish(c);
  }

  using Arrival = std::pair<double, BinConn*>;

  const Options& opt_;
  std::vector<BinConn*> conns_;
  const double send_start_;
  const double send_end_;
  int ep_ = -1;
  int tfd_ = -1;
  double mean_gap_ns_ = 0.0;
  double armed_for_ = -1.0;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> due_;
  std::vector<BinConn*> touched_;
  std::size_t live_ = 0;
  std::size_t total_retries_ = 0;
  char chunk_[64 * 1024];
};

/// Connects every connection up front, partitions them round-robin over the
/// client threads and runs the engines. Results land in `results`.
void run_engines(const Options& opt, std::vector<ConnResult>* results) {
  std::vector<std::unique_ptr<BinConn>> conns;
  conns.reserve(static_cast<std::size_t>(opt.conns));
  const std::uint64_t n_conns = static_cast<std::uint64_t>(opt.conns);
  // Per-connection streams, seeded as each loop always was.
  const std::uint64_t mix_salt = opt.open_loop ? 0x517CC1ULL : 0x9E3779B9ULL;
  for (int c = 0; c < opt.conns; ++c) {
    std::string err;
    const int fd = si::serve::net::connect_tcp(opt.host, opt.port, &err);
    if (fd < 0) {
      std::fprintf(stderr, "conn %d: %s\n", c, err.c_str());
      (*results)[static_cast<std::size_t>(c)].io_error = true;
      continue;
    }
    si::serve::net::set_nonblocking(fd);
    auto conn = std::make_unique<BinConn>();
    conn->fd = fd;
    conn->next_id = static_cast<std::uint64_t>(c) << 32;
    const std::uint64_t uc = static_cast<std::uint64_t>(c);
    if (!opt.open_loop) {
      conn->quota_left =
          opt.requests / n_conns + (uc < opt.requests % n_conns ? 1 : 0);
    }
    conn->gap_rng = si::util::Xoshiro256(opt.seed ^ (0xA5A5ULL * (uc + 3)));
    conn->mix =
        MixSampler{si::util::Xoshiro256(opt.seed ^ (mix_salt * (uc + 1))),
                   opt.ro_pct, opt.range_pct, opt.span, opt.keys, opt.tpcc};
    conn->res = &(*results)[static_cast<std::size_t>(c)];
    conns.push_back(std::move(conn));
  }

  const int n_threads =
      opt.client_threads < 1
          ? 1
          : (static_cast<std::size_t>(opt.client_threads) > conns.size() &&
                     !conns.empty()
                 ? static_cast<int>(conns.size())
                 : opt.client_threads);
  std::vector<std::vector<BinConn*>> shares(
      static_cast<std::size_t>(n_threads));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    shares[i % static_cast<std::size_t>(n_threads)].push_back(conns[i].get());
  }
  const double send_start = si::obs::wall_ns();
  const double send_end = send_start + opt.duration_s * 1e9;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_threads));
  for (auto& share : shares) {
    threads.emplace_back(
        [&opt, send_start, send_end, share = std::move(share)]() mutable {
          BinEngine engine(opt, std::move(share), send_start, send_end);
          engine.run();
        });
  }
  for (auto& t : threads) t.join();
}

int run(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    usage(argv[0]);
    return 0;
  }
  Options opt;
  opt.host = cli.get("host", opt.host);
  opt.port = static_cast<std::uint16_t>(cli.get_int("port", opt.port));
  opt.conns = static_cast<int>(cli.get_int("conns", opt.conns));
  opt.requests =
      static_cast<std::uint64_t>(cli.get_int("requests", 100000));
  opt.ro_pct = static_cast<unsigned>(cli.get_int("ro", opt.ro_pct));
  opt.range_pct = static_cast<unsigned>(cli.get_int("range", 0));
  opt.span = static_cast<std::uint64_t>(cli.get_int("span", 16));
  opt.keys = static_cast<std::uint64_t>(cli.get_int("keys", 40000));
  opt.open_loop = cli.get("mode", "closed") == "open";
  opt.rate = cli.get_double("rate", opt.rate);
  opt.duration_s = cli.get_double("duration-s", opt.duration_s);
  opt.tpcc = cli.has("tpcc");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  opt.pipeline = static_cast<int>(cli.get_int("pipeline", 8));
  if (opt.pipeline < 1) opt.pipeline = 1;
  opt.client_threads = static_cast<int>(cli.get_int("client-threads", 2));
  if (opt.conns < 1) opt.conns = 1;
  opt.ledger = cli.get("ledger", "");
  // Read before the run so a flag that lost its value fails up front.
  si::bench::JsonSink sink = si::bench::JsonSink::from_cli(cli, "si_loadgen");
  const std::string system = cli.get("system", "serve-bin");
  const std::string point = cli.get("point", "run");
  if (!opt.ledger.empty() && !g_ledger.open(opt.ledger)) {
    std::fprintf(stderr, "cannot open ledger file: %s\n", opt.ledger.c_str());
    return 2;
  }

  std::vector<ConnResult> results(static_cast<std::size_t>(opt.conns));

  const double t0 = si::obs::wall_ns();
  run_engines(opt, &results);
  const double elapsed_s = (si::obs::wall_ns() - t0) / 1e9;
  g_ledger.close();  // every acked write is on disk before we report

  ConnResult total;
  bool io_error = false;
  for (const auto& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.failed += r.failed;
    total.rejected += r.rejected;
    total.lost += r.lost;
    total.misrouted += r.misrouted;
    total.retries += r.retries;
    total.latency.merge(r.latency);
    io_error = io_error || r.io_error;
  }

  std::printf("si_loadgen: mode=%s conns=%d pipeline=%d elapsed=%.2fs\n",
              opt.open_loop ? "open" : "closed", opt.conns, opt.pipeline,
              elapsed_s);
  std::printf("  sent=%llu completed=%llu rejected=%llu failed=%llu "
              "lost=%llu misrouted=%llu retries=%llu\n",
              static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.rejected),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.lost),
              static_cast<unsigned long long>(total.misrouted),
              static_cast<unsigned long long>(total.retries));
  std::printf("  goodput=%.0f req/s\n",
              elapsed_s > 0 ? static_cast<double>(total.ok) / elapsed_s : 0.0);
  if (total.latency.count() > 0) {
    std::printf("  latency p50=%llu p99=%llu p999=%llu max=%llu ns\n",
                static_cast<unsigned long long>(total.latency.quantile(0.50)),
                static_cast<unsigned long long>(total.latency.quantile(0.99)),
                static_cast<unsigned long long>(total.latency.quantile(0.999)),
                static_cast<unsigned long long>(total.latency.max()));
  }
  if (opt.open_loop) {
    // Offered load over the send window only: the drain grace after it
    // sends nothing, so dividing by the whole run would understate it. A run
    // whose connections all died early closed its window early.
    const double window_s = std::min(opt.duration_s, elapsed_s);
    const double offered =
        window_s > 0 ? static_cast<double>(total.sent) / window_s : 0.0;
    std::printf("  offered=%.0f req/s shed=%.1f%%\n", offered,
                total.sent > 0 ? 100.0 * static_cast<double>(total.rejected) /
                                     static_cast<double>(total.sent)
                               : 0.0);
  }

  // Client-side si-bench-v1 record for the saturation sweep
  // (scripts/serve_sweep.py): goodput is the throughput field, client
  // latency percentiles ride in the req_latency_* fields.
  if (sink.enabled()) {
    si::bench::BenchRecord rec;
    rec.system = system;
    rec.point = point;
    rec.threads = opt.conns;
    rec.throughput =
        elapsed_s > 0 ? static_cast<double>(total.ok) / elapsed_s : 0.0;
    rec.commits = total.ok;
    if (total.latency.count() > 0) {
      rec.req_latency_p50_ns =
          static_cast<double>(total.latency.quantile(0.50));
      rec.req_latency_p99_ns =
          static_cast<double>(total.latency.quantile(0.99));
      rec.req_latency_p999_ns =
          static_cast<double>(total.latency.quantile(0.999));
    }
    sink.add(rec);
    sink.flush();
  }
  return (total.lost == 0 && total.misrouted == 0 && total.failed == 0 &&
          !io_error)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {  // a value flag without a value
    std::fprintf(stderr, "si_loadgen: %s\n", e.what());
    usage(argv[0]);
    return 2;
  }
}
