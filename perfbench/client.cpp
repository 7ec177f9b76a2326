// Open-loop client for the serving benchmark: one epoll thread drives
// kConns binary-protocol connections to si_serve with Poisson arrivals from
// `-seed`, keeps every latency sample, and checks every answer (common.hpp).
//
// The thread sleeps in epoll_wait on a timerfd armed for the next arrival, so
// it never spins; each request is timed from its intended send time, which
// charges a stalled generator's delay to the requests behind it, and the
// report says how late the generator ran. A key always travels on the same
// connection, which keeps each key's operations in order end to end.
//
//   pb_client -port P [-seconds 5] [-record]
//             [spec flags: -app -elements -buckets -get-pm -range-pm -rate
//              -seed]
//
// The first kWarmupS of arrivals are sent and checked but not measured.
// Prints one JSON line. -record also keeps the bytes sent and times the
// server's frame decoder (FrameParser::next + decode_request) over them.
// Exit 1 when any request went unanswered, was answered twice or on the wrong
// connection, failed, or got a wrong answer.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/net.hpp"
#include "serve/wire.hpp"

namespace {

using namespace perfbench;
namespace wire = si::serve::wire;

constexpr std::size_t kConns = 4;
constexpr double kWarmupS = 0.5;

/// Sink for the decode replay's result, so the loop is not optimised away.
volatile std::uint64_t g_sink = 0;

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  bool want_out = false;
  wire::FrameParser in;
  std::string sent_log;              ///< -record: every byte sent
  std::vector<std::size_t> chunks;   ///< -record: sizes of the sends
};

std::size_t conn_of(std::uint64_t key, std::size_t conns) {
  return static_cast<std::size_t>(si::maps::mix64(key ^ 0x5bd1e995ULL) % conns);
}

/// Sends what the socket takes; arms EPOLLOUT for the rest. False on error.
bool flush(int ep, std::size_t idx, Conn& c, bool record) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      if (record) {
        c.sent_log.append(c.out, c.out_off, static_cast<std::size_t>(n));
        c.chunks.push_back(static_cast<std::size_t>(n));
      }
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  const bool pending = c.out_off < c.out.size();
  if (!pending) {
    c.out.clear();
    c.out_off = 0;
  }
  if (pending != c.want_out) {
    epoll_event ev{};
    ev.events = pending ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = idx;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_out = pending;
  }
  return true;
}

/// Median over five replays of the recorded request bytes through the
/// server's decoder, in ns per frame.
double decode_ns(const std::vector<Conn>& conns) {
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t frames = 0;
    const std::int64_t t0 = now_ns();
    for (const Conn& c : conns) {
      wire::FrameParser parser;
      std::size_t off = 0;
      for (std::size_t n : c.chunks) {
        parser.append(c.sent_log.data() + off, n);
        off += n;
        wire::FrameView f;
        while (parser.next(&f)) {
          std::uint64_t id = 0, key = 0, arg = 0;
          std::uint16_t op = 0;
          if (wire::decode_request(f, &id, &op, &key, &arg)) sink += id ^ key ^ op;
          ++frames;
        }
      }
    }
    const std::int64_t t1 = now_ns();
    if (frames > 0) reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(frames));
  }
  g_sink = sink;
  return percentile(reps, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const Spec spec = Spec::from_cli(cli);
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  const double seconds = cli.get_double("seconds", 5);
  const bool record = cli.has("record");

  const int ep = ::epoll_create1(0);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  std::vector<Conn> conns(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    std::string err;
    conns[i].fd = si::serve::net::connect_tcp("127.0.0.1", port, &err);
    if (conns[i].fd < 0) {
      std::fprintf(stderr, "pb_client: %s\n", err.c_str());
      return 2;
    }
    si::serve::net::set_nonblocking(conns[i].fd);
    si::serve::net::set_nodelay(conns[i].fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kConns;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  }

  std::deque<Rec> recs;
  Stream stream(spec);
  std::uint64_t answered = 0, misrouted = 0, lost_conns = 0;
  std::vector<std::size_t> batch;
  TightTimerSlack slack;
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t warm_end = start + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t end = warm_end + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline = end + 5'000'000'000LL;
  std::int64_t next_due = start;
  epoll_event events[16];
  char chunk[16384];

  for (;;) {
    std::int64_t now = now_ns();
    // Send everything that is due, one batch per connection.
    batch.clear();
    while (next_due <= now && next_due < end) {
      Rec& r = recs.emplace_back();
      r.due_ns = next_due;
      r.phase = next_due < warm_end ? kWarmup : kMeasured;
      stream.next(&r);
      r.conn = static_cast<std::uint8_t>(conn_of(r.key, kConns));
      wire::encode_request(&conns[r.conn].out, recs.size() - 1, r.op, r.key, r.arg);
      batch.push_back(recs.size() - 1);
      next_due += stream.gap_ns();
    }
    if (!batch.empty()) {
      now = now_ns();
      for (std::size_t id : batch) recs[id].sent_ns = now;
      for (std::size_t i = 0; i < kConns; ++i) {
        if (!conns[i].out.empty() && !flush(ep, i, conns[i], record)) ++lost_conns;
      }
    }
    const bool sending_done = next_due >= end;
    if (lost_conns > 0) break;
    if (sending_done && answered == recs.size()) break;
    if (sending_done && now > drain_deadline) break;

    int timeout_ms = 10;
    if (!sending_done) {
      itimerspec its{};
      its.it_value.tv_sec = next_due / 1'000'000'000;
      its.it_value.tv_nsec = next_due % 1'000'000'000;
      ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
      timeout_ms = -1;
    }
    const int n = ::epoll_wait(ep, events, 16, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const std::size_t idx = events[e].data.u64;
      if (idx == kConns) {
        std::uint64_t expirations = 0;
        if (::read(tfd, &expirations, sizeof(expirations)) < 0) {
          // EAGAIN after a re-arm raced the expiry; nothing to consume.
        }
        continue;
      }
      Conn& c = conns[idx];
      if ((events[e].events & EPOLLOUT) != 0 && !flush(ep, idx, c, record)) {
        ++lost_conns;
      }
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) {
          ++lost_conns;
          break;
        }
        const std::int64_t t = now_ns();
        c.in.append(chunk, static_cast<std::size_t>(got));
        wire::FrameView f;
        while (c.in.next(&f)) {
          std::uint64_t id = 0, value = 0;
          int status = 0;
          if (!wire::decode_response(f, &id, &status, &value) || id >= recs.size() ||
              recs[id].conn != idx) {
            ++misrouted;
            continue;
          }
          Rec& r = recs[id];
          if (r.answers.fetch_add(1, std::memory_order_relaxed) == 0) {
            r.done_ns = t;
            r.value = value;
            r.status = static_cast<std::uint8_t>(status);
            ++answered;
          }
        }
        if (c.in.poisoned()) {
          ++misrouted;
          ++lost_conns;
          break;
        }
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  ::close(tfd);
  ::close(ep);

  const CheckResult check = check_ledger(spec, recs);
  JsonLine out;
  out.num("sent", static_cast<double>(recs.size()));
  out.num("answered", static_cast<double>(answered));
  out.num("misrouted", static_cast<double>(misrouted));
  out.num("lost_conns", static_cast<double>(lost_conns));
  report_check(&out, check);
  report_latency(&out, recs);
  report_lateness(&out, recs);
  out.num("keys_per_range", keys_per_range(recs));
  if (record) out.num("decode_ns", decode_ns(conns));
  out.print();
  return check.errors() == 0 && misrouted == 0 && lost_conns == 0 ? 0 : 1;
}
