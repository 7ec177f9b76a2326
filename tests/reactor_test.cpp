// Lifecycle tests for the multi-reactor epoll front end (serve/reactor.hpp):
// a drain with pipelined requests in flight must answer every accepted
// request before the sockets close; a slow reader must be dropped by the
// outbound cap instead of buffering without bound; a recorded multi-reactor
// serve run must still be admissible under SI; requests served inline on
// the reactor must never overtake their own connection's queued requests;
// and updates run inline only while no shard worker executes, never when
// they are logged or recorded.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/verify.hpp"
#include "durability/wal.hpp"
#include "serve/kv_app.hpp"
#include "serve/net.hpp"
#include "serve/reactor.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace si::serve {
namespace {

/// A KvApp server on an ephemeral port. `App` is KvApp or a wrapper built
/// from the same (KvAppConfig, shards) pair; a non-empty `log_dir` turns the
/// write-ahead log on (buffered).
template <typename App>
struct BasicTestServer {
  ServiceConfig scfg;
  KvAppConfig acfg;
  std::unique_ptr<App> app;
  std::unique_ptr<Service<App>> svc;
  std::unique_ptr<ReactorPool<Service<App>>> pool;

  explicit BasicTestServer(
      int shards, int reactors, std::size_t max_outbuf = 4u << 20,
      si::check::HistoryRecorder* rec = nullptr,
      int max_threads = si::runtime::RuntimeConfig{}.max_threads,
      const std::string& log_dir = "") {
    scfg.shards = shards;
    scfg.runtime.backend = si::runtime::Backend::kSiHtm;
    scfg.runtime.recorder = rec;
    scfg.runtime.max_threads = max_threads;
    if (!log_dir.empty()) {
      scfg.durability.mode = si::durability::DurabilityMode::kBuffered;
      scfg.durability.dir = log_dir;
    }
    acfg.buckets = 64;
    acfg.seed_elements = 500;
    acfg.key_space = 1000;
    app = std::make_unique<App>(acfg, scfg.shards);
    svc = std::make_unique<Service<App>>(*app, scfg);
    ReactorConfig rcfg;
    rcfg.reactors = reactors;
    rcfg.port = 0;  // ephemeral
    rcfg.max_outbuf = max_outbuf;
    pool = std::make_unique<ReactorPool<Service<App>>>(*svc, rcfg);
    std::string err;
    if (!pool->start(&err)) {
      ADD_FAILURE() << "reactor pool failed to start: " << err;
    }
  }

  void shutdown() {
    pool->drain_begin();
    svc->stop();
    pool->finish();
  }
};

using TestServer = BasicTestServer<KvApp>;

int connect_or_die(std::uint16_t port) {
  std::string err;
  const int fd = net::connect_tcp("127.0.0.1", port, &err);
  EXPECT_GE(fd, 0) << err;
  return fd;
}

struct Answer {
  std::uint64_t id = 0;
  int status = -1;
  std::uint64_t value = 0;
};

/// Blocking-reads response frames from `fd` until `want` frames arrived,
/// EOF, or the deadline. Returns the answers in arrival order.
std::vector<Answer> read_answers(int fd, std::size_t want,
                                 int deadline_ms = 10'000) {
  std::vector<Answer> answers;
  wire::FrameParser parser;
  char chunk[16 * 1024];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (answers.size() < want &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    parser.append(chunk, static_cast<std::size_t>(n));
    wire::FrameView f;
    while (parser.next(&f)) {
      Answer a;
      EXPECT_TRUE(wire::decode_response(f, &a.id, &a.status, &a.value));
      answers.push_back(a);
    }
  }
  EXPECT_FALSE(parser.poisoned());
  return answers;
}

/// The correlation ids of read_answers().
std::vector<std::uint64_t> read_responses(int fd, std::size_t want,
                                          int deadline_ms = 10'000) {
  std::vector<std::uint64_t> ids;
  for (const Answer& a : read_answers(fd, want, deadline_ms)) {
    ids.push_back(a.id);
  }
  return ids;
}

// Drain with pipelined requests in flight: a client writes a whole pipeline
// window and the server begins shutdown immediately after — the final read
// sweep of drain_begin() must pull the requests out of the kernel buffer,
// the service must execute them, and finish() must flush every response
// before the socket closes. This is exactly the SIGTERM path of si_serve.
TEST(ReactorDrain, PipelinedInFlightRequestsAnsweredOnShutdown) {
  TestServer server(/*shards=*/2, /*reactors=*/2);
  const int fd = connect_or_die(server.pool->port());

  constexpr std::uint64_t kPipelined = 64;
  std::string batch;
  for (std::uint64_t i = 0; i < kPipelined; ++i) {
    wire::encode_request(&batch, /*id=*/1000 + i, KvApp::kPut,
                         /*key=*/i % 97, /*arg=*/i);
  }
  ASSERT_TRUE(net::send_all(fd, batch.data(), batch.size()));

  // Give the reactor a moment to accept the connection; the *requests* may
  // still be sitting unread in the kernel buffer when the drain starts —
  // that is the case under test.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.shutdown();

  const auto ids = read_responses(fd, kPipelined);
  ::close(fd);

  ASSERT_EQ(ids.size(), kPipelined) << "responses lost across the drain";
  std::set<std::uint64_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), kPipelined) << "duplicate correlation ids";
  for (std::uint64_t i = 0; i < kPipelined; ++i) {
    EXPECT_TRUE(uniq.count(1000 + i)) << "id " << 1000 + i << " missing";
  }

  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.requests, kPipelined);
  // The first put finds its connection idle and may run inline.
  EXPECT_EQ(stats.completions + stats.rejected + stats.inline_updates,
            kPipelined);
  EXPECT_EQ(stats.parse_errors, 0u);
}

// A client that writes requests but never reads responses must be killed by
// the per-connection outbound cap — buffering stays bounded and no shard
// worker or other connection ever blocks on the slow reader.
TEST(ReactorBackpressure, SlowReaderIsDroppedByOutboundCap) {
  TestServer server(/*shards=*/1, /*reactors=*/1, /*max_outbuf=*/256);
  const int fd = connect_or_die(server.pool->port());
  // A tiny receive window keeps the kernel from absorbing the responses the
  // test wants stuck in the server's user-space outbound buffer.
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  // Keep writing without ever reading until the server resets us (or we have
  // offered far more than the cap plus any plausible kernel buffering).
  std::string batch;
  for (std::uint64_t i = 0; i < 256; ++i) {
    wire::encode_request(&batch, i, KvApp::kGet, i % 97, 0);
  }
  bool reset = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int round = 0; round < 4096; ++round) {
    std::size_t off = 0;
    while (off < batch.size()) {
      const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        reset = true;  // EPIPE/ECONNRESET: the server dropped us
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (reset || std::chrono::steady_clock::now() > deadline) break;
  }
  ::close(fd);
  EXPECT_TRUE(reset) << "server never dropped the slow reader";

  server.shutdown();
  const auto stats = server.pool->stats();
  EXPECT_GE(stats.overflow_drops, 1u);
  EXPECT_GE(stats.conns_dropped, 1u);
}

// A recorded multi-reactor serve run must be admissible under SI. One shard
// keeps the backend single-threaded so the recorded history is exact (see
// check/history.hpp); the front end still exercises two reactors and four
// pipelined connections routing completions back through the rings.
TEST(ReactorHistory, MultiReactorServeRunPassesSiChecker) {
  si::check::HistoryRecorder rec(1);
  TestServer server(/*shards=*/1, /*reactors=*/2, /*max_outbuf=*/4u << 20,
                    &rec);

  constexpr int kConns = 4;
  constexpr std::uint64_t kRounds = 8;
  constexpr std::uint64_t kPerRound = 16;
  int fds[kConns];
  for (int c = 0; c < kConns; ++c) fds[c] = connect_or_die(server.pool->port());

  std::uint64_t sent[kConns] = {};
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    // Interleave: write one pipelined window on every connection, then
    // collect every window, so both reactors hold in-flight requests at
    // once and completions interleave across the rings.
    for (int c = 0; c < kConns; ++c) {
      std::string batch;
      for (std::uint64_t i = 0; i < kPerRound; ++i) {
        const std::uint64_t id =
            (static_cast<std::uint64_t>(c) << 32) | (round * kPerRound + i);
        const std::uint64_t key = (id * 2654435761u) % 500;
        const std::uint16_t op = i % 3 == 0   ? KvApp::kPut
                                 : i % 3 == 1 ? KvApp::kGet
                                              : KvApp::kDel;
        wire::encode_request(&batch, id, op, key, id);
        ++sent[c];
      }
      ASSERT_TRUE(net::send_all(fds[c], batch.data(), batch.size()));
    }
    for (int c = 0; c < kConns; ++c) {
      const auto ids = read_responses(fds[c], kPerRound);
      ASSERT_EQ(ids.size(), kPerRound)
          << "conn " << c << " round " << round;
      for (std::uint64_t id : ids) {
        EXPECT_EQ(id >> 32, static_cast<std::uint64_t>(c))
            << "response routed to the wrong connection";
      }
    }
  }
  for (int c = 0; c < kConns; ++c) ::close(fds[c]);
  server.shutdown();

  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.requests, kConns * kRounds * kPerRound);
  EXPECT_EQ(stats.parse_errors, 0u);

  const auto verdict = si::check::verify_si(rec.merged());
  EXPECT_TRUE(verdict.ok()) << si::check::describe(verdict);
  EXPECT_GT(verdict.committed, 0u);
  EXPECT_GT(verdict.reads_checked, 0u);
}

// One connection, kRounds rounds. Each round first gets the previous
// round's keys one frame at a time, waiting for each answer: the connection
// is idle, so these run inline where the server allows it. Then it sends
// put(K, v) immediately followed by get(K) for kKeys fresh keys in a single
// send: a put that finds its connection idle may run inline, and the get
// behind it then runs right after it; once a frame of the send is queued,
// every later one sits behind an in-flight request of its own connection,
// so it must queue too. Either way each get returns v. Returns every get's
// value in request order, so runs with and without the inline path can be
// compared.
std::vector<std::uint64_t> put_get_rounds(TestServer& server) {
  constexpr std::uint64_t kRounds = 40;
  constexpr std::uint64_t kKeys = 32;
  const int fd = connect_or_die(server.pool->port());
  std::vector<std::uint64_t> got;
  std::map<std::uint64_t, std::uint64_t> written;  // key -> last put value
  std::vector<std::uint64_t> prev_keys;
  std::uint64_t next_id = 1;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t key : prev_keys) {
      std::string frame;
      wire::encode_request(&frame, next_id++, KvApp::kGet, key, 0);
      EXPECT_TRUE(net::send_all(fd, frame.data(), frame.size()));
      const auto a = read_answers(fd, 1);
      if (a.size() != 1) {
        ADD_FAILURE() << "idle get of key " << key << " unanswered";
        ::close(fd);
        return got;
      }
      EXPECT_EQ(a[0].status, static_cast<int>(Status::kOk));
      EXPECT_EQ(a[0].value, written[key]) << "idle get, key " << key;
      got.push_back(a[0].value);
    }
    std::string batch;
    std::map<std::uint64_t, std::uint64_t> get_key;  // get id -> key
    prev_keys.clear();
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      // Distinct keys within a round; a key comes back every few rounds.
      const std::uint64_t key = ((round % 8) * kKeys + k) * 3 % 1000;
      const std::uint64_t value = (round << 32) | (k + 1);
      wire::encode_request(&batch, next_id++, KvApp::kPut, key, value);
      get_key[next_id] = key;
      wire::encode_request(&batch, next_id++, KvApp::kGet, key, 0);
      written[key] = value;
      prev_keys.push_back(key);
    }
    EXPECT_TRUE(net::send_all(fd, batch.data(), batch.size()));
    const auto answers = read_answers(fd, 2 * kKeys);
    EXPECT_EQ(answers.size(), 2 * kKeys) << "round " << round;
    std::map<std::uint64_t, std::uint64_t> by_id;
    for (const Answer& a : answers) {
      EXPECT_EQ(a.status, static_cast<int>(Status::kOk));
      by_id[a.id] = a.value;
    }
    for (const auto& [id, key] : get_key) {
      EXPECT_EQ(by_id[id], written[key])
          << "get overtook its put: round " << round << " key " << key;
      got.push_back(by_id[id]);
    }
    prev_keys.resize(4);
  }
  ::close(fd);
  return got;
}

template <typename Server>
void expect_drained(Server& server) {
  const auto c = server.svc->counters();
  EXPECT_EQ(c.accepted, c.completed);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(server.pool->stats().parse_errors, 0u);
}

// Per-key FIFO on one shard: a get pipelined behind its connection's put
// never runs inline ahead of it.
TEST(ReactorInline, PipelinedGetSeesItsPutOnOneShard) {
  TestServer server(/*shards=*/1, /*reactors=*/1);
  put_get_rounds(server);
  server.shutdown();
  expect_drained(server);
  EXPECT_GT(server.pool->stats().inline_reads, 0u);
}

TEST(ReactorInline, PipelinedGetSeesItsPutOnTwoShards) {
  TestServer server(/*shards=*/2, /*reactors=*/2);
  put_get_rounds(server);
  server.shutdown();
  expect_drained(server);
  EXPECT_GT(server.pool->stats().inline_reads, 0u);
}

// Gets on an idle connection skip the shard queues, and count as accepted
// and completed like any other request.
TEST(ReactorInline, IdleConnectionGetsRunInline) {
  TestServer server(/*shards=*/2, /*reactors=*/1);
  const int fd = connect_or_die(server.pool->port());
  constexpr std::uint64_t kGets = 64;
  for (std::uint64_t i = 0; i < kGets; ++i) {
    std::string frame;
    wire::encode_request(&frame, i, KvApp::kGet, i * 7 % 1000, 0);
    ASSERT_TRUE(net::send_all(fd, frame.data(), frame.size()));
    ASSERT_EQ(read_responses(fd, 1).size(), 1u) << "get " << i;
  }
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.inline_reads, kGets);
  EXPECT_EQ(stats.completions, 0u) << "an idle get went through the ring";
  EXPECT_EQ(server.svc->counters().completed, kGets);
}

// With no runtime tid to spare every request goes through the shards, and
// the answers are the same as with the inline path.
TEST(ReactorInline, NoSpareTidKeepsReadsOnTheShards) {
  TestServer with(/*shards=*/2, /*reactors=*/1);
  const auto inline_answers = put_get_rounds(with);
  with.shutdown();
  EXPECT_GT(with.pool->stats().inline_reads, 0u);

  TestServer without(/*shards=*/2, /*reactors=*/1, /*max_outbuf=*/4u << 20,
                     /*rec=*/nullptr, /*max_threads=*/2);
  const auto shard_answers = put_get_rounds(without);
  without.shutdown();
  expect_drained(without);
  EXPECT_EQ(without.pool->stats().inline_reads, 0u);
  EXPECT_EQ(inline_answers, shard_answers);
}

// A recorded run keeps the backend single-threaded, so the history stays
// exact: no reader attaches and the verifier still passes.
TEST(ReactorInline, RecordedRunKeepsReadsOnTheShards) {
  si::check::HistoryRecorder rec(1);
  TestServer server(/*shards=*/1, /*reactors=*/1, /*max_outbuf=*/4u << 20,
                    &rec);
  put_get_rounds(server);
  server.shutdown();
  expect_drained(server);
  EXPECT_EQ(server.pool->stats().inline_reads, 0u);
  const auto verdict = si::check::verify_si(rec.merged());
  EXPECT_TRUE(verdict.ok()) << si::check::describe(verdict);
  EXPECT_GT(verdict.reads_checked, 0u);
}

/// Sends one request on an idle connection and returns its answer.
Answer call_one(int fd, std::uint64_t id, std::uint16_t op, std::uint64_t key,
                std::uint64_t arg) {
  std::string frame;
  wire::encode_request(&frame, id, op, key, arg);
  EXPECT_TRUE(net::send_all(fd, frame.data(), frame.size()));
  const auto answers = read_answers(fd, 1);
  EXPECT_EQ(answers.size(), 1u) << "request " << id;
  return answers.empty() ? Answer{} : answers[0];
}

/// Keys at and above this were never preloaded (the preload may hold a key
/// twice, so a del of a preloaded key can leave a copy behind).
constexpr std::uint64_t kFreshKeys = 2000;

// Puts and dels on an idle connection, with every shard worker idle, run on
// the reactor like idle gets: nothing goes through the ring, and they count
// as accepted and completed.
TEST(ReactorInline, IdleConnectionPutsRunInline) {
  TestServer server(/*shards=*/2, /*reactors=*/1);
  const int fd = connect_or_die(server.pool->port());
  constexpr std::uint64_t kPuts = 64;
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    const Answer a = call_one(fd, id++, KvApp::kPut, kFreshKeys + i, i + 1);
    EXPECT_EQ(a.status, static_cast<int>(Status::kOk)) << "put " << i;
  }
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    EXPECT_EQ(call_one(fd, id++, KvApp::kGet, kFreshKeys + i, 0).value, i + 1)
        << "get " << i;
  }
  EXPECT_EQ(call_one(fd, id++, KvApp::kDel, kFreshKeys, 0).value, 1u);
  EXPECT_EQ(call_one(fd, id++, KvApp::kGet, kFreshKeys, 0).value, 0u);
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.inline_updates, kPuts + 1);
  EXPECT_EQ(stats.inline_reads, kPuts + 1);
  EXPECT_EQ(stats.completions, 0u) << "an idle update went through the ring";
  EXPECT_EQ(server.svc->counters().completed, id);
}

/// KvApp whose shard worker blocks inside a request on kGateKey until the
/// test opens the gate, so the test controls when a worker is mid-batch.
struct GatedKvApp {
  static constexpr std::uint64_t kGateKey = 999;

  GatedKvApp(const KvAppConfig& cfg, int shards) : inner(cfg, shards) {}

  static InlineOp inline_op(std::uint16_t op) noexcept {
    return KvApp::inline_op(op);
  }

  void execute(si::runtime::Runtime& rt, int tid, const Request& req,
               Response* resp) {
    if (req.key == kGateKey) {
      entered.store(true, std::memory_order_release);
      while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    inner.execute(rt, tid, req, resp);
  }

  /// Submits a put on kGateKey and waits until its worker holds it.
  template <typename ServiceT>
  void hold_worker(ServiceT& svc) {
    Request req;
    req.op = KvApp::kPut;
    req.key = kGateKey;
    req.arg = 1;
    EXPECT_TRUE(svc.submit(req).accepted());
    while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  KvApp inner;
  std::atomic<bool> open{false};
  std::atomic<bool> entered{false};
};

/// Opens the gate on scope exit, so a failed assertion cannot leave stop()
/// waiting on a held worker.
struct GateOpener {
  GatedKvApp& app;
  ~GateOpener() { app.open.store(true, std::memory_order_release); }
};

// A request pipelined behind its own connection's queued request runs after
// it. The held worker makes the first put queue; the put and get behind it
// find the connection busy and queue too, so the get returns the second
// put's value once the worker is released. Without the idle-connection rule
// the get would run inline at once and read the preloaded value.
TEST(ReactorInline, PipelinedPutRunsAfterItsConnectionsQueuedRequest) {
  BasicTestServer<GatedKvApp> server(/*shards=*/1, /*reactors=*/1);
  GateOpener opener{*server.app};
  server.app->hold_worker(*server.svc);
  const int fd = connect_or_die(server.pool->port());
  constexpr std::uint64_t kKey = 5;
  std::string batch;
  wire::encode_request(&batch, 1, KvApp::kPut, kKey, 101);
  wire::encode_request(&batch, 2, KvApp::kPut, kKey, 102);
  wire::encode_request(&batch, 3, KvApp::kGet, kKey, 0);
  ASSERT_TRUE(net::send_all(fd, batch.data(), batch.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.svc->counters().accepted < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.app->open.store(true, std::memory_order_release);
  std::map<std::uint64_t, Answer> by_id;
  for (const Answer& a : read_answers(fd, 3)) by_id[a.id] = a;
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id[3].value, 102u) << "the get overtook its connection's puts";
  EXPECT_EQ(call_one(fd, 4, KvApp::kGet, kKey, 0).value, 102u);
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.inline_updates, 0u);
  EXPECT_EQ(stats.completions, 3u);
}

// While a worker is blocked mid-batch, a put from an idle connection is
// submitted, not inlined — even one whose own shard is idle: an inline
// update needs every shard's lease.
TEST(ReactorInline, PutWhileAWorkerIsMidBatchIsSubmitted) {
  BasicTestServer<GatedKvApp> server(/*shards=*/2, /*reactors=*/1);
  GateOpener opener{*server.app};
  const int held_shard = server.svc->shard_of(GatedKvApp::kGateKey);
  std::uint64_t key = 1;
  while (server.svc->shard_of(key) == held_shard) ++key;
  server.app->hold_worker(*server.svc);
  const int fd = connect_or_die(server.pool->port());
  // Answered by the other shard's worker while the gate is still closed.
  const Answer a = call_one(fd, 1, KvApp::kPut, key, 7);
  EXPECT_EQ(a.status, static_cast<int>(Status::kOk));
  server.app->open.store(true, std::memory_order_release);
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.completions, 1u);
  EXPECT_EQ(stats.inline_updates, 0u);
}

/// Fresh log directory under /tmp, removed (with its shard logs) on exit.
struct LogDir {
  std::string path;
  LogDir() {
    char tmpl[] = "/tmp/si-reactor-test-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~LogDir() {
    for (std::uint32_t s = 0; s < 8; ++s) {
      std::remove(si::durability::shard_log_path(path, s).c_str());
    }
    ::rmdir(path.c_str());
  }
};

// With the WAL on, puts and dels are logged, so they stay on the workers and
// wait for their group's flush: none runs inline, and a put's ack never
// reaches the client before its shard's durable LSN covers it. Gets still
// run inline.
TEST(ReactorInline, DurableUpdatesStayOnTheWorkers) {
  LogDir dir;
  TestServer server(/*shards=*/2, /*reactors=*/1, /*max_outbuf=*/4u << 20,
                    /*rec=*/nullptr,
                    si::runtime::RuntimeConfig{}.max_threads, dir.path);
  const int fd = connect_or_die(server.pool->port());
  constexpr std::uint64_t kPuts = 64;
  std::uint64_t logged[2] = {0, 0};  // records appended per shard so far
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    const std::uint64_t key = kFreshKeys + i % 16;
    const int shard = server.svc->shard_of(key);
    const std::uint16_t op = i % 8 == 7 ? KvApp::kDel : KvApp::kPut;
    EXPECT_EQ(call_one(fd, id++, op, key, i + 1).status,
              static_cast<int>(Status::kOk));
    ++logged[shard];
    EXPECT_GE(server.svc->durable_lsn(shard), logged[shard])
        << "ack " << i << " preceded its durable LSN";
    EXPECT_EQ(call_one(fd, id++, KvApp::kGet, key, 0).value,
              op == KvApp::kPut ? i + 1 : 0);
  }
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.inline_updates, 0u);
  EXPECT_EQ(stats.completions, kPuts);
  EXPECT_EQ(stats.inline_reads, kPuts);
}

// A recorded run keeps updates on the shard workers too, so the history
// stays single-threaded and exact.
TEST(ReactorInline, RecordedRunKeepsUpdatesOnTheShards) {
  si::check::HistoryRecorder rec(1);
  TestServer server(/*shards=*/1, /*reactors=*/1, /*max_outbuf=*/4u << 20,
                    &rec);
  const int fd = connect_or_die(server.pool->port());
  constexpr std::uint64_t kPuts = 32;
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    EXPECT_EQ(call_one(fd, id++, KvApp::kPut, i, i + 1).status,
              static_cast<int>(Status::kOk));
    EXPECT_EQ(call_one(fd, id++, KvApp::kGet, i, 0).value, i + 1);
  }
  ::close(fd);
  server.shutdown();
  expect_drained(server);
  const auto stats = server.pool->stats();
  EXPECT_EQ(stats.inline_updates, 0u);
  EXPECT_EQ(stats.inline_reads, 0u);
  EXPECT_EQ(stats.completions, 2 * kPuts);
  const auto verdict = si::check::verify_si(rec.merged());
  EXPECT_TRUE(verdict.ok()) << si::check::describe(verdict);
}

}  // namespace
}  // namespace si::serve
