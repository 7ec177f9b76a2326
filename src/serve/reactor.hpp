// Multi-reactor epoll front end for the serving layer (DESIGN.md §12).
//
// ReactorPool<Service> runs N reactor threads. Each reactor owns:
//
//  * its own SO_REUSEPORT listening socket on the shared port — the kernel
//    load-balances incoming connections across the listeners, so there is no
//    accept hand-off and no shared accept lock;
//  * a private connection table — a connection lives its whole life on the
//    reactor that accepted it, so all per-connection state (frame parser,
//    outbound buffers, in-flight count) is single-threaded and lock-free;
//  * an MPSC completion ring + eventfd doorbell — shard workers complete
//    requests by pushing a 32-byte record onto the owning reactor's ring
//    (wait-free except when the ring is momentarily full) and ringing the
//    doorbell once per quiet period; the reactor drains the ring on wakeup,
//    encodes all completions of the wakeup back-to-back, and flushes each
//    connection once with writev. No lock is ever taken on the hot path in
//    either direction;
//  * a runtime tid of its own (Service::attach_reader) on which it serves
//    requests inline: a get that arrives on a connection with nothing in
//    flight runs SI-HTM's read-only path right in parse_and_submit, and an
//    unlogged put or del runs there too, on its shard's tid, when no shard
//    worker is executing (Service::serve_inline takes every shard's lease).
//    The response is encoded straight into the connection's buffer — no
//    shard queue, no worker wake-up, no ring, no doorbell. A frame behind an
//    in-flight request of its own connection is submitted as before, so a
//    request pipelined behind its connection's queued one still runs after
//    it.
//
// Wire format: the length-prefixed binary protocol of serve/wire.hpp, with
// client-chosen correlation ids, so clients pipeline arbitrarily many
// requests per connection and responses may interleave across shards.
//
// Backpressure composes with the service's two-level scheme: admission
// rejections are answered inline by the reactor (status kRejected + retry
// hint), and a per-connection outbound cap bounds what a slow reader can
// buffer server-side — a client that stops reading loses its connection,
// never stalls a shard worker or another connection.
//
// Shutdown is three-phase, driven by the owner (tools/si_serve.cpp):
//   1. drain_begin(): stop accepting, take one final read sweep so requests
//      already in kernel buffers are parsed and submitted, then quiesce the
//      read side;
//   2. the owner calls Service::stop(), which drains every accepted request
//      (completions keep landing on the still-running reactors);
//   3. finish(): reactors drain their completion rings a final time, flush
//      each connection with a bounded wait, close everything and exit.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/net.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/wire.hpp"

namespace si::serve {

struct ReactorConfig {
  int reactors = 2;
  std::uint16_t port = 7070;    ///< 0 = ephemeral (resolved at start())
  int listen_backlog = 4096;
  /// Outbound cap per connection: a client this far behind has stopped
  /// reading; drop it rather than buffer responses without bound.
  std::size_t max_outbuf = 4u << 20;
  /// Optional per-reactor telemetry (one slot per reactor): completions
  /// coalesced per wakeup and bytes per writev land in the reactor_batch /
  /// reactor_flush_bytes histograms.
  si::obs::Metrics* metrics = nullptr;
};

/// Per-reactor counters, harvested after the run (owner-thread writes only).
struct ReactorStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_dropped = 0;   ///< protocol error, overflow, or EOF
  std::uint64_t requests = 0;        ///< frames decoded (inline or submitted)
  std::uint64_t parse_errors = 0;    ///< poisoned streams + bad payloads
  std::uint64_t rejected = 0;        ///< admission refusals answered inline
  std::uint64_t completions = 0;     ///< responses routed back through the ring
  std::uint64_t inline_reads = 0;    ///< point reads served on the reactor
  std::uint64_t inline_updates = 0;  ///< updates served on the reactor
  std::uint64_t wakeups = 0;         ///< completion-drain passes that found work
  std::uint64_t flushes = 0;         ///< writev calls
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t overflow_drops = 0;  ///< connections killed by the outbuf cap

  ReactorStats& operator+=(const ReactorStats& o) noexcept {
    conns_accepted += o.conns_accepted;
    conns_dropped += o.conns_dropped;
    requests += o.requests;
    parse_errors += o.parse_errors;
    rejected += o.rejected;
    completions += o.completions;
    inline_reads += o.inline_reads;
    inline_updates += o.inline_updates;
    wakeups += o.wakeups;
    flushes += o.flushes;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    overflow_drops += o.overflow_drops;
    return *this;
  }
};

template <typename ServiceT>
class ReactorPool {
 public:
  ReactorPool(ServiceT& service, ReactorConfig cfg)
      : service_(service), cfg_(fixup(std::move(cfg))) {}

  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  ~ReactorPool() {
    if (!started_) return;
    if (!draining_.load(std::memory_order_acquire)) drain_begin();
    if (!finished_) finish();
  }

  /// Binds the listeners and launches the reactor threads. Returns false
  /// with `*err` set on any socket/epoll failure.
  bool start(std::string* err) {
    reactors_.reserve(static_cast<std::size_t>(cfg_.reactors));
    for (int r = 0; r < cfg_.reactors; ++r) {
      auto reactor = std::make_unique<Reactor>(*this, r);
      // The first listener may bind port 0; the rest share its resolved port
      // so every reactor's SO_REUSEPORT socket joins the same group.
      const std::uint16_t port = r == 0 ? cfg_.port : port_;
      if (!reactor->open(port, cfg_.listen_backlog, err)) return false;
      if (r == 0) port_ = net::local_port(reactor->listen_fd());
      reactors_.push_back(std::move(reactor));
    }
    for (auto& r : reactors_) r->launch();
    started_ = true;
    return true;
  }

  std::uint16_t port() const noexcept { return port_; }
  int reactors() const noexcept { return cfg_.reactors; }
  const ReactorConfig& config() const noexcept { return cfg_; }

  /// Phase 1 of shutdown: stop accepting, sweep what is already readable
  /// into the service, quiesce the read side. Returns once every reactor
  /// acknowledged. Call Service::stop() after this, then finish().
  void drain_begin() {
    draining_.store(true, std::memory_order_release);
    for (auto& r : reactors_) r->ring_doorbell();
    for (auto& r : reactors_) {
      while (!r->quiesced()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Phase 3: drain remaining completions, flush, close, join.
  void finish() {
    finishing_.store(true, std::memory_order_release);
    for (auto& r : reactors_) r->ring_doorbell();
    for (auto& r : reactors_) r->join();
    finished_ = true;
  }

  /// Summed counters over all reactors (exact once finish() returned).
  ReactorStats stats() const {
    ReactorStats total;
    for (const auto& r : reactors_) total += r->stats();
    return total;
  }

  const ReactorStats& stats_of(int reactor) const {
    return reactors_[static_cast<std::size_t>(reactor)]->stats();
  }

 private:
  class Reactor;

  /// One connection; touched only by its owning reactor thread (shard
  /// workers hand responses back through the completion ring, never through
  /// this struct).
  struct Conn {
    int fd = -1;
    Reactor* owner = nullptr;
    wire::FrameParser in;
    /// Flush state: `out` holds bytes the socket has not taken (consumed
    /// from out_off), `fresh` the responses encoded since the last flush;
    /// flush() hands both to one writev.
    std::string out;
    std::size_t out_off = 0;
    std::string fresh;
    int inflight = 0;      ///< submitted, completion not yet drained
    std::size_t index = 0; ///< position in the reactor's table (swap-pop)
    bool alive = true;
    bool want_write = false;  ///< EPOLLOUT currently registered
    bool dirty = false;       ///< queued in this wakeup's flush list

    std::size_t buffered() const noexcept {
      return (out.size() - out_off) + fresh.size();
    }
  };

  /// Completion record shard workers push onto the owning reactor's ring.
  struct Completion {
    Conn* conn = nullptr;
    std::uint64_t id = 0;
    std::uint64_t value = 0;
    Status status = Status::kOk;
  };

  static void on_complete(void* ctx, const Response& resp) {
    auto* conn = static_cast<Conn*>(ctx);
    conn->owner->post(conn, resp);
  }

  class Reactor {
   public:
    Reactor(ReactorPool& pool, int id)
        : pool_(pool),
          id_(id),
          // In-flight responses are bounded by what the shard queues can
          // hold plus one batch per worker; size the ring to take all of it
          // so workers virtually never spin on a full ring.
          ring_(static_cast<std::size_t>(pool.service_.shards()) *
                    (pool.service_.config().queue_capacity +
                     pool.service_.config().batch_max) +
                1024) {}

    ~Reactor() {
      for (Conn* c : conns_) {
        ::close(c->fd);
        delete c;
      }
      if (listen_fd_ >= 0) ::close(listen_fd_);
      if (epoll_fd_ >= 0) ::close(epoll_fd_);
      if (event_fd_ >= 0) ::close(event_fd_);
    }

    bool open(std::uint16_t port, int backlog, std::string* err) {
      listen_fd_ = net::listen_tcp_reuseport(port, backlog, err);
      if (listen_fd_ < 0) return false;
      net::set_nonblocking(listen_fd_);
      epoll_fd_ = ::epoll_create1(0);
      event_fd_ = ::eventfd(0, EFD_NONBLOCK);
      if (epoll_fd_ < 0 || event_fd_ < 0) {
        if (err != nullptr) *err = "epoll_create1/eventfd failed";
        return false;
      }
      add_fd(listen_fd_, EPOLLIN, &listen_tag_);
      add_fd(event_fd_, EPOLLIN, &event_tag_);
      return true;
    }

    void launch() { thread_ = std::thread([this] { loop(); }); }
    void join() {
      if (thread_.joinable()) thread_.join();
    }

    int listen_fd() const noexcept { return listen_fd_; }
    bool quiesced() const noexcept {
      return quiesced_.load(std::memory_order_acquire);
    }
    const ReactorStats& stats() const noexcept { return stats_; }

    /// Called from shard worker threads: queue the response for this
    /// reactor and ring the doorbell if nobody has since the last drain.
    void post(Conn* conn, const Response& resp) {
      Completion comp{conn, resp.id, resp.value, resp.status};
      while (ring_.try_push(comp) != Admit::kAccepted) {
        // Ring full: the reactor is a drain away; yield until a cell frees.
        std::this_thread::yield();
      }
      ring_doorbell();
    }

    void ring_doorbell() {
      if (!doorbell_.exchange(true, std::memory_order_acq_rel)) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(event_fd_, &one, sizeof(one));
      }
    }

   private:
    static constexpr int kMaxEvents = 256;

    void add_fd(int fd, std::uint32_t events, void* tag) {
      epoll_event ev{};
      ev.events = events;
      ev.data.ptr = tag;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }

    void mod_conn(Conn* c, bool want_write) {
      if (c->want_write == want_write) return;
      epoll_event ev{};
      ev.events =
          EPOLLIN | (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.ptr = c;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->want_write = want_write;
    }

    void loop() {
      reader_tid_ = pool_.service_.attach_reader();
      epoll_event events[kMaxEvents];
      std::vector<Conn*> flush_list;
      bool read_side_open = true;

      for (;;) {
        const bool finishing =
            pool_.finishing_.load(std::memory_order_acquire);
        const int n_ev =
            ::epoll_wait(epoll_fd_, events, kMaxEvents, finishing ? 0 : 100);

        if (read_side_open &&
            pool_.draining_.load(std::memory_order_acquire)) {
          quiesce_reads();
          read_side_open = false;
        }

        for (int i = 0; i < n_ev; ++i) {
          void* tag = events[i].data.ptr;
          if (tag == &listen_tag_) {
            if (read_side_open) accept_ready();
            continue;
          }
          if (tag == &event_tag_) {
            std::uint64_t drainv;
            while (::read(event_fd_, &drainv, sizeof(drainv)) > 0) {
            }
            continue;
          }
          auto* conn = static_cast<Conn*>(tag);
          if (!conn->alive) continue;  // already killed earlier this pass
          const std::uint32_t ev = events[i].events;
          if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
            kill_conn(conn);
            continue;
          }
          if ((ev & EPOLLOUT) != 0) {
            if (!flush(conn)) {
              kill_conn(conn);
              continue;
            }
          }
          if ((ev & EPOLLIN) != 0 && read_side_open) {
            if (!read_ready(conn, flush_list)) {
              kill_conn(conn);
              continue;
            }
          } else if ((ev & EPOLLIN) != 0 && !read_side_open) {
            // Read side quiesced: discard so a streaming client cannot keep
            // the socket readable forever (its requests are refused anyway).
            char sink[4096];
            while (::recv(conn->fd, sink, sizeof(sink), 0) > 0) {
            }
          }
        }

        drain_completions(flush_list);
        flush_all(flush_list);
        reap_dead();

        if (finishing && ring_.empty()) break;
      }

      final_flush_all();
    }

    void accept_ready() {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // EAGAIN or transient error: try next wakeup
        net::set_nonblocking(fd);
        net::set_nodelay(fd);
        auto* conn = new Conn;
        conn->fd = fd;
        conn->owner = this;
        conn->index = conns_.size();
        conns_.push_back(conn);
        add_fd(fd, EPOLLIN, conn);
        ++stats_.conns_accepted;
      }
    }

    /// Reads once (until EAGAIN), parses complete frames, submits. Returns
    /// false when the connection must be dropped (EOF, error, poisoned
    /// stream, bad payload).
    bool read_ready(Conn* conn, std::vector<Conn*>& flush_list) {
      char chunk[64 * 1024];
      for (;;) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          stats_.bytes_in += static_cast<std::uint64_t>(n);
          conn->in.append(chunk, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
          continue;  // possibly more queued than one buffer
        }
        if (n == 0) return false;  // EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      return parse_and_submit(conn, flush_list);
    }

    bool parse_and_submit(Conn* conn, std::vector<Conn*>& flush_list) {
      wire::FrameView f;
      while (conn->in.next(&f)) {
        Request req;
        if (!wire::decode_request(f, &req.id, &req.op, &req.key, &req.arg)) {
          ++stats_.parse_errors;
          return false;  // wrong payload size: peer speaks something else
        }
        ++stats_.requests;
        // Inline only on an idle connection: a frame behind one of its own
        // in-flight requests must not overtake it (per-key FIFO).
        if (reader_tid_ >= 0 && conn->inflight == 0) {
          Response resp;
          const InlineOp ran =
              pool_.service_.serve_inline(reader_tid_, req, &resp);
          if (ran != InlineOp::kNone) {
            wire::encode_response(&conn->fresh, resp);
            ++(ran == InlineOp::kRead ? stats_.inline_reads
                                      : stats_.inline_updates);
            mark_dirty(conn, flush_list);
            continue;
          }
        }
        req.done = &ReactorPool::on_complete;
        req.ctx = conn;
        const auto sr = pool_.service_.submit(req);
        if (sr.accepted()) {
          ++conn->inflight;
        } else {
          Response resp;
          resp.id = req.id;
          resp.status = Status::kRejected;
          resp.value = sr.retry_hint_us;
          wire::encode_response(&conn->fresh, resp);
          ++stats_.rejected;
          mark_dirty(conn, flush_list);
        }
      }
      if (conn->in.poisoned()) {
        ++stats_.parse_errors;
        return false;
      }
      return true;
    }

    /// Pops everything the shard workers queued since the last pass and
    /// encodes it into the owning connections' fresh buffers. One wakeup's
    /// completions coalesce into at most one flush per connection.
    void drain_completions(std::vector<Conn*>& flush_list) {
      doorbell_.store(false, std::memory_order_release);
      std::uint64_t drained = 0;
      Completion batch[256];
      for (;;) {
        const std::size_t n = ring_.pop_batch(batch, 256);
        if (n == 0) break;
        drained += n;
        for (std::size_t i = 0; i < n; ++i) {
          Conn* conn = batch[i].conn;
          --conn->inflight;
          if (!conn->alive) continue;  // dropped while the request ran
          Response resp;
          resp.id = batch[i].id;
          resp.value = batch[i].value;
          resp.status = batch[i].status;
          wire::encode_response(&conn->fresh, resp);
          mark_dirty(conn, flush_list);
        }
      }
      if (drained > 0) {
        stats_.completions += drained;
        ++stats_.wakeups;
        if (pool_.cfg_.metrics != nullptr) {
          pool_.cfg_.metrics->of(id_).reactor_batch.record(drained);
        }
      }
    }

    void mark_dirty(Conn* conn, std::vector<Conn*>& flush_list) {
      if (!conn->dirty) {
        conn->dirty = true;
        flush_list.push_back(conn);
      }
    }

    void flush_all(std::vector<Conn*>& flush_list) {
      for (Conn* conn : flush_list) {
        conn->dirty = false;
        if (!conn->alive) continue;
        if (conn->buffered() > pool_.cfg_.max_outbuf) {
          ++stats_.overflow_drops;
          kill_conn(conn);
          continue;
        }
        if (!flush(conn)) kill_conn(conn);
      }
      flush_list.clear();
    }

    /// One writev over [out remainder, fresh]; whatever the socket does not
    /// take is folded back into `out`. Returns false on a fatal error.
    bool flush(Conn* conn) {
      iovec iov[2];
      int iovcnt = 0;
      if (conn->out.size() > conn->out_off) {
        iov[iovcnt++] = {conn->out.data() + conn->out_off,
                         conn->out.size() - conn->out_off};
      }
      if (!conn->fresh.empty()) {
        iov[iovcnt++] = {conn->fresh.data(), conn->fresh.size()};
      }
      if (iovcnt == 0) {
        mod_conn(conn, false);
        return true;
      }
      ssize_t n;
      do {
        n = ::writev(conn->fd, iov, iovcnt);
      } while (n < 0 && errno == EINTR);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
      std::size_t took = n > 0 ? static_cast<std::size_t>(n) : 0;
      if (n > 0) {
        ++stats_.flushes;
        stats_.bytes_out += took;
        if (pool_.cfg_.metrics != nullptr) {
          pool_.cfg_.metrics->of(id_).reactor_flush_bytes.record(took);
        }
      }
      const std::size_t out_left = conn->out.size() - conn->out_off;
      if (took >= out_left) {
        took -= out_left;
        conn->out.clear();
        conn->out_off = 0;
        if (took >= conn->fresh.size()) {
          conn->fresh.clear();
        } else {
          conn->out.assign(conn->fresh, took, std::string::npos);
          conn->fresh.clear();
        }
      } else {
        conn->out_off += took;
        conn->out.append(conn->fresh);
        conn->fresh.clear();
        // Lazy compaction, same policy as the frame parser: drop the dead
        // prefix only once it outgrows the live remainder.
        if (conn->out_off >= conn->out.size() - conn->out_off) {
          conn->out.erase(0, conn->out_off);
          conn->out_off = 0;
        }
      }
      mod_conn(conn, conn->buffered() > 0);
      return true;
    }

    /// Marks dead and deregisters; the socket closes (and memory frees)
    /// once the last in-flight completion drained, in reap_dead().
    void kill_conn(Conn* conn) {
      if (!conn->alive) return;
      conn->alive = false;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      ++stats_.conns_dropped;
    }

    void reap_dead() {
      for (std::size_t i = 0; i < conns_.size();) {
        Conn* conn = conns_[i];
        if (conn->alive || conn->inflight > 0) {
          ++i;
          continue;
        }
        ::close(conn->fd);
        conns_[i] = conns_.back();
        conns_[i]->index = i;
        conns_.pop_back();
        delete conn;
      }
    }

    /// drain_begin() phase: close the listener, take one final read sweep so
    /// requests already queued in kernel buffers reach the service, then
    /// acknowledge quiescence.
    void quiesce_reads() {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      std::vector<Conn*> flush_list;
      for (Conn* conn : conns_) {
        if (!conn->alive) continue;
        if (!read_ready(conn, flush_list)) kill_conn(conn);
      }
      flush_all(flush_list);
      quiesced_.store(true, std::memory_order_release);
    }

    /// Bounded post-drain flush: give each connection's socket up to ~2 s to
    /// take the remaining responses so a dead client cannot stall shutdown.
    void final_flush_all() {
      for (Conn* conn : conns_) {
        if (!conn->alive) continue;
        for (int rounds = 0; rounds < 20; ++rounds) {
          if (!flush(conn)) {
            kill_conn(conn);
            break;
          }
          if (conn->buffered() == 0) break;
          pollfd p{conn->fd, POLLOUT, 0};
          ::poll(&p, 1, 100);
        }
      }
      reap_dead();
    }

    ReactorPool& pool_;
    const int id_;
    int reader_tid_ = -1;  ///< runtime tid for inline requests; -1: none
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int event_fd_ = -1;
    char listen_tag_ = 0;  ///< epoll data sentinels (address identity only)
    char event_tag_ = 0;
    MpscRing<Completion> ring_;
    std::atomic<bool> doorbell_{false};
    std::atomic<bool> quiesced_{false};
    std::vector<Conn*> conns_;
    ReactorStats stats_;
    std::thread thread_;
  };

  static ReactorConfig fixup(ReactorConfig cfg) {
    if (cfg.reactors < 1) cfg.reactors = 1;
    if (cfg.max_outbuf < wire::kResponseFrame) {
      cfg.max_outbuf = wire::kResponseFrame;
    }
    return cfg;
  }

  ServiceT& service_;
  ReactorConfig cfg_;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> finishing_{false};
  bool started_ = false;
  bool finished_ = false;
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace si::serve
