// Request/response types of the serving layer (DESIGN.md section 9).
//
// A Request is a POD envelope: the service never interprets `op`, `key` or
// `arg` — the application (kv_app.hpp, tpcc_app.hpp) does. Keeping the
// envelope trivially copyable lets the shard queues move requests by plain
// assignment, with no allocation or destructor on the ring.
//
// Completion is a C-style callback (`done(ctx, response)`), invoked exactly
// once per request Service::submit accepted, on the shard worker thread that
// executed it (for a logged update, after that worker's flush made it durable).
// Callbacks must be cheap and must not re-enter the service from the same
// shard (submitting to a *different* shard from a completion is fine). The
// in-process clients (tests, Service::call) complete into a stack slot; the
// TCP front end pushes the response onto the owning reactor's completion
// ring. A request the reactor serves inline (Service::serve_inline) — a
// point read on its own tid, or an unlogged update on the shard's tid while
// no shard worker is executing — completes on the reactor's own thread and
// invokes no callback: the response comes back to the caller directly.
#pragma once

#include <cstdint>

namespace si::serve {

enum class Status : std::uint8_t {
  kOk = 0,        ///< executed and committed
  kFailed = 1,    ///< malformed request (unknown opcode)
  kRejected = 2,  ///< admission control refused it; retry after the hint
};

struct Response {
  std::uint64_t id = 0;      ///< echoed Request::id
  Status status = Status::kOk;
  std::uint64_t value = 0;   ///< app-defined result payload
  double latency_ns = 0.0;   ///< enqueue -> completion, server side
  /// WAL sequence number when the request was logged (durability tier);
  /// 0 for unlogged requests. Server-side only — not on the wire.
  std::uint64_t lsn = 0;
};

/// Invoked after the request's transaction committed (see above for where).
using CompletionFn = void (*)(void* ctx, const Response& resp);

/// Where an opcode may run besides its shard's worker: the answer of the
/// App::inline_op hook, and what Service::serve_inline reports it ran.
enum class InlineOp : std::uint8_t {
  kNone = 0,    ///< on the shard worker only
  kRead = 1,    ///< read-only, no per-shard state: on any registered tid
  kUpdate = 2,  ///< uses per-shard state: on the shard's tid, workers idle
};

struct Request {
  std::uint64_t id = 0;    ///< client-chosen correlation id, echoed back
  std::uint64_t key = 0;   ///< app payload; also the default shard-routing key
  std::uint64_t arg = 0;   ///< app payload (e.g. the value of a put)
  double enqueue_ns = 0.0; ///< stamped by Service::submit (obs::wall_ns)
  CompletionFn done = nullptr;
  void* ctx = nullptr;
  std::uint16_t op = 0;    ///< app-defined opcode
  bool ro = false;         ///< read-only hint (telemetry; apps decide the path)
};

}  // namespace si::serve
