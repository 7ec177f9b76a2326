// Minimal TCP socket helpers shared by the serving front end (reactor.hpp),
// the admin endpoint (admin.hpp) and the clients (si_loadgen, si_top). The
// wire format itself lives in serve/wire.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace si::serve::net {

/// Listens on 127.0.0.1:`port` (port 0 = ephemeral). Returns the listening
/// fd or -1 with `*err` set.
int listen_tcp(std::uint16_t port, std::string* err);

/// SO_REUSEPORT variant for the multi-reactor front end: each reactor binds
/// its own listener on the shared port and the kernel load-balances accepts
/// across them. `backlog` is per listener.
int listen_tcp_reuseport(std::uint16_t port, int backlog, std::string* err);

/// O_NONBLOCK / TCP_NODELAY toggles for the epoll event loops.
bool set_nonblocking(int fd);
void set_nodelay(int fd);

/// The port a bound socket actually listens on (resolves port 0).
std::uint16_t local_port(int fd);

/// Blocking connect to `host`:`port`; returns fd or -1 with `*err` set.
int connect_tcp(const std::string& host, std::uint16_t port, std::string* err);

/// Writes all of `data` (blocking, restarting on EINTR / short writes).
bool send_all(int fd, const char* data, std::size_t len);

}  // namespace si::serve::net
