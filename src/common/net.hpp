#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include <sys/types.h>

#include "runtime/status.hpp"

namespace soctest::net {

/// A transport endpoint: either a TCP host:port or a Unix-socket path.
/// The textual form is shared by every tool flag that names one
/// (`--socket`, `--listen`, `--client`, `--connect`): a string containing
/// a ':' and no '/' is parsed as HOST:PORT, anything else is a filesystem
/// path. Port 0 asks the kernel for an ephemeral port (the listener
/// reports the bound one).
struct Endpoint {
  bool tcp = false;
  std::string host;  ///< TCP only
  int port = 0;      ///< TCP only
  std::string path;  ///< Unix only
};

StatusOr<Endpoint> parse_endpoint(const std::string& text);

/// Canonical textual form ("127.0.0.1:8347" or "/tmp/x.sock"); for a TCP
/// endpoint `bound_port` (>= 0) overrides the parsed port, so a listener
/// bound to port 0 can report the real one.
std::string endpoint_name(const Endpoint& endpoint, int bound_port = -1);

/// Creates, binds, and listens. Unix paths are unlinked first (stale
/// sockets from a killed process must not block a restart); TCP sockets
/// set SO_REUSEADDR. On success `*bound_port` (when non-null) receives the
/// actual port. The returned fd is blocking; callers that poll it should
/// set_nonblocking() it.
StatusOr<int> listen_endpoint(const Endpoint& endpoint,
                              int* bound_port = nullptr);

/// One blocking connect attempt. Fails fast (ECONNREFUSED/ENOENT) rather
/// than retrying — callers that wait for a server to come up own the retry
/// loop and its deadline.
StatusOr<int> connect_endpoint(const Endpoint& endpoint);

Status set_nonblocking(int fd);

/// Disables Nagle on a TCP socket (no-op on Unix sockets). Every accepted
/// or connected protocol socket needs this: the JSONL protocol writes one
/// small line per request/response, and Nagle + delayed ACK turns each
/// round trip into a ~40 ms stall.
void set_tcp_nodelay(int fd);

/// Writes the whole buffer, retrying on EINTR and polling for POLLOUT on
/// EAGAIN (so it is safe on nonblocking fds too). Returns false once the
/// peer is gone (EPIPE/ECONNRESET); short writes never escape.
bool write_all(int fd, const char* data, std::size_t size);

/// fork+execv. The child inherits stdin/stdout/stderr; argv[0] must be a
/// path (no PATH search, so a spawned worker is exactly the binary the
/// parent chose). Returns the child pid.
StatusOr<pid_t> spawn_process(const std::vector<std::string>& argv);

/// Nonblocking reap: true once `pid` has exited (then `*exit_status` holds
/// the raw waitpid status), false while it is still running.
bool try_reap(pid_t pid, int* exit_status);

/// SIGTERM + SIGCONT + blocking waitpid, the graceful-drain shutdown for a
/// spawned worker (SIGCONT so a stopped worker wakes up to drain).
int terminate_and_wait(pid_t pid);

}  // namespace soctest::net
