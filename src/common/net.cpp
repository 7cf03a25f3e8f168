#include "common/net.hpp"

#include <cerrno>
#include <cctype>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace soctest::net {

namespace {

// Status factories live in soctest_runtime, which itself links
// soctest_common; constructing Status inline keeps this file free of
// runtime-library symbols (no static-library cycle).
Status errno_error(const std::string& what) {
  return Status(StatusCode::kIoError, what + ": " + std::strerror(errno));
}

Status bad_argument(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

StatusOr<int> tcp_socket_for(const Endpoint& endpoint,
                             struct sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr->sin_addr) != 1) {
    return bad_argument("not an IPv4 address: " + endpoint.host);
  }
  // CLOEXEC: service fds must never leak into spawned worker processes —
  // an inherited duplicate of an accepted connection suppresses the FIN
  // clients rely on for end-of-batch.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket");
  return fd;
}

StatusOr<int> unix_socket_for(const Endpoint& endpoint,
                              struct sockaddr_un* addr) {
  if (endpoint.path.size() >= sizeof(addr->sun_path)) {
    return bad_argument("socket path too long: " + endpoint.path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, endpoint.path.c_str(),
               sizeof(addr->sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket");
  return fd;
}

}  // namespace

StatusOr<Endpoint> parse_endpoint(const std::string& text) {
  if (text.empty()) return bad_argument("empty endpoint");
  Endpoint endpoint;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos && text.find('/') == std::string::npos) {
    endpoint.tcp = true;
    endpoint.host = text.substr(0, colon);
    if (endpoint.host.empty()) endpoint.host = "127.0.0.1";
    const std::string port = text.substr(colon + 1);
    if (port.empty()) return bad_argument("missing port: " + text);
    for (char c : port) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return bad_argument("bad port '" + port + "' in " + text);
      }
    }
    const long value = std::strtol(port.c_str(), nullptr, 10);
    if (value < 0 || value > 65535) {
      return bad_argument("port out of range: " + port);
    }
    endpoint.port = static_cast<int>(value);
    return endpoint;
  }
  endpoint.path = text;
  return endpoint;
}

std::string endpoint_name(const Endpoint& endpoint, int bound_port) {
  if (!endpoint.tcp) return endpoint.path;
  const int port = bound_port >= 0 ? bound_port : endpoint.port;
  return endpoint.host + ":" + std::to_string(port);
}

StatusOr<int> listen_endpoint(const Endpoint& endpoint, int* bound_port) {
  int fd = -1;
  if (endpoint.tcp) {
    struct sockaddr_in addr;
    StatusOr<int> sock = tcp_socket_for(endpoint, &addr);
    if (!sock.ok()) return sock.status();
    fd = sock.value();
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const Status st = errno_error("bind " + endpoint_name(endpoint));
      ::close(fd);
      return st;
    }
    if (bound_port != nullptr) {
      struct sockaddr_in actual;
      socklen_t len = sizeof(actual);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual),
                        &len) == 0) {
        *bound_port = static_cast<int>(ntohs(actual.sin_port));
      }
    }
  } else {
    struct sockaddr_un addr;
    StatusOr<int> sock = unix_socket_for(endpoint, &addr);
    if (!sock.ok()) return sock.status();
    fd = sock.value();
    ::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const Status st = errno_error("bind " + endpoint.path);
      ::close(fd);
      return st;
    }
    if (bound_port != nullptr) *bound_port = 0;
  }
  if (::listen(fd, 64) < 0) {
    const Status st = errno_error("listen " + endpoint_name(endpoint));
    ::close(fd);
    return st;
  }
  return fd;
}

StatusOr<int> connect_endpoint(const Endpoint& endpoint) {
  int fd = -1;
  int rc = -1;
  if (endpoint.tcp) {
    struct sockaddr_in addr;
    StatusOr<int> sock = tcp_socket_for(endpoint, &addr);
    if (!sock.ok()) return sock.status();
    fd = sock.value();
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) set_tcp_nodelay(fd);
  } else {
    struct sockaddr_un addr;
    StatusOr<int> sock = unix_socket_for(endpoint, &addr);
    if (!sock.ok()) return sock.status();
    fd = sock.value();
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  }
  if (rc < 0) {
    const Status st = errno_error("connect " + endpoint_name(endpoint));
    ::close(fd);
    return st;
  }
  return fd;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  // Fails with ENOTSUP/EOPNOTSUPP on Unix sockets, which need no Nagle
  // fix anyway; callers pass every accepted fd through unconditionally.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_error("fcntl(O_NONBLOCK)");
  }
  return Status();
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, /*timeout_ms=*/100);
      continue;
    }
    return false;
  }
  return true;
}

StatusOr<pid_t> spawn_process(const std::vector<std::string>& argv) {
  if (argv.empty()) return bad_argument("spawn: empty argv");
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return errno_error("fork");
  if (pid == 0) {
    // Belt and braces on top of SOCK_CLOEXEC: nothing past the standard
    // streams may survive into the worker. A leaked accepted-connection fd
    // keeps the peer's read() blocked long after the parent closes it.
    if (::syscall(SYS_close_range, 3u, ~0u, 0u) != 0) {
      for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    // Exec failed; exit without running any atexit handlers of the parent
    // image. 127 matches the shell convention for "command not found".
    std::_Exit(127);
  }
  return pid;
}

bool try_reap(pid_t pid, int* exit_status) {
  int status = 0;
  const pid_t done = ::waitpid(pid, &status, WNOHANG);
  if (done != pid) return false;
  if (exit_status != nullptr) *exit_status = status;
  return true;
}

int terminate_and_wait(pid_t pid) {
  ::kill(pid, SIGTERM);
  // A stopped process holds SIGTERM pending until it runs again; without
  // SIGCONT a SIGSTOPped worker would block the waitpid below for ever.
  ::kill(pid, SIGCONT);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

}  // namespace soctest::net
