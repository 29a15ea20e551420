// Socket setup helpers: the one place in src/ that calls the raw socket
// syscalls (piom_lint's socket-syscall rule). TcpTransport (listen, mesh
// wiring, loopback pairs) and Bootstrap (the rendezvous) both set their
// sockets up through here, so there is one listen, one connect-with-retry,
// one accept-with-deadline and one hello.
//
// Everything here is setup-time and blocking; the data plane (framing,
// the epoll pump) lives in transport/tcp.cpp.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "transport/endpoint.hpp"

namespace piom::transport::sock {

/// How long setup-time connect/accept/read loops keep trying: the ranks of
/// a multi-process cluster start in arbitrary order.
inline constexpr int64_t kSetupTimeoutMs = 30'000;

/// Throw std::runtime_error("<what>: strerror(errno)").
[[noreturn]] void sys_fail(const char* what);

/// Steady-clock milliseconds; deadlines below are on this clock.
[[nodiscard]] int64_t now_ms();
[[nodiscard]] inline int64_t setup_deadline_ms() {
  return now_ms() + kSetupTimeoutMs;
}

/// Owns one file descriptor: closed on destruction unless release()d, so
/// a setup step that throws half-way leaks no socket.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

struct Listener {
  Fd fd;
  Endpoint bound;  ///< the resolved address (ephemeral port filled in)
};

/// Bind + listen on `addr`: tcp://host:port (SO_REUSEADDR; port 0 picks an
/// ephemeral port) or uds:///path (a stale socket file is unlinked first).
/// Throws std::invalid_argument for any other scheme.
[[nodiscard]] Listener listen(const Endpoint& addr);

/// Blocking connection to `addr`, retried every 10 ms until `deadline_ms`
/// (the peer may not have bound yet). Throws at the deadline.
[[nodiscard]] Fd connect(const Endpoint& addr, int64_t deadline_ms);

/// One connection accepted on `listen_fd`. Throws at the deadline.
[[nodiscard]] Fd accept(int listen_fd, int64_t deadline_ms);

/// Blocking write of exactly `len` bytes.
void write_full(int fd, const void* buf, std::size_t len);

/// Blocking read of exactly `len` bytes. False when the peer closed (or
/// reset) the connection first, or at the deadline.
[[nodiscard]] bool read_full(int fd, void* buf, std::size_t len,
                             int64_t deadline_ms);

/// Length-prefixed string: u32 length, then the bytes.
void write_string(int fd, const std::string& s);
/// False on EOF or an implausible length (> 4096).
[[nodiscard]] bool read_string(int fd, std::string& out, int64_t deadline_ms);

/// A connected socket pair for two in-process endpoints: socketpair(2) for
/// kUds, a real 127.0.0.1 listen/connect/accept for kTcp (so loopback
/// "tcp" pairs exercise the inet stack). Other schemes throw.
[[nodiscard]] std::pair<Fd, Fd> loopback_pair(Endpoint::Scheme scheme);

/// The setup hello every new connection opens with, rendezvous and data
/// mesh alike: {magic, rank, the sender's data listen URI}.
struct Hello {
  int rank = -1;
  Endpoint addr;
};
void write_hello(int fd, int rank, const Endpoint& addr);
/// False when the bytes are not a hello: wrong magic, implausible or
/// unparsable URI, EOF or the deadline before the end. Hello bytes come
/// from outside the process, so a caller closes such a connection and
/// keeps accepting.
[[nodiscard]] bool read_hello(int fd, Hello& out, int64_t deadline_ms);

}  // namespace piom::transport::sock
