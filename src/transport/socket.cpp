#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace piom::transport::sock {

namespace {

constexpr uint32_t kHelloMagic = 0x70696f6d;  // "piom"
constexpr uint32_t kMaxStringBytes = 4096;
constexpr int kListenBacklog = 64;

/// A tcp:// or uds:// endpoint as a socket address.
struct SockAddr {
  sockaddr_storage ss{};
  socklen_t len = 0;
  [[nodiscard]] const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&ss);
  }
};

SockAddr resolve(const Endpoint& addr) {
  SockAddr out;
  if (addr.scheme == Endpoint::Scheme::kTcp) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    const std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
      throw std::invalid_argument("socket: host must be a numeric IPv4 "
                                  "address (got '" + addr.host + "')");
    }
    std::memcpy(&out.ss, &sa, sizeof(sa));
    out.len = sizeof(sa);
  } else if (addr.scheme == Endpoint::Scheme::kUds) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      throw std::invalid_argument("socket: uds path too long: " + addr.path);
    }
    std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    std::memcpy(&out.ss, &sa, sizeof(sa));
    out.len = sizeof(sa);
  } else {
    throw std::invalid_argument("socket: address must be tcp:// or uds:// "
                                "(got " + addr.uri() + ")");
  }
  return out;
}

Fd open_socket(const SockAddr& sa) {
  Fd fd(::socket(sa.ss.ss_family, SOCK_STREAM, 0));
  if (!fd.valid()) sys_fail("socket");
  return fd;
}

/// Wait until `fd` is readable; false at the deadline.
bool wait_readable(int fd, int64_t deadline_ms) {
  for (;;) {
    const int64_t left = deadline_ms - now_ms();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left < 100 ? left : 100));
    if (pr > 0) return true;
    if (pr < 0 && errno != EINTR) sys_fail("poll");
  }
}

}  // namespace

void sys_fail(const char* what) {
  std::string msg = "socket: ";
  msg += what;
  msg += ": ";
  msg += std::strerror(errno);
  throw std::runtime_error(msg);
}

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Listener listen(const Endpoint& addr) {
  const SockAddr sa = resolve(addr);
  Fd fd = open_socket(sa);
  if (addr.scheme == Endpoint::Scheme::kTcp) {
    const int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
  } else {
    (void)::unlink(addr.path.c_str());  // stale socket file from a crash
  }
  if (::bind(fd.get(), sa.get(), sa.len) != 0 ||
      ::listen(fd.get(), kListenBacklog) != 0) {
    sys_fail("bind/listen");
  }
  if (addr.scheme == Endpoint::Scheme::kUds) return {std::move(fd), addr};
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    sys_fail("getsockname");
  }
  return {std::move(fd), Endpoint::tcp(addr.host, ntohs(bound.sin_port))};
}

Fd connect(const Endpoint& addr, int64_t deadline_ms) {
  const SockAddr sa = resolve(addr);
  for (;;) {
    Fd fd = open_socket(sa);
    if (::connect(fd.get(), sa.get(), sa.len) == 0) return fd;
    if (now_ms() >= deadline_ms) {
      throw std::runtime_error("socket: timeout connecting to " + addr.uri());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Fd accept(int listen_fd, int64_t deadline_ms) {
  for (;;) {
    if (!wait_readable(listen_fd, deadline_ms)) {
      throw std::runtime_error("socket: timeout waiting for a connection");
    }
    Fd fd(::accept(listen_fd, nullptr, nullptr));
    if (fd.valid()) return fd;
    if (errno != EINTR && errno != EAGAIN && errno != ECONNABORTED) {
      sys_fail("accept");
    }
  }
}

void write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("setup write");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

bool read_full(int fd, void* buf, std::size_t len, int64_t deadline_ms) {
  auto* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    if (!wait_readable(fd, deadline_ms)) return false;
    const ssize_t n = ::read(fd, p, len);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET) return false;
      sys_fail("setup read");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void write_string(int fd, const std::string& s) {
  const auto len = static_cast<uint32_t>(s.size());
  write_full(fd, &len, sizeof(len));
  write_full(fd, s.data(), s.size());
}

bool read_string(int fd, std::string& out, int64_t deadline_ms) {
  uint32_t len = 0;
  if (!read_full(fd, &len, sizeof(len), deadline_ms) ||
      len > kMaxStringBytes) {
    return false;
  }
  out.assign(len, '\0');
  return len == 0 || read_full(fd, out.data(), len, deadline_ms);
}

std::pair<Fd, Fd> loopback_pair(Endpoint::Scheme scheme) {
  if (scheme == Endpoint::Scheme::kUds) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      sys_fail("socketpair");
    }
    return {Fd(sv[0]), Fd(sv[1])};
  }
  if (scheme == Endpoint::Scheme::kTcp) {
    const Listener l = listen(Endpoint::tcp("127.0.0.1", 0));
    const int64_t deadline = setup_deadline_ms();
    Fd a = connect(l.bound, deadline);
    return {std::move(a), accept(l.fd.get(), deadline)};
  }
  throw std::invalid_argument("socket: loopback pair scheme must be tcp or "
                              "uds");
}

void write_hello(int fd, int rank, const Endpoint& addr) {
  const uint32_t head[2] = {kHelloMagic, static_cast<uint32_t>(rank)};
  write_full(fd, head, sizeof(head));
  write_string(fd, addr.uri());
}

bool read_hello(int fd, Hello& out, int64_t deadline_ms) {
  uint32_t head[2] = {};
  std::string uri;
  if (!read_full(fd, head, sizeof(head), deadline_ms) ||
      head[0] != kHelloMagic || !read_string(fd, uri, deadline_ms)) {
    return false;
  }
  try {
    out.addr = Endpoint::parse(uri);
  } catch (const std::invalid_argument&) {
    return false;
  }
  out.rank = static_cast<int>(head[1]);
  return out.addr.is_socket();
}

}  // namespace piom::transport::sock
