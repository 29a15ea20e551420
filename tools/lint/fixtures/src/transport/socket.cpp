// Fixture: the one file allowed to call the raw socket syscalls.
#include <sys/socket.h>
int open_listener(const sockaddr* sa, socklen_t len) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (::bind(fd, sa, len) != 0 || ::listen(fd, 64) != 0) return -1;
  return ::accept(fd, nullptr, nullptr);
}
