#include "transport/fd_poll.hpp"

#include <cerrno>
#include <stdexcept>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif
#include <unistd.h>

namespace piom::transport {

#ifdef __linux__

FdPoller::FdPoller() : epfd_(::epoll_create1(0)) {
  if (epfd_ < 0) throw std::runtime_error("FdPoller: epoll_create1 failed");
}

FdPoller::~FdPoller() {
  if (epfd_ >= 0) ::close(epfd_);
}

void FdPoller::add(int fd, void* tag) {
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered; EPOLLHUP/EPOLLERR are implicit
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("FdPoller: epoll_ctl(ADD) failed");
  }
  tags_[fd] = tag;
}

void FdPoller::remove(int fd) {
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  tags_.erase(fd);
}

int FdPoller::wait(Event* out, int max_events, int timeout_ms) {
  if (max_events <= 0 || tags_.empty()) return 0;
  std::vector<epoll_event> evs(static_cast<std::size_t>(max_events));
  int n = ::epoll_wait(epfd_, evs.data(), max_events, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("FdPoller: epoll_wait failed");
  }
  for (int i = 0; i < n; ++i) {
    const auto it = tags_.find(evs[static_cast<std::size_t>(i)].data.fd);
    out[i].tag = it != tags_.end() ? it->second : nullptr;
    const uint32_t flags = evs[static_cast<std::size_t>(i)].events;
    out[i].readable = (flags & EPOLLIN) != 0;
    out[i].hangup = (flags & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
  }
  return n;
}

#else  // poll(2) fallback: rebuild the pollfd set per call (fd counts are
       // one per peer, so this stays cheap at the scales the repo runs).

FdPoller::FdPoller() = default;
FdPoller::~FdPoller() = default;

void FdPoller::add(int fd, void* tag) { tags_[fd] = tag; }
void FdPoller::remove(int fd) { tags_.erase(fd); }

int FdPoller::wait(Event* out, int max_events, int timeout_ms) {
  if (max_events <= 0 || tags_.empty()) return 0;
  std::vector<pollfd> pfds;
  pfds.reserve(tags_.size());
  for (const auto& [fd, tag] : tags_) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
  }
  int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("FdPoller: poll failed");
  }
  int filled = 0;
  for (const pollfd& p : pfds) {
    if (p.revents == 0 || filled >= max_events) continue;
    out[filled].tag = tags_[p.fd];
    out[filled].readable = (p.revents & POLLIN) != 0;
    out[filled].hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    ++filled;
  }
  return filled;
}

#endif

}  // namespace piom::transport
