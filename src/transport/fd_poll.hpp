// FdPoller: the socket transport's readiness layer — a thin epoll wrapper
// (poll(2) fallback off Linux) that it registers its fds with. There is
// deliberately no thread in here: whoever calls wait() owns the events,
// which is how the event loop coexists with all three progress engines
// (PIOMan ticks it from background poll tasks, the caller-driven engines
// pump it from wait/test — see transport/tcp.hpp).
#pragma once

#include <cstddef>
#include <unordered_map>

namespace piom::transport {

class FdPoller {
 public:
  struct Event {
    void* tag = nullptr;   ///< value supplied at add()
    bool readable = false;
    bool hangup = false;   ///< peer closed or error-ed the connection
  };

  FdPoller();
  ~FdPoller();

  FdPoller(const FdPoller&) = delete;
  FdPoller& operator=(const FdPoller&) = delete;

  /// Watch `fd` for readability (level-triggered). `tag` comes back in
  /// every Event for it.
  void add(int fd, void* tag);
  void remove(int fd);

  /// Collect ready fds into `out` (up to `max_events`), waiting at most
  /// `timeout_ms` (0 = non-blocking probe). Returns the event count.
  int wait(Event* out, int max_events, int timeout_ms);

  [[nodiscard]] std::size_t watched() const { return tags_.size(); }

 private:
  int epfd_ = -1;  ///< -1 on the poll(2) fallback
  std::unordered_map<int, void*> tags_;
};

}  // namespace piom::transport
