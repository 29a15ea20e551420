#include <thread>
struct Channel {
  std::thread io_;  // VIOLATION: a backend must not own a thread
  unsigned width() const { return std::thread::hardware_concurrency(); }
  void relax() const { std::this_thread::yield(); }  // fine: no thread
};
// A comment naming std::thread is fine.
