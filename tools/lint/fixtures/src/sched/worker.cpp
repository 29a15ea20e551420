#include <thread>
struct Worker {
  std::thread thread_;  // fine: only transport backends are thread-less
};
