#include <thread>
struct Worker {
  std::thread thread_;  // fine: sched::Runtime is the one thread owner
};
