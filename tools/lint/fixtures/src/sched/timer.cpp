#include <thread>
struct Ticker {
  void run();
  void start() { thread_ = std::thread(&Ticker::run, this); }  // VIOLATION
  std::thread thread_;  // VIOLATION: a hook outside the Runtime
};
