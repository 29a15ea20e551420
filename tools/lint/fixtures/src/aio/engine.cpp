#include <thread>
struct Disk {
  void run();
  void start() { std::thread(&Disk::run, this).detach(); }  // VIOLATION
  void relax() const { std::this_thread::yield(); }  // fine: no thread
};
