// Tests for sync primitives: the three lock flavours and the semaphore.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sync/backoff.hpp"
#include "sync/cache.hpp"
#include "sync/semaphore.hpp"
#include "sync/spinlock.hpp"

namespace piom::sync {
namespace {

template <typename Lock>
void mutual_exclusion_torture() {
  Lock lock;
  int64_t counter = 0;  // deliberately non-atomic: the lock must protect it
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(SpinLock, MutualExclusion) { mutual_exclusion_torture<SpinLock>(); }
TEST(TicketLock, MutualExclusion) { mutual_exclusion_torture<TicketLock>(); }
TEST(MutexLock, MutualExclusion) { mutual_exclusion_torture<MutexLock>(); }

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLock, TryLock) {
  TicketLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLock, IsFifoFair) {
  // Serialize three threads acquiring in a controlled order: with a ticket
  // lock the grant order must equal the ticket order.
  TicketLock lock;
  std::vector<int> grant_order;
  std::atomic<int> armed{0};
  lock.lock();  // hold so all contenders queue behind us
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      // Ensure queueing order: thread t waits for t predecessors to be armed.
      while (armed.load() != t) cpu_relax();
      armed.fetch_add(1);  // next thread may take its ticket after this one...
      lock.lock();
      grant_order.push_back(t);
      lock.unlock();
    });
    // ...but give it a moment to actually take the ticket before arming the
    // next one (the fetch_add above happens before lock(), so spin briefly).
    while (armed.load() != t + 1) cpu_relax();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  lock.unlock();
  for (auto& th : threads) th.join();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
}

TEST(MutexLock, TryLock) {
  MutexLock lock;
  EXPECT_TRUE(lock.try_lock());
  std::thread other([&] { EXPECT_FALSE(lock.try_lock()); });
  other.join();
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

template <typename Lock>
void lock_guard_excludes() {
  Lock lock;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        LockGuard<Lock> g(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(LockGuard, ExcludesOnSpinLock) { lock_guard_excludes<SpinLock>(); }
TEST(LockGuard, ExcludesOnMutexLock) { lock_guard_excludes<MutexLock>(); }

TEST(LockGuard, AdoptsHeldLock) {
  // The try_lock + adopt idiom (TcpTransport::pump): the guard must NOT
  // re-acquire, and must release on scope exit.
  SpinLock lock;
  ASSERT_TRUE(lock.try_lock());
  {
    LockGuard<SpinLock> g(lock, kAdoptLock);
    EXPECT_FALSE(lock.try_lock());  // still held — adopt didn't release
  }
  EXPECT_TRUE(lock.try_lock());  // guard released at scope exit
  lock.unlock();
}

TEST(Semaphore, InitialValue) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.try_wait());
  EXPECT_TRUE(sem.try_wait());
  EXPECT_FALSE(sem.try_wait());
}

TEST(Semaphore, PostThenWait) {
  Semaphore sem;
  sem.post();
  sem.wait();  // must not block
  EXPECT_EQ(sem.value(), 0);
}

TEST(Semaphore, WakesParkedWaiter) {
  Semaphore sem;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    sem.wait(/*spin_iterations=*/1);  // park almost immediately
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  sem.post();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(Semaphore, ManyProducersManyConsumers) {
  Semaphore sem;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5'000;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConsumers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kProducers * kPerProducer / kConsumers; ++i) {
        sem.wait(16);
        consumed.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) sem.post();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(sem.value(), 0);
}

TEST(Semaphore, WaitForTimesOut) {
  Semaphore sem;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(sem.wait_for(std::chrono::microseconds(2'000), 16));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(2'000));
  EXPECT_EQ(sem.value(), 0);  // the timed-out waiter withdrew
  sem.post();
  EXPECT_TRUE(sem.wait_for(std::chrono::microseconds(2'000), 0));
  EXPECT_EQ(sem.value(), 0);
}

TEST(Semaphore, WaitForRacingPostKeepsTheCount) {
  // Timeouts short enough to land while a post() is in flight: a timed-out
  // waiter must neither lose that unit nor leave a stray wakeup behind.
  Semaphore sem;
  constexpr int kPosts = 20'000;
  std::atomic<bool> posting{true};
  int takes = 0;
  std::thread waiter([&] {
    while (posting.load(std::memory_order_acquire)) {
      if (sem.wait_for(std::chrono::microseconds(1), 0)) ++takes;
    }
  });
  for (int i = 0; i < kPosts; ++i) {
    sem.post();
    for (int k = 0; k < (i % 64); ++k) cpu_relax();
  }
  posting.store(false, std::memory_order_release);
  waiter.join();
  EXPECT_GT(takes, 0);
  EXPECT_EQ(sem.value(), kPosts - takes);
}

TEST(CacheAligned, SeparatesLines) {
  struct Two {
    CacheAligned<int> a;
    CacheAligned<int> b;
  } two;
  const auto pa = reinterpret_cast<uintptr_t>(&two.a.value);
  const auto pb = reinterpret_cast<uintptr_t>(&two.b.value);
  EXPECT_GE(pb > pa ? pb - pa : pa - pb, kCacheLine);
  EXPECT_EQ(pa % kCacheLine, 0u);
}

TEST(Backoff, SpinsWithoutCrashing) {
  Backoff b;
  for (int i = 0; i < 30; ++i) b.spin();
  b.reset();
  b.spin();
}

}  // namespace
}  // namespace piom::sync
