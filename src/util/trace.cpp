#include "util/trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "util/env.hpp"
#include "util/timing.hpp"

namespace piom::util::trace {

namespace {

/// Slots past kRingCapacity: one spare, the slot the writer may be
/// overwriting while collect() copies the others.
constexpr uint64_t kSlots = kRingCapacity + 1;

/// A single-writer ring: only its thread records into it. Slot fields are
/// atomics because collect() may copy a slot the writer is overwriting (it
/// then discards the copy). Their release stores and acquire loads are
/// plain moves on x86, and unlike fences ThreadSanitizer models them.
struct Ring {
  struct Slot {
    std::atomic<int64_t> t_ns;
    std::atomic<Kind> kind;
    std::atomic<uint32_t> arg0;
    std::atomic<uint64_t> arg1;
  };
  std::array<Slot, kSlots> slots;
  std::atomic<uint64_t> head{0};  ///< events published (release-stored)
  uint64_t floor = 0;  ///< reset()'s mark; guarded by g_registry_mutex
  uint32_t ordinal = 0;
};

std::mutex g_registry_mutex;
/// Ring registry. Immortal (allocated once, never destroyed): rings must
/// stay readable by collect() after their threads exit, and the registry
/// itself must survive static destruction so LeakSanitizer still sees the
/// ring pointers at its exit-time scan (a plain global vector would be
/// destructed first, orphaning them into reported leaks).
std::vector<Ring*>& rings() {
  static std::vector<Ring*>* v = new std::vector<Ring*>();
  return *v;
}
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_env_checked{false};

Ring& thread_ring() {
  thread_local Ring* ring = [] {
    auto* r = new Ring();  // immortal by design: see rings() comment
    std::lock_guard<std::mutex> lk(g_registry_mutex);
    r->ordinal = static_cast<uint32_t>(rings().size());
    rings().push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTaskSubmit: return "task-submit";
    case Kind::kTaskRun: return "task-run";
    case Kind::kTaskDone: return "task-done";
    case Kind::kTaskRequeue: return "task-requeue";
    case Kind::kUrgentRun: return "urgent-run";
    case Kind::kTaskSteal: return "task-steal";
    case Kind::kSchedulePass: return "schedule";
    case Kind::kPacketTx: return "packet-tx";
    case Kind::kPacketRx: return "packet-rx";
    case Kind::kUser: return "user";
  }
  return "?";
}

bool enabled() {
  if (!g_env_checked.load(std::memory_order_acquire)) {
    if (util::env::boolean("PIOM_TRACE", false)) {
      g_enabled.store(true, std::memory_order_release);
    }
    g_env_checked.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void enable() {
  g_env_checked.store(true, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void disable() {
  g_env_checked.store(true, std::memory_order_release);
  g_enabled.store(false, std::memory_order_release);
}

void record(Kind kind, uint32_t arg0, uint64_t arg1) {
  Ring& ring = thread_ring();
  const uint64_t h = ring.head.load(std::memory_order_relaxed);
  // Release: a collect() that sees any of these writes also sees the
  // previous event's publication, head >= h.
  Ring::Slot& s = ring.slots[h % kSlots];
  s.t_ns.store(now_ns(), std::memory_order_release);
  s.kind.store(kind, std::memory_order_release);
  s.arg0.store(arg0, std::memory_order_release);
  s.arg1.store(arg1, std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
}

std::vector<Event> collect() {
  // Snapshot the registry under the lock, copy the slots after releasing
  // it: rings are immortal, and a thread registering its ring (its first
  // record()) must not wait out the copy.
  std::vector<std::pair<const Ring*, uint64_t>> snapshot;
  {
    std::lock_guard<std::mutex> lk(g_registry_mutex);
    for (const Ring* ring : rings()) snapshot.emplace_back(ring, ring->floor);
  }
  std::vector<Event> out;
  for (const auto& [ring, mark] : snapshot) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t lo =
        std::max(mark, head - std::min<uint64_t>(head, kRingCapacity));
    const std::size_t first = out.size();
    for (uint64_t i = lo; i < head; ++i) {
      const Ring::Slot& s = ring->slots[i % kSlots];
      out.push_back(Event{s.t_ns.load(std::memory_order_acquire),
                          ring->ordinal,
                          s.kind.load(std::memory_order_acquire),
                          s.arg0.load(std::memory_order_acquire),
                          s.arg1.load(std::memory_order_acquire)});
    }
    // Drop the copies the writer may have lapped meanwhile: it may be
    // writing event `h` over the slot of event `h - kSlots`, and the slots
    // of older events are already reused.
    const uint64_t h = ring->head.load(std::memory_order_relaxed);
    const uint64_t whole = std::max(lo, h + 1 - std::min(h + 1, kSlots));
    const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
    out.erase(begin, begin + static_cast<std::ptrdiff_t>(
                                 std::min(whole, head) - lo));
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });
  return out;
}

void reset() {
  std::lock_guard<std::mutex> lk(g_registry_mutex);
  for (Ring* ring : rings()) {
    ring->floor = ring->head.load(std::memory_order_acquire);
  }
}

std::string format(const std::vector<Event>& events) {
  std::string out;
  if (events.empty()) return out;
  const int64_t t0 = events.front().t_ns;
  char line[160];
  for (const Event& e : events) {
    std::snprintf(line, sizeof(line), "%10.3fus  thr%-3u %-13s arg0=%u arg1=%llu\n",
                  static_cast<double>(e.t_ns - t0) * 1e-3, e.thread,
                  kind_name(e.kind), e.arg0,
                  static_cast<unsigned long long>(e.arg1));
    out += line;
  }
  return out;
}

}  // namespace piom::util::trace
