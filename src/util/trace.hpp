// Lightweight event tracing (the rôle FxT plays in the real PM2/PIOMan
// stack): per-thread lock-free ring buffers record scheduler and
// communication events with nanosecond timestamps; collect() merges them
// into one time-ordered stream for offline analysis or test assertions.
//
// Disabled by default: recording costs one branch on a relaxed atomic.
// Enable programmatically (trace::enable()) or with PIOM_TRACE=1.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace piom::util::trace {

enum class Kind : uint8_t {
  kTaskSubmit = 1,
  kTaskRun = 2,
  kTaskDone = 3,
  kTaskRequeue = 4,
  kUrgentRun = 5,
  kTaskSteal = 9,
  kSchedulePass = 6,
  kPacketTx = 7,
  kPacketRx = 8,
  kUser = 100,
};

[[nodiscard]] const char* kind_name(Kind k);

struct Event {
  int64_t t_ns = 0;    ///< monotonic timestamp
  uint32_t thread = 0; ///< recording thread's registration ordinal
  Kind kind = Kind::kUser;
  uint32_t arg0 = 0;   ///< e.g. cpu id
  uint64_t arg1 = 0;   ///< e.g. task pointer / packet size
};

/// Global switch. Initialized from $PIOM_TRACE at first query.
[[nodiscard]] bool enabled();
void enable();
void disable();

/// Record one event into the calling thread's ring (no-op when disabled).
void record(Kind kind, uint32_t arg0, uint64_t arg1);

/// Merge every thread's ring into one vector sorted by timestamp. Events
/// overwritten by ring wrap-around are gone (each ring keeps the most
/// recent `kRingCapacity` events). Safe while threads record: an event
/// that its writer overwrites during the copy is dropped, never torn.
[[nodiscard]] std::vector<Event> collect();

/// Drop all recorded events (keeps registration). Safe while threads
/// record: it marks each ring's current head, never moves it.
void reset();

/// Human-readable rendering of a collected stream.
[[nodiscard]] std::string format(const std::vector<Event>& events);

/// Events each thread's ring retains.
inline constexpr std::size_t kRingCapacity = 4096;

}  // namespace piom::util::trace

/// Convenience macro: compiles to a single branch when tracing is off.
#define PIOM_TRACE(kind, arg0, arg1)                                       \
  do {                                                                     \
    if (piom::util::trace::enabled()) {                                    \
      piom::util::trace::record((kind), static_cast<uint32_t>(arg0),       \
                                static_cast<uint64_t>(arg1));              \
    }                                                                      \
  } while (0)
