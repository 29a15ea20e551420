// Measurement helpers of piom_bench: percentiles with a validity rule,
// process probes (CPU time, context switches, heap in use, thread count), host
// description, and the seeded value generator every workload draws its
// payloads from.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/timing.hpp"

namespace piom::pbench {

/// A tail statistic of pooled samples. It is valid only when at least ten
/// samples lie beyond the percentile (p99 needs >= 1000 samples).
struct Pctl {
  double value = 0;
  bool valid = false;
};

[[nodiscard]] inline Pctl percentile(std::vector<double> samples, double q) {
  Pctl p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.value = util::quantile_sorted(samples, q);
  p.valid = static_cast<double>(samples.size()) * (1.0 - q) >= 10.0;
  return p;
}

/// Mean of the slowest `share` of the samples (the tail beyond the
/// 1 - share percentile); valid with at least ten samples in it.
[[nodiscard]] inline Pctl tail_mean(std::vector<double> samples, double share) {
  Pctl p;
  const auto k = static_cast<std::size_t>(static_cast<double>(samples.size()) * share);
  if (k == 0) return p;
  std::nth_element(samples.begin(), samples.end() - static_cast<long>(k),
                   samples.end());
  double sum = 0;
  for (auto it = samples.end() - static_cast<long>(k); it != samples.end(); ++it) {
    sum += *it;
  }
  p.value = sum / static_cast<double>(k);
  p.valid = k >= 10;
  return p;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

/// splitmix64: payload bytes and permutations are pure functions of
/// (seed, position), so the receiver can verify without shared state.
[[nodiscard]] inline uint64_t mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
[[nodiscard]] inline uint64_t mix(uint64_t seed, uint64_t a, uint64_t b = 0,
                                  uint64_t c = 0) {
  return mix(mix(mix(mix(seed) ^ a) ^ b) ^ c);
}

/// getrusage(RUSAGE_SELF) slice: CPU seconds and context switches of the
/// whole process (every thread of every in-process rank).
struct Usage {
  double cpu_s = 0;
  double vol_csw = 0;
  double invol_csw = 0;

  [[nodiscard]] static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    u.vol_csw = static_cast<double>(ru.ru_nvcsw);
    u.invol_csw = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, vol_csw - o.vol_csw, invol_csw - o.invol_csw};
  }
};

/// Numeric field of /proc/self/status (e.g. "Threads"); 0 if absent.
[[nodiscard]] inline double proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return 0;
}

/// Bytes the process holds in malloc'd blocks (all arenas).
[[nodiscard]] inline double heap_in_use() {
  return static_cast<double>(mallinfo2().uordblks);
}

[[nodiscard]] inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Watchdog heartbeat: every completed op (and every bring-up) stamps it;
/// piom_bench aborts the run when it goes stale for 2 s.
inline std::atomic<int64_t> g_last_progress_ns{0};
inline void touch_progress() {
  g_last_progress_ns.store(util::now_ns(), std::memory_order_relaxed);
}

}  // namespace piom::pbench
