// Spans piom_bench records around its own calls into the library's layers
// (Comm, nmad::Gate/Session, transport::IChannel) — nothing inside src/ is
// instrumented. Spans live in per-thread memory and are written once, at
// exit, as Chrome trace-event JSON (opens in Perfetto), merged with the
// library's own util::trace events as instants.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timing.hpp"
#include "util/trace.hpp"

namespace piom::pbench {

enum class SpanName : uint8_t {
  kOp,  ///< one workload op (round trip, window, iteration, allreduce)
  kMpiIsend,
  kMpiIrecv,
  kMpiIallreduce,
  kMpiWait,
  kMpiTest,  ///< a test() polling loop until the op's requests completed
  kNmadIsend,
  kNmadIrecv,
  kNmadFlush,
  kNmadProgress,  ///< caller pump until the op's requests complete
  kChanPostSend,
  kChanPostRecv,
  kChanRdmaRead,
  kChanPoll,  ///< caller poll loop until the op's completions arrived
  kCount,     ///< also "no parent"
};

[[nodiscard]] const char* span_name(SpanName n);

struct SpanRec {
  int64_t t0 = 0;
  int64_t t1 = 0;
  /// Request id: the op ordinal, shared by the op span, its children and —
  /// for collectives and round trips — the peer ranks' spans of that op.
  uint64_t req = 0;
  SpanName name = SpanName::kOp;
  SpanName parent = SpanName::kCount;
};

/// One recording thread's spans. Durations of every span feed the stats;
/// only the first kKeep spans are kept whole for the trace file.
class SpanBuf {
 public:
  static constexpr std::size_t kKeep = 2000;

  SpanBuf(int pid, uint32_t tid) : pid_(pid), tid_(tid) {}

  void add(const SpanRec& s) {
    durations_ns_[static_cast<std::size_t>(s.name)].push_back(
        static_cast<float>(s.t1 - s.t0));
    if (kept_.size() < kKeep) kept_.push_back(s);
  }

 private:
  friend class Tracer;
  int pid_;
  uint32_t tid_;
  std::vector<SpanRec> kept_;
  std::array<std::vector<float>, static_cast<std::size_t>(SpanName::kCount)>
      durations_ns_;
};

/// RAII span; a null buffer (untraced runs) costs one branch.
class Span {
 public:
  Span(SpanBuf* buf, SpanName name, uint64_t req,
       SpanName parent = SpanName::kCount)
      : buf_(buf) {
    if (buf_ != nullptr) rec_ = {util::now_ns(), 0, req, name, parent};
  }
  ~Span() {
    if (buf_ == nullptr) return;
    rec_.t1 = util::now_ns();
    buf_->add(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuf* buf_;
  SpanRec rec_;
};

/// All spans of one workload's traced run.
class Tracer {
 public:
  /// Trace-file pid offsets beyond the ranks: the caller-pumped ladder
  /// rungs, and the library's own util::trace events.
  static constexpr int kLadderPid = 8;
  static constexpr int kRuntimePid = 9;

  /// `label` names the workload in the trace file; its ranks appear as
  /// pids pid_base + rank.
  Tracer(std::string label, int pid_base)
      : label_(std::move(label)), pid_base_(pid_base) {}

  /// A buffer for the calling thread, acting for `rank` (or kLadderPid).
  SpanBuf* thread_buf(int rank);

  /// Durations (ns) of every span named `n`, pooled across threads.
  [[nodiscard]] std::vector<double> durations_ns(SpanName n) const;

  /// Keep the library's util::trace events of the traced world.
  void set_runtime_events(std::vector<util::trace::Event> events) {
    runtime_events_ = std::move(events);
  }

  /// Write every tracer as one Chrome trace-event JSON document. Returns
  /// false when the file cannot be written.
  static bool write_chrome(const std::string& path,
                           const std::vector<const Tracer*>& tracers);

 private:
  std::string label_;
  int pid_base_;
  mutable std::mutex lock_;
  std::vector<std::unique_ptr<SpanBuf>> bufs_;
  std::vector<util::trace::Event> runtime_events_;
};

}  // namespace piom::pbench
