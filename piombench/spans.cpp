#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace piom::pbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOp: return "op";
    case SpanName::kMpiIsend: return "mpi.isend";
    case SpanName::kMpiIrecv: return "mpi.irecv";
    case SpanName::kMpiIallreduce: return "mpi.iallreduce";
    case SpanName::kMpiWait: return "mpi.wait";
    case SpanName::kMpiTest: return "mpi.test";
    case SpanName::kNmadIsend: return "nmad.isend";
    case SpanName::kNmadIrecv: return "nmad.irecv";
    case SpanName::kNmadFlush: return "nmad.flush";
    case SpanName::kNmadProgress: return "nmad.progress";
    case SpanName::kChanPostSend: return "transport.post_send";
    case SpanName::kChanPostRecv: return "transport.post_recv";
    case SpanName::kChanRdmaRead: return "transport.post_rdma_read";
    case SpanName::kChanPoll: return "transport.poll";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanBuf* Tracer::thread_buf(int rank) {
  std::lock_guard<std::mutex> lk(lock_);
  bufs_.push_back(std::make_unique<SpanBuf>(
      pid_base_ + rank, static_cast<uint32_t>(bufs_.size())));
  return bufs_.back().get();
}

std::vector<double> Tracer::durations_ns(SpanName n) const {
  std::lock_guard<std::mutex> lk(lock_);
  std::vector<double> out;
  for (const auto& b : bufs_) {
    const auto& d = b->durations_ns_[static_cast<std::size_t>(n)];
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

namespace {

/// Category = layer prefix of the span name ("mpi", "nmad", ...).
std::string category(const char* name) {
  const std::string s = name;
  const auto dot = s.find('.');
  return dot == std::string::npos ? "bench" : s.substr(0, dot);
}

}  // namespace

bool Tracer::write_chrome(const std::string& path,
                          const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Timestamps are relative to the earliest record, in microseconds.
  int64_t base = std::numeric_limits<int64_t>::max();
  for (const Tracer* t : tracers) {
    std::lock_guard<std::mutex> lk(t->lock_);
    for (const auto& b : t->bufs_) {
      for (const SpanRec& s : b->kept_) base = std::min(base, s.t0);
    }
    for (const auto& e : t->runtime_events_) base = std::min(base, e.t_ns);
  }
  if (base == std::numeric_limits<int64_t>::max()) base = 0;
  const auto us = [base](int64_t ns) {
    return static_cast<double>(ns - base) * 1e-3;
  };

  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  const auto sep = [&] {
    std::fprintf(f, first ? "  " : ",\n  ");
    first = false;
  };
  for (const Tracer* t : tracers) {
    std::lock_guard<std::mutex> lk(t->lock_);
    std::vector<int> pids;
    for (const auto& b : t->bufs_) pids.push_back(b->pid_);
    std::sort(pids.begin(), pids.end());
    pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
    for (const int pid : pids) {
      const int rank = pid - t->pid_base_;
      const std::string who = rank == kLadderPid
                                  ? std::string("ladder rungs")
                                  : "rank " + std::to_string(rank);
      sep();
      std::fprintf(f,
                   "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                   "\"args\": {\"name\": \"%s %s\"}}",
                   pid, t->label_.c_str(), who.c_str());
    }
    for (const auto& b : t->bufs_) {
      for (const SpanRec& s : b->kept_) {
        const char* name = span_name(s.name);
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %u, "
                     "\"args\": {\"req\": %llu, \"parent\": \"%s\"}}",
                     name, category(name).c_str(), us(s.t0),
                     static_cast<double>(s.t1 - s.t0) * 1e-3, b->pid_, b->tid_,
                     static_cast<unsigned long long>(s.req),
                     s.parent == SpanName::kCount ? "" : span_name(s.parent));
      }
    }
    if (!t->runtime_events_.empty()) {
      // The library's scheduler/packet events: one pseudo-process per
      // workload, one track per recording thread.
      const int pid = t->pid_base_ + kRuntimePid;
      sep();
      std::fprintf(f,
                   "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                   "\"args\": {\"name\": \"%s util::trace\"}}",
                   pid, t->label_.c_str());
      for (const auto& e : t->runtime_events_) {
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"runtime\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"ts\": %.3f, \"pid\": %d, \"tid\": %u, "
                     "\"args\": {\"arg0\": %u, \"arg1\": %llu}}",
                     util::trace::kind_name(e.kind), us(e.t_ns), pid, e.thread,
                     e.arg0, static_cast<unsigned long long>(e.arg1));
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace piom::pbench
