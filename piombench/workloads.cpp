#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "measure.hpp"
#include "mpi/engine_pioman.hpp"
#include "sync/semaphore.hpp"

namespace piom::pbench {

const std::vector<Spec>& specs() {
  static const std::vector<Spec> kSpecs = {
      {WorkloadId::kPingpongNic, "pingpong_nic", "one-way latency (RTT/2)", 2,
       false, {{0, 1}}},
      {WorkloadId::kMsgrateShmem, "msgrate_shmem",
       "per-message share of a 256-message window", 2, true, {{0, 1}}},
      {WorkloadId::kOverlapNic, "overlap_nic",
       "receiver iteration (irecv, 200 us compute, wait)", 2, false, {{0, 1}}},
      // Recursive doubling on 4 ranks pairs r with r^1, then r^2; the stop
      // bcast's binomial tree uses a subset of those pairs.
      {WorkloadId::kAllreduceShmem4, "allreduce_shmem4",
       "blocking allreduce of 256 doubles", 4, true,
       {{0, 1}, {2, 3}, {0, 2}, {1, 3}}},
  };
  return kSpecs;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

uint64_t msgrate_value(uint64_t seed, uint64_t w, int tag, int k) {
  return mix(seed, w, static_cast<uint64_t>(tag), static_cast<uint64_t>(k));
}

void msgrate_send_order(uint64_t seed, uint64_t w, std::vector<int>& tags,
                        std::vector<uint64_t>& values) {
  tags.resize(kWindow);
  values.resize(kWindow);
  for (int i = 0; i < kWindow; ++i) tags[static_cast<std::size_t>(i)] = i % kTags;
  for (int i = kWindow - 1; i > 0; --i) {
    const auto j = mix(seed, w, static_cast<uint64_t>(i), 1) %
                   static_cast<uint64_t>(i + 1);
    std::swap(tags[static_cast<std::size_t>(i)], tags[j]);
  }
  // The k-th send on a tag carries that tag's k-th value, so the
  // receiver's per-tag FIFO order is checkable.
  int nth[kTags] = {};
  for (int i = 0; i < kWindow; ++i) {
    const int tag = tags[static_cast<std::size_t>(i)];
    values[static_cast<std::size_t>(i)] = msgrate_value(seed, w, tag, nth[tag]++);
  }
}

void overlap_fill(uint64_t seed, uint64_t op, std::vector<uint64_t>& words) {
  words.resize(kOverlapWords);
  const uint64_t base = mix(seed, op);
  for (std::size_t j = 0; j < words.size(); ++j) words[j] = base ^ j;
}

bool overlap_check(uint64_t seed, uint64_t op,
                   const std::vector<uint64_t>& words) {
  const uint64_t base = mix(seed, op);
  for (std::size_t j = 0; j < words.size(); ++j) {
    if (words[j] != (base ^ j)) return false;
  }
  return words.size() == kOverlapWords;
}

double reduce_input(uint64_t seed, uint64_t op, int rank, int j) {
  return static_cast<double>(
      mix(seed, op, static_cast<uint64_t>(rank), static_cast<uint64_t>(j)) %
      1024);
}

mpi::WorldConfig world_config(const Spec& spec, mpi::EngineKind engine) {
  mpi::WorldConfig cfg;
  cfg.engine = engine;
  cfg.nranks = spec.nranks;
  // One poller per rank keeps the runtime's pollers within nproc on every
  // workload (2 or 4 ranks on a 4-CPU host).
  cfg.pioman.workers = 1;
  cfg.policy.node_of.resize(static_cast<std::size_t>(spec.nranks));
  if (!spec.shmem) {
    std::iota(cfg.policy.node_of.begin(), cfg.policy.node_of.end(), 0);
  }
  return cfg;
}

namespace {

constexpr mpi::Tag kDataTag = 1;
constexpr mpi::Tag kAckTag = 100;
constexpr mpi::Tag kBringUpTag = 7;

/// Run one body per rank on its own thread; rethrows the first exception.
/// Application threads stay unpinned: every rank's single runtime worker
/// pins itself to CPU 0, and pinning the application threads elsewhere
/// leaves those pollers time-slicing CPU 0 alone, which put every op on
/// the 4 ms scheduler tick (README.md, "Host effects").
void run_ranks(int nranks, const std::function<void(int)>& body) {
  std::mutex lock;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        std::lock_guard<std::mutex> lk(lock);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

SpanBuf* buf_for(Tracer* tracer, int rank) {
  return tracer != nullptr ? tracer->thread_buf(rank) : nullptr;
}

// ---- pingpong_nic: closed loop, 8 B, one client and one echo thread ----

WorldRun pingpong(mpi::World& world, const Budget& budget, uint64_t seed,
                  Tracer* tracer) {
  WorldRun out;
  Series series;
  run_ranks(2, [&](int rank) {
    SpanBuf* sb = buf_for(tracer, rank);
    mpi::Comm& c = world.comm(rank);
    if (rank == 1) {
      // Echo every value back; 0 is the stop value (the client never
      // sends it as data).
      for (uint64_t op = 1;; ++op) {
        uint64_t v = 0;
        mpi::Request r, s;
        {
          Span sp(sb, SpanName::kMpiIrecv, op);
          c.irecv(r, 0, kDataTag, &v, sizeof v);
        }
        {
          Span sp(sb, SpanName::kMpiWait, op);
          c.wait(r);
        }
        if (r.failed() || v == 0) return;
        {
          Span sp(sb, SpanName::kMpiIsend, op);
          c.isend(s, 0, kDataTag, &v, sizeof v);
        }
        Span sp(sb, SpanName::kMpiWait, op);
        c.wait(s);
      }
    }
    for (int64_t i = 0; !budget.done(i); ++i) {
      const uint64_t op = static_cast<uint64_t>(i) + 1;
      const uint64_t v = mix(seed, op) | 1;
      uint64_t rx = 0;
      mpi::Request r, s;
      const int64_t t0 = util::now_ns();
      {
        Span span(sb, SpanName::kOp, op);
        {
          Span sp(sb, SpanName::kMpiIrecv, op, SpanName::kOp);
          c.irecv(r, 1, kDataTag, &rx, sizeof rx);
        }
        {
          Span sp(sb, SpanName::kMpiIsend, op, SpanName::kOp);
          c.isend(s, 1, kDataTag, &v, sizeof v);
        }
        {
          Span sp(sb, SpanName::kMpiWait, op, SpanName::kOp);
          c.wait(s);
          c.wait(r);
        }
      }
      const int64_t t1 = util::now_ns();
      series.add(t0, t1, static_cast<double>(t1 - t0) * 1e-3 / 2);
      out.attempted++;
      if (rx != v || r.failed() || s.failed()) out.failed++;
      out.msgs += 2;
      touch_progress();
    }
    const uint64_t stop = 0;
    c.send(1, kDataTag, &stop, sizeof stop);
    out.msgs++;
  });
  series.kept_values(out.op_us);
  out.units = static_cast<double>(series.size() - series.first_kept());
  out.units_s = series.kept_seconds();
  return out;
}

// ---- msgrate_shmem: 256 x 8 B windows over 64 tags, 1 B ack per window --

struct TagCheck {
  uint64_t wrong = 0;      ///< payloads that belong to no send of the tag
  uint64_t reordered = 0;  ///< right tag and window, wrong per-tag position
};

/// Check a received window (posted grouped by tag). Every payload must be
/// one of its tag's values in this window, each used once; a payload in
/// another position of its tag breaks MPI's non-overtaking order, which
/// is counted apart from corruption.
TagCheck check_window(uint64_t seed, uint64_t w, const std::vector<uint64_t>& got) {
  TagCheck out;
  for (int tag = 0; tag < kTags; ++tag) {
    bool used[kPerTag] = {};
    for (int k = 0; k < kPerTag; ++k) {
      const uint64_t v = got[static_cast<std::size_t>(tag * kPerTag + k)];
      int found = -1;
      for (int j = 0; j < kPerTag && found < 0; ++j) {
        if (!used[j] && msgrate_value(seed, w, tag, j) == v) found = j;
      }
      if (found < 0) {
        out.wrong++;
        continue;
      }
      used[found] = true;
      if (found != k) out.reordered++;
    }
  }
  return out;
}

/// MPI_Testall-style completion: poll every request with test(), each call
/// contributing a scheduling pass, until the whole window is done. Both
/// msgrate sides complete this way so the workload times the per-message
/// software path; with blocking waits its windows mostly measured how
/// long the parked side waited for a CPU-0 poller (per-message median
/// 1.0-2.1 us from run to run, against 1.3-1.6 us polled).
void complete_all(mpi::Comm& c, std::vector<mpi::Request>& reqs, SpanBuf* sb,
                  uint64_t op) {
  Span sp(sb, SpanName::kMpiTest, op, SpanName::kOp);
  for (bool all = false; !all;) {
    all = true;
    for (mpi::Request& r : reqs) all = c.test(r) && all;
  }
}

WorldRun msgrate(mpi::World& world, const Budget& budget, uint64_t seed,
                 Tracer* tracer) {
  WorldRun out;
  Series series;
  std::atomic<uint64_t> attempted{0}, failed{0}, reordered{0};
  run_ranks(2, [&](int rank) {
    SpanBuf* sb = buf_for(tracer, rank);
    mpi::Comm& c = world.comm(rank);
    std::vector<mpi::Request> reqs(kWindow);
    std::vector<uint64_t> buf(kWindow);
    if (rank == 1) {
      // Receiver: pre-post the window grouped by tag, verify, then ack
      // with the continue flag (the receiver owns the stop decision).
      for (int64_t w = 0;; ++w) {
        const uint64_t op = static_cast<uint64_t>(w) + 1;
        Span span(sb, SpanName::kOp, op);
        for (int i = 0; i < kWindow; ++i) {
          Span sp(sb, SpanName::kMpiIrecv, op, SpanName::kOp);
          c.irecv(reqs[static_cast<std::size_t>(i)], 0,
                  static_cast<mpi::Tag>(i / kPerTag),
                  &buf[static_cast<std::size_t>(i)], sizeof(uint64_t));
        }
        complete_all(c, reqs, sb, op);
        uint64_t bad = 0;
        for (const mpi::Request& r : reqs) bad += r.failed() ? 1 : 0;
        const TagCheck check = check_window(seed, static_cast<uint64_t>(w), buf);
        reordered.fetch_add(check.reordered, std::memory_order_relaxed);
        bad += check.wrong;
        attempted.fetch_add(kWindow, std::memory_order_relaxed);
        failed.fetch_add(bad, std::memory_order_relaxed);
        const uint8_t more = budget.done(w + 1) ? 0 : 1;
        mpi::Request ack;
        c.isend(ack, 0, kAckTag, &more, 1);
        while (!c.test(ack)) {
        }
        touch_progress();
        if (more == 0) return;
      }
    }
    // Sender: the seeded tag interleave of each window.
    std::vector<int> tags;
    for (int64_t w = 0;; ++w) {
      const uint64_t op = static_cast<uint64_t>(w) + 1;
      msgrate_send_order(seed, static_cast<uint64_t>(w), tags, buf);
      uint8_t more = 0;
      mpi::Request ack;
      c.irecv(ack, 1, kAckTag, &more, 1);
      const int64_t t0 = util::now_ns();
      {
        Span span(sb, SpanName::kOp, op);
        for (int i = 0; i < kWindow; ++i) {
          Span sp(sb, SpanName::kMpiIsend, op, SpanName::kOp);
          c.isend(reqs[static_cast<std::size_t>(i)], 1,
                  static_cast<mpi::Tag>(tags[static_cast<std::size_t>(i)]),
                  &buf[static_cast<std::size_t>(i)], sizeof(uint64_t));
        }
        complete_all(c, reqs, sb, op);
        for (const mpi::Request& r : reqs) {
          if (r.failed()) failed.fetch_add(1, std::memory_order_relaxed);
        }
        Span sp(sb, SpanName::kMpiTest, op, SpanName::kOp);
        while (!c.test(ack)) {
        }
      }
      const int64_t t1 = util::now_ns();
      series.add(t0, t1, static_cast<double>(t1 - t0) * 1e-3 / kWindow);
      out.msgs += kWindow + 1;
      if (ack.failed() || more == 0) return;
    }
  });
  series.kept_values(out.op_us);
  out.units = static_cast<double>(series.size() - series.first_kept()) * kWindow;
  out.units_s = series.kept_seconds();
  out.attempted = attempted.load();
  out.failed = failed.load();
  out.reordered = reordered.load();
  return out;
}

// ---- overlap_nic: Fig 6 — receiver computes while a 64 KiB rdv lands ----

constexpr double kComputeUs = 200.0;

WorldRun overlap(mpi::World& world, const Budget& budget, uint64_t seed,
                 Tracer* tracer) {
  WorldRun out;
  Series series;
  sync::Semaphore posted;
  std::atomic<bool> stop{false};
  run_ranks(2, [&](int rank) {
    SpanBuf* sb = buf_for(tracer, rank);
    mpi::Comm& c = world.comm(rank);
    std::vector<uint64_t> data(kOverlapWords);
    if (rank == 0) {
      // Sender: fill the next payload, wait for the receiver's go, send.
      for (uint64_t op = 1;; ++op) {
        overlap_fill(seed, op, data);
        posted.wait();
        if (stop.load(std::memory_order_acquire)) return;
        mpi::Request s;
        {
          Span sp(sb, SpanName::kMpiIsend, op);
          c.isend(s, 1, kDataTag, data.data(), kOverlapWords * sizeof(uint64_t));
        }
        Span sp(sb, SpanName::kMpiWait, op);
        c.wait(s);
      }
    }
    // Receiver: Ttotal runs from irecv to the end of wait.
    for (int64_t i = 0;; ++i) {
      if (budget.done(i)) {
        stop.store(true, std::memory_order_release);
        posted.post();
        return;
      }
      const uint64_t op = static_cast<uint64_t>(i) + 1;
      mpi::Request r;
      int64_t comp_ns = 0;
      const int64_t t0 = util::now_ns();
      {
        Span span(sb, SpanName::kOp, op);
        {
          Span sp(sb, SpanName::kMpiIrecv, op, SpanName::kOp);
          c.irecv(r, 0, kDataTag, data.data(), kOverlapWords * sizeof(uint64_t));
        }
        posted.post();
        const int64_t c0 = util::now_ns();
        util::burn_cpu_us(kComputeUs);
        comp_ns = util::now_ns() - c0;
        Span sp(sb, SpanName::kMpiWait, op, SpanName::kOp);
        c.wait(r);
      }
      const int64_t t1 = util::now_ns();
      series.add(t0, t1, static_cast<double>(t1 - t0) * 1e-3);
      out.overlap_ratio.push_back(static_cast<double>(comp_ns) /
                                  static_cast<double>(t1 - t0));
      out.attempted++;
      if (r.failed() || r.received() != kOverlapWords * sizeof(uint64_t) ||
          !overlap_check(seed, op, data)) {
        out.failed++;
      }
      out.msgs++;
      touch_progress();
    }
  });
  out.overlap_ratio.erase(
      out.overlap_ratio.begin(),
      out.overlap_ratio.begin() + static_cast<long>(series.first_kept()));
  series.kept_values(out.op_us);
  out.units = static_cast<double>(series.size() - series.first_kept());
  out.units_s = series.kept_seconds();
  return out;
}

// ---- allreduce_shmem4: 4 ranks, blocking allreduce of 256 doubles ----

constexpr int kStopEvery = 16;

WorldRun allreduce(mpi::World& world, const Budget& budget, uint64_t seed,
                   Tracer* tracer) {
  const int n = world.nranks();
  WorldRun out;
  std::vector<Series> series(static_cast<std::size_t>(n));
  std::atomic<uint64_t> attempted{0}, failed{0};
  run_ranks(n, [&](int rank) {
    SpanBuf* sb = buf_for(tracer, rank);
    mpi::Comm& c = world.comm(rank);
    Series& mine = series[static_cast<std::size_t>(rank)];
    std::vector<double> data(kReduceCount), expect(kReduceCount);
    for (int64_t i = 0;; ++i) {
      if (i % kStopEvery == 0) {
        // Rank 0 decides; everyone agrees through a 1 B bcast.
        uint8_t more = (rank == 0 && !budget.done(i)) ? 1 : 0;
        c.bcast(&more, 1, 0);
        if (more == 0) return;
      }
      const uint64_t op = static_cast<uint64_t>(i) + 1;
      for (int j = 0; j < kReduceCount; ++j) {
        data[static_cast<std::size_t>(j)] = reduce_input(seed, op, rank, j);
        double sum = 0;
        for (int r = 0; r < n; ++r) sum += reduce_input(seed, op, r, j);
        expect[static_cast<std::size_t>(j)] = sum;
      }
      const int64_t t0 = util::now_ns();
      {
        Span span(sb, SpanName::kOp, op);
        mpi::CollRequest req;
        {
          Span sp(sb, SpanName::kMpiIallreduce, op, SpanName::kOp);
          c.iallreduce(req, data.data(), data.size(), mpi::ReduceOp::kSum);
        }
        Span sp(sb, SpanName::kMpiWait, op, SpanName::kOp);
        c.wait(req);
      }
      const int64_t t1 = util::now_ns();
      mine.add(t0, t1, static_cast<double>(t1 - t0) * 1e-3);
      attempted.fetch_add(1, std::memory_order_relaxed);
      if (data != expect) failed.fetch_add(1, std::memory_order_relaxed);
      touch_progress();
    }
  });
  // One sample per call: the call time averaged over the ranks, the
  // latency collective benchmarks report. A single rank's call time sits on
  // a 4 ms comb (every poller shares CPU 0), so its median jumped between
  // teeth from run to run (12 or 16 ms); the 4-rank average has 1 ms teeth
  // and a steady median.
  const Series& primary = series[0];
  for (const Series& s : series) {
    if (s.size() != primary.size()) {
      throw std::logic_error("allreduce: ranks completed different call counts");
    }
  }
  for (std::size_t j = primary.first_kept(); j < primary.size(); ++j) {
    double sum = 0;
    for (const Series& s : series) sum += s.value(j);
    out.op_us.push_back(sum / static_cast<double>(series.size()));
  }
  out.units = static_cast<double>(primary.size() - primary.first_kept());
  out.units_s = primary.kept_seconds();
  out.attempted = attempted.load();
  out.failed = failed.load();
  // Recursive doubling: every rank sends once per round, log2(n) rounds;
  // the binomial stop bcast adds n-1 sends every kStopEvery calls.
  const auto calls = static_cast<uint64_t>(primary.size());
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  out.msgs = calls * static_cast<uint64_t>(n * rounds) +
             (calls / kStopEvery + 1) * static_cast<uint64_t>(n - 1);
  return out;
}

}  // namespace

WorldRun run_world(const Spec& spec, mpi::World& world, const Budget& budget,
                   uint64_t seed, Tracer* tracer) {
  switch (spec.id) {
    case WorkloadId::kPingpongNic: return pingpong(world, budget, seed, tracer);
    case WorkloadId::kMsgrateShmem: return msgrate(world, budget, seed, tracer);
    case WorkloadId::kOverlapNic: return overlap(world, budget, seed, tracer);
    case WorkloadId::kAllreduceShmem4:
      return allreduce(world, budget, seed, tracer);
  }
  throw std::logic_error("run_world: unknown workload");
}

double bring_up(const Spec& spec, uint64_t seed) {
  const int64_t t0 = util::now_ns();
  mpi::World world(world_config(spec, mpi::EngineKind::kPioman));
  for (const auto& [a, b] : spec.pairs) {
    // One thread drives both ends with test(): no application threads to
    // start, and no rank parks waiting for its peer's thread.
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      const auto v = static_cast<uint8_t>(
          mix(seed, static_cast<uint64_t>(from), static_cast<uint64_t>(to)));
      uint8_t rx = static_cast<uint8_t>(~v);
      mpi::Request s, r;
      world.comm(to).irecv(r, from, kBringUpTag, &rx, 1);
      world.comm(from).isend(s, to, kBringUpTag, &v, 1);
      for (;;) {
        const bool sent = world.comm(from).test(s);
        const bool got = world.comm(to).test(r);
        if (sent && got) break;
      }
      if (rx != v || s.failed() || r.failed()) {
        throw std::runtime_error(std::string("bring-up round trip corrupted on ") +
                                 spec.name);
      }
    }
  }
  // Set-up ends when every pair has completed a round trip. Tear-down runs
  // untimed: it waits for each rank's poller to get CPU time, which on a
  // shared CPU is a multiple of the scheduler slice, not library work.
  const double seconds = static_cast<double>(util::now_ns() - t0) * 1e-9;
  world.shutdown();
  touch_progress();
  return seconds;
}

Counters read_counters(mpi::World& world, const Spec& spec) {
  Counters c;
  for (const auto& [a, b] : spec.pairs) {
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      for (const transport::IChannel* ch : world.pair_channels(from, to)) {
        const transport::ChannelStats st = ch->stats();
        c.packets += static_cast<double>(st.packets_tx);
        c.bytes += static_cast<double>(st.bytes_tx);
      }
    }
  }
  nmad::GateStats& g = c.gate;
  for (int r = 0; r < world.nranks(); ++r) {
    nmad::Session& session = world.session(r);
    const std::size_t ngates = session.gate_count();
    c.gates += static_cast<double>(ngates);
    for (std::size_t i = 0; i < ngates; ++i) {
      const nmad::GateStats s = session.gate(i).stats();
      g.eager_sent += s.eager_sent;
      g.eager_recv += s.eager_recv;
      g.packs_sent += s.packs_sent;
      g.msgs_packed += s.msgs_packed;
      g.rdv_sent += s.rdv_sent;
      g.rdv_recv += s.rdv_recv;
      g.unexpected_eager += s.unexpected_eager;
      g.unexpected_rts += s.unexpected_rts;
      g.match_bucket_hits += s.match_bucket_hits;
      g.match_pool_hits += s.match_pool_hits;
      g.match_pool_misses += s.match_pool_misses;
      g.pw_pool_hits += s.pw_pool_hits;
      g.pw_pool_misses += s.pw_pool_misses;
      g.posted_depth_hw = std::max(g.posted_depth_hw, s.posted_depth_hw);
      g.unexpected_depth_hw =
          std::max(g.unexpected_depth_hw, s.unexpected_depth_hw);
    }
    auto* pioman = dynamic_cast<mpi::PiomanEngine*>(&world.engine(r));
    if (pioman == nullptr) continue;
    TaskManager& tm = pioman->task_manager();
    c.submissions += static_cast<double>(tm.submissions());
    for (int cpu = 0; cpu < tm.machine().ncpus(); ++cpu) {
      const CoreStats cs = tm.core_stats(cpu);
      c.tasks_run += static_cast<double>(cs.tasks_run);
      c.schedule_calls += static_cast<double>(cs.schedule_calls);
    }
  }
  return c;
}

}  // namespace piom::pbench
