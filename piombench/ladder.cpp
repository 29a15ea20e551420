#include "ladder.hpp"

#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"
#include "nmad/session.hpp"
#include "transport/cluster.hpp"

namespace piom::pbench {

namespace {

using transport::Completion;
using transport::IChannel;

constexpr nmad::Tag kDataTag = 1;
constexpr nmad::Tag kAckTag = 100;

/// One connected pair on the workload's backend (a = lower rank's side).
std::pair<IChannel*, IChannel*> make_pair(transport::Cluster& cluster,
                                          const Spec& spec) {
  return spec.shmem ? cluster.shmem().create_channel_pair("ladder.shm")
                    : cluster.create_sim_link("ladder.nic", {});
}

/// Poll `chs` until `rx` receive and `tx` send/RDMA completions arrived in
/// total. Returns the number of failed completions.
uint64_t poll_until(std::span<IChannel* const> chs, int rx, int tx) {
  uint64_t failed = 0;
  Completion c;
  while (rx > 0 || tx > 0) {
    for (IChannel* ch : chs) {
      while (ch->poll_rx(c)) --rx;
      while (ch->poll_tx(c)) {
        --tx;
        if (c.failed) ++failed;
      }
    }
  }
  return failed;
}

/// Record one op that started at `t0` and is worth `us`.
void record(Series& series, int64_t t0, double us) {
  series.add(t0, util::now_ns(), us);
  touch_progress();
}

double since_us(int64_t t0) {
  return static_cast<double>(util::now_ns() - t0) * 1e-3;
}

RungRun finish(const Series& series, uint64_t attempted, uint64_t failed) {
  RungRun out;
  series.kept_values(out.op_us);
  out.attempted = attempted;
  out.failed = failed;
  return out;
}

// ---- transport rung: raw IChannel traffic ----

RungRun transport_pingpong(const Spec& spec, const Budget& budget,
                           uint64_t seed, SpanBuf* sb) {
  transport::Cluster cluster;
  auto [a, b] = make_pair(cluster, spec);
  IChannel* const both[] = {a, b};
  Series series;
  uint64_t attempted = 0, failed = 0;
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    const uint64_t ping = mix(seed, op) | 1;
    uint64_t echo = 0, pong = 0;
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      {
        Span sp(sb, SpanName::kChanPostRecv, op, SpanName::kOp);
        b->post_recv(&echo, sizeof echo, op);
      }
      {
        Span sp(sb, SpanName::kChanPostSend, op, SpanName::kOp);
        a->post_send(&ping, sizeof ping, op);
      }
      {
        Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
        failed += poll_until(both, 1, 1);
      }
      {
        Span sp(sb, SpanName::kChanPostRecv, op, SpanName::kOp);
        a->post_recv(&pong, sizeof pong, op);
      }
      {
        Span sp(sb, SpanName::kChanPostSend, op, SpanName::kOp);
        b->post_send(&echo, sizeof echo, op);
      }
      Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
      failed += poll_until(both, 1, 1);
    }
    record(series, t0, since_us(t0) / 2);
    attempted++;
    if (pong != ping) failed++;
  }
  return finish(series, attempted, failed);
}

RungRun transport_msgrate(const Spec& spec, const Budget& budget,
                          uint64_t seed, SpanBuf* sb) {
  transport::Cluster cluster;
  auto [a, b] = make_pair(cluster, spec);
  IChannel* const both[] = {a, b};
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<int> tags;
  std::vector<uint64_t> tx, rx(kWindow);
  uint8_t more = 1, ack = 0;
  for (int64_t w = 0; !budget.done(w); ++w) {
    const uint64_t op = static_cast<uint64_t>(w) + 1;
    // A channel is one FIFO: the tag interleave is nmad's business, so
    // here the values simply arrive in send order.
    msgrate_send_order(seed, static_cast<uint64_t>(w), tags, tx);
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      for (int i = 0; i < kWindow; ++i) {
        Span sp(sb, SpanName::kChanPostRecv, op, SpanName::kOp);
        b->post_recv(&rx[static_cast<std::size_t>(i)], sizeof(uint64_t), op);
      }
      for (int i = 0; i < kWindow; ++i) {
        Span sp(sb, SpanName::kChanPostSend, op, SpanName::kOp);
        a->post_send(&tx[static_cast<std::size_t>(i)], sizeof(uint64_t), op);
      }
      {
        Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
        failed += poll_until(both, kWindow, kWindow);
      }
      a->post_recv(&ack, 1, op);
      b->post_send(&more, 1, op);
      Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
      failed += poll_until(both, 1, 1);
    }
    record(series, t0, since_us(t0) / kWindow);
    attempted += kWindow;
    for (int i = 0; i < kWindow; ++i) {
      if (rx[static_cast<std::size_t>(i)] != tx[static_cast<std::size_t>(i)]) {
        failed++;
      }
    }
  }
  return finish(series, attempted, failed);
}

RungRun transport_overlap(const Spec& spec, const Budget& budget,
                          uint64_t seed, SpanBuf* sb) {
  transport::Cluster cluster;
  // The receiver's channel reads the sender's buffer; the sender's
  // endpoint runs no code (RDMA is served by the NIC model).
  IChannel* const reader = make_pair(cluster, spec).second;
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<uint64_t> src, dst(kOverlapWords);
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    overlap_fill(seed, op, src);
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      {
        Span sp(sb, SpanName::kChanRdmaRead, op, SpanName::kOp);
        reader->post_rdma_read(dst.data(), src.data(),
                               kOverlapWords * sizeof(uint64_t), op);
      }
      Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
      failed += poll_until({&reader, 1}, 0, 1);
    }
    record(series, t0, since_us(t0));
    attempted++;
    if (!overlap_check(seed, op, dst)) failed++;
  }
  return finish(series, attempted, failed);
}

/// log2(n) for the recursive-doubling rungs (n must be a power of two).
int doubling_rounds(int n) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  if ((1 << rounds) != n) throw std::logic_error("allreduce rung: n not 2^k");
  return rounds;
}

/// Every rank's input vector of op `op`, and their elementwise sum.
void fill_reduce(uint64_t seed, uint64_t op, int n,
                 std::vector<std::vector<double>>& v,
                 std::vector<double>& expect) {
  expect.assign(kReduceCount, 0);
  for (int r = 0; r < n; ++r) {
    auto& vr = v[static_cast<std::size_t>(r)];
    vr.resize(kReduceCount);
    for (int j = 0; j < kReduceCount; ++j) {
      vr[static_cast<std::size_t>(j)] = reduce_input(seed, op, r, j);
      expect[static_cast<std::size_t>(j)] += vr[static_cast<std::size_t>(j)];
    }
  }
}

/// v[r] += tmp[r] for every rank: the combine step of one round.
void combine(std::vector<std::vector<double>>& v,
             const std::vector<std::vector<double>>& tmp) {
  for (std::size_t r = 0; r < v.size(); ++r) {
    for (std::size_t j = 0; j < v[r].size(); ++j) v[r][j] += tmp[r][j];
  }
}

uint64_t count_wrong(const std::vector<std::vector<double>>& v,
                     const std::vector<double>& expect) {
  uint64_t wrong = 0;
  for (const auto& vr : v) wrong += vr != expect ? 1 : 0;
  return wrong;
}

RungRun transport_allreduce(const Spec& spec, const Budget& budget,
                            uint64_t seed, SpanBuf* sb) {
  const int n = spec.nranks;
  const int rounds = doubling_rounds(n);
  transport::Cluster cluster;
  std::map<std::pair<int, int>, IChannel*> ch;
  for (const auto& [x, y] : spec.pairs) {
    auto [cx, cy] = cluster.shmem().create_channel_pair("ladder.shm");
    ch[{x, y}] = cx;
    ch[{y, x}] = cy;
  }
  constexpr std::size_t kBytes = kReduceCount * sizeof(double);
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::vector<double>> v(static_cast<std::size_t>(n)),
      tmp(static_cast<std::size_t>(n), std::vector<double>(kReduceCount));
  std::vector<double> expect;
  std::vector<IChannel*> used(static_cast<std::size_t>(n));
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    fill_reduce(seed, op, n, v, expect);
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      for (int k = 0; k < rounds; ++k) {
        for (int r = 0; r < n; ++r) {
          IChannel* c = ch.at({r, r ^ (1 << k)});
          used[static_cast<std::size_t>(r)] = c;
          Span sp(sb, SpanName::kChanPostRecv, op, SpanName::kOp);
          c->post_recv(tmp[static_cast<std::size_t>(r)].data(), kBytes, op);
        }
        for (int r = 0; r < n; ++r) {
          Span sp(sb, SpanName::kChanPostSend, op, SpanName::kOp);
          used[static_cast<std::size_t>(r)]->post_send(
              v[static_cast<std::size_t>(r)].data(), kBytes, op);
        }
        {
          Span sp(sb, SpanName::kChanPoll, op, SpanName::kOp);
          failed += poll_until(used, n, n);
        }
        combine(v, tmp);
      }
    }
    record(series, t0, since_us(t0));
    attempted += static_cast<uint64_t>(n);
    failed += count_wrong(v, expect);
  }
  return finish(series, attempted, failed);
}

// ---- nmad rung: Gates + Session::progress, caller-pumped ----

/// Two sessions joined by one gate pair on the workload's backend.
struct GatePair {
  transport::Cluster cluster;
  nmad::Session sa{"ladder.a"};
  nmad::Session sb{"ladder.b"};
  nmad::Gate* ga = nullptr;
  nmad::Gate* gb = nullptr;

  explicit GatePair(const Spec& spec) {
    auto [a, b] = make_pair(cluster, spec);
    ga = &sa.create_gate({a}, 1);
    gb = &sb.create_gate({b}, 0);
  }
  /// Drive both sessions until `done()`.
  template <typename Done>
  void pump(SpanBuf* spans, uint64_t op, Done done) {
    Span sp(spans, SpanName::kNmadProgress, op, SpanName::kOp);
    while (!done()) {
      sa.progress();
      sb.progress();
    }
  }
};

RungRun nmad_pingpong(const Spec& spec, const Budget& budget, uint64_t seed,
                      SpanBuf* sb) {
  GatePair g(spec);
  Series series;
  uint64_t attempted = 0, failed = 0;
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    const uint64_t ping = mix(seed, op) | 1;
    uint64_t echo = 0, pong = 0;
    nmad::SendRequest s1, s2;
    nmad::RecvRequest r1, r2;
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      {
        Span sp(sb, SpanName::kNmadIrecv, op, SpanName::kOp);
        g.gb->irecv(r1, kDataTag, &echo, sizeof echo);
      }
      {
        Span sp(sb, SpanName::kNmadIsend, op, SpanName::kOp);
        g.ga->isend(s1, kDataTag, &ping, sizeof ping);
      }
      g.pump(sb, op, [&] { return r1.completed() && s1.completed(); });
      {
        Span sp(sb, SpanName::kNmadIrecv, op, SpanName::kOp);
        g.ga->irecv(r2, kDataTag, &pong, sizeof pong);
      }
      {
        Span sp(sb, SpanName::kNmadIsend, op, SpanName::kOp);
        g.gb->isend(s2, kDataTag, &echo, sizeof echo);
      }
      g.pump(sb, op, [&] { return r2.completed() && s2.completed(); });
    }
    record(series, t0, since_us(t0) / 2);
    attempted++;
    if (pong != ping) failed++;
  }
  return finish(series, attempted, failed);
}

RungRun nmad_msgrate(const Spec& spec, const Budget& budget, uint64_t seed,
                     SpanBuf* sb) {
  GatePair g(spec);
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<int> tags;
  std::vector<uint64_t> tx, rx(kWindow);
  std::vector<nmad::SendRequest> sreq(kWindow);
  std::vector<nmad::RecvRequest> rreq(kWindow);
  const uint8_t more = 1;
  uint8_t ack = 0;
  const auto window_done = [&] {
    for (const auto& r : rreq) {
      if (!r.completed()) return false;
    }
    for (const auto& s : sreq) {
      if (!s.completed()) return false;
    }
    return true;
  };
  for (int64_t w = 0; !budget.done(w); ++w) {
    const uint64_t op = static_cast<uint64_t>(w) + 1;
    msgrate_send_order(seed, static_cast<uint64_t>(w), tags, tx);
    nmad::SendRequest ack_s;
    nmad::RecvRequest ack_r;
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      // Same shape as the workload: receives grouped by tag, deferred
      // sends in the seeded interleave, one flush (what PIOMan's offloaded
      // submission task does), then the 1 B ack.
      for (int i = 0; i < kWindow; ++i) {
        Span sp(sb, SpanName::kNmadIrecv, op, SpanName::kOp);
        g.gb->irecv(rreq[static_cast<std::size_t>(i)],
                    static_cast<nmad::Tag>(i / kPerTag),
                    &rx[static_cast<std::size_t>(i)], sizeof(uint64_t));
      }
      for (int i = 0; i < kWindow; ++i) {
        Span sp(sb, SpanName::kNmadIsend, op, SpanName::kOp);
        g.ga->isend(sreq[static_cast<std::size_t>(i)],
                    static_cast<nmad::Tag>(tags[static_cast<std::size_t>(i)]),
                    &tx[static_cast<std::size_t>(i)], sizeof(uint64_t),
                    /*defer=*/true);
      }
      {
        Span sp(sb, SpanName::kNmadFlush, op, SpanName::kOp);
        g.ga->flush();
      }
      g.pump(sb, op, window_done);
      g.ga->irecv(ack_r, kAckTag, &ack, 1);
      g.gb->isend(ack_s, kAckTag, &more, 1);
      g.pump(sb, op, [&] { return ack_r.completed() && ack_s.completed(); });
    }
    record(series, t0, since_us(t0) / kWindow);
    attempted += kWindow;
    for (int i = 0; i < kWindow; ++i) {
      const uint64_t want = msgrate_value(seed, static_cast<uint64_t>(w),
                                          i / kPerTag, i % kPerTag);
      if (rx[static_cast<std::size_t>(i)] != want) failed++;
    }
  }
  return finish(series, attempted, failed);
}

RungRun nmad_overlap(const Spec& spec, const Budget& budget, uint64_t seed,
                     SpanBuf* sb) {
  GatePair g(spec);
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<uint64_t> src, dst(kOverlapWords);
  constexpr std::size_t kBytes = kOverlapWords * sizeof(uint64_t);
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    overlap_fill(seed, op, src);
    nmad::SendRequest s;
    nmad::RecvRequest r;
    // RTS -> RDMA read -> FIN: done when the sender has seen the FIN.
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      {
        Span sp(sb, SpanName::kNmadIrecv, op, SpanName::kOp);
        g.gb->irecv(r, kDataTag, dst.data(), kBytes);
      }
      {
        Span sp(sb, SpanName::kNmadIsend, op, SpanName::kOp);
        g.ga->isend(s, kDataTag, src.data(), kBytes);
      }
      g.pump(sb, op, [&] { return r.completed() && s.completed(); });
    }
    record(series, t0, since_us(t0));
    attempted++;
    if (r.received != kBytes || !overlap_check(seed, op, dst)) failed++;
  }
  return finish(series, attempted, failed);
}

RungRun nmad_allreduce(const Spec& spec, const Budget& budget, uint64_t seed,
                       SpanBuf* sb) {
  const int n = spec.nranks;
  const int rounds = doubling_rounds(n);
  transport::Cluster cluster;
  std::vector<std::unique_ptr<nmad::Session>> sessions;
  for (int r = 0; r < n; ++r) {
    sessions.push_back(
        std::make_unique<nmad::Session>("ladder." + std::to_string(r)));
  }
  std::map<std::pair<int, int>, nmad::Gate*> gate;
  for (const auto& [x, y] : spec.pairs) {
    auto [cx, cy] = cluster.shmem().create_channel_pair("ladder.shm");
    gate[{x, y}] = &sessions[static_cast<std::size_t>(x)]->create_gate({cx}, y);
    gate[{y, x}] = &sessions[static_cast<std::size_t>(y)]->create_gate({cy}, x);
  }
  constexpr std::size_t kBytes = kReduceCount * sizeof(double);
  Series series;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::vector<double>> v(static_cast<std::size_t>(n)),
      tmp(static_cast<std::size_t>(n), std::vector<double>(kReduceCount));
  std::vector<double> expect;
  for (int64_t i = 0; !budget.done(i); ++i) {
    const uint64_t op = static_cast<uint64_t>(i) + 1;
    fill_reduce(seed, op, n, v, expect);
    const int64_t t0 = util::now_ns();
    {
      Span span(sb, SpanName::kOp, op);
      for (int k = 0; k < rounds; ++k) {
        std::vector<nmad::SendRequest> s(static_cast<std::size_t>(n));
        std::vector<nmad::RecvRequest> r(static_cast<std::size_t>(n));
        const auto tag = static_cast<nmad::Tag>(k + 1);
        for (int x = 0; x < n; ++x) {
          Span sp(sb, SpanName::kNmadIrecv, op, SpanName::kOp);
          gate.at({x, x ^ (1 << k)})->irecv(r[static_cast<std::size_t>(x)], tag,
                                            tmp[static_cast<std::size_t>(x)].data(),
                                            kBytes);
        }
        for (int x = 0; x < n; ++x) {
          Span sp(sb, SpanName::kNmadIsend, op, SpanName::kOp);
          gate.at({x, x ^ (1 << k)})->isend(s[static_cast<std::size_t>(x)], tag,
                                            v[static_cast<std::size_t>(x)].data(),
                                            kBytes);
        }
        {
          Span sp(sb, SpanName::kNmadProgress, op, SpanName::kOp);
          for (bool all = false; !all;) {
            for (auto& sess : sessions) sess->progress();
            all = true;
            for (const auto& q : r) all = all && q.completed();
            for (const auto& q : s) all = all && q.completed();
          }
        }
        combine(v, tmp);
      }
    }
    record(series, t0, since_us(t0));
    attempted += static_cast<uint64_t>(n);
    failed += count_wrong(v, expect);
  }
  return finish(series, attempted, failed);
}

}  // namespace

RungRun run_transport_rung(const Spec& spec, const Budget& budget,
                           uint64_t seed, SpanBuf* spans) {
  switch (spec.id) {
    case WorkloadId::kPingpongNic:
      return transport_pingpong(spec, budget, seed, spans);
    case WorkloadId::kMsgrateShmem:
      return transport_msgrate(spec, budget, seed, spans);
    case WorkloadId::kOverlapNic:
      return transport_overlap(spec, budget, seed, spans);
    case WorkloadId::kAllreduceShmem4:
      return transport_allreduce(spec, budget, seed, spans);
  }
  throw std::logic_error("run_transport_rung: unknown workload");
}

RungRun run_nmad_rung(const Spec& spec, const Budget& budget, uint64_t seed,
                      SpanBuf* spans) {
  switch (spec.id) {
    case WorkloadId::kPingpongNic:
      return nmad_pingpong(spec, budget, seed, spans);
    case WorkloadId::kMsgrateShmem:
      return nmad_msgrate(spec, budget, seed, spans);
    case WorkloadId::kOverlapNic:
      return nmad_overlap(spec, budget, seed, spans);
    case WorkloadId::kAllreduceShmem4:
      return nmad_allreduce(spec, budget, seed, spans);
  }
  throw std::logic_error("run_nmad_rung: unknown workload");
}

}  // namespace piom::pbench
