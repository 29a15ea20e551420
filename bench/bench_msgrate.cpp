// Message-rate hot path: millions of small messages per second through one
// gate on the shmem fast transport, with the two PR-7 ablations exposed as
// run dimensions —
//
//   matcher     = scan | bucket   (linear reference vs hashed tag buckets)
//   aggregation = off  | on       (one wire packet per msg vs kPack packing)
//
// Workload: windows of W pre-posted receives, then W deferred sends flushed
// as one burst. The receiver posts its window *grouped by tag* while the
// sender interleaves tags round-robin, so every arrival under the scan
// matcher walks ~W/2 posted entries before finding its per-tag FIFO head —
// the exact O(n) cost the bucket matcher collapses to a per-chain walk.
// This is the natural shape of per-communicator receive pre-posting in MPI
// apps, not an artificial worst case.
//
// Reported per (matcher, aggregation, size): sustained msgs/s, and p50/p99
// of the per-message window cost (window elapsed / W). Expected shape:
// bucket >= 2x scan on 8-64 B messages; aggregation multiplies on top by
// cutting wire packets per message.
//
// --quick shrinks windows; --json <path> records the BENCH_*.json layout.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "nmad/request.hpp"
#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "transport/channel.hpp"

namespace {

using namespace piom;

struct RateResult {
  double msgs_per_s = 0;
  double p50_ns = 0;  ///< per-message cost, window median
  double p99_ns = 0;
  uint64_t wire_packets = 0;
  uint64_t bucket_hits = 0;
};

constexpr int kWindow = 256;
constexpr int kTags = 64;

RateResult run_rate(nmad::MatcherKind matcher, bool aggregation,
                    std::size_t msg_size, int windows) {
  nmad::SessionConfig cfg;
  cfg.matcher = matcher;
  cfg.aggregation = aggregation;
  transport::Cluster cluster;
  auto [ca, cb] = cluster.shmem().create_channel_pair("msgrate.shm");
  nmad::Session sa("a", cfg), sb("b", cfg);
  nmad::Gate& ga = sa.create_gate({ca});
  nmad::Gate& gb = sb.create_gate({cb});

  std::vector<uint8_t> payload(msg_size, 0x77);
  std::vector<std::vector<uint8_t>> rx(
      kWindow, std::vector<uint8_t>(msg_size));
  std::vector<double> window_ns;
  window_ns.reserve(static_cast<std::size_t>(windows));

  const int64_t t0 = util::now_ns();
  for (int w = 0; w < windows; ++w) {
    std::deque<nmad::SendRequest> sreqs(kWindow);
    std::deque<nmad::RecvRequest> rreqs(kWindow);
    const int64_t w0 = util::now_ns();
    // Receiver: window grouped by tag (tag 0's receives, then tag 1's, ...).
    for (int i = 0; i < kWindow; ++i) {
      const auto tag = static_cast<nmad::Tag>(i / (kWindow / kTags));
      gb.irecv(rreqs[static_cast<std::size_t>(i)], tag,
               rx[static_cast<std::size_t>(i)].data(), msg_size);
    }
    // Sender: tags interleaved round-robin; deferred + flush so the
    // aggregation strategy sees the whole burst as one flow.
    for (int i = 0; i < kWindow; ++i) {
      const auto tag = static_cast<nmad::Tag>(i % kTags);
      ga.isend(sreqs[static_cast<std::size_t>(i)], tag, payload.data(),
               msg_size, /*defer=*/true);
    }
    ga.flush();
    for (;;) {
      sa.progress();
      sb.progress();
      bool all = true;
      for (const auto& r : rreqs) all = all && r.completed();
      for (const auto& s : sreqs) all = all && s.completed();
      if (all) break;
    }
    window_ns.push_back(static_cast<double>(util::now_ns() - w0) / kWindow);
  }
  const int64_t dt = util::now_ns() - t0;

  std::sort(window_ns.begin(), window_ns.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(window_ns.size() - 1));
    return window_ns[idx];
  };
  RateResult res;
  res.msgs_per_s = static_cast<double>(kWindow) * windows /
                   (static_cast<double>(dt) * 1e-9);
  res.p50_ns = pct(0.50);
  res.p99_ns = pct(0.99);
  res.wire_packets = ca->stats().packets_tx;
  res.bucket_hits = gb.stats().match_bucket_hits;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int windows = quick ? 8 : 200;
  piom::bench::JsonReport report("bench_msgrate", argc, argv);

  std::printf(
      "=== message rate — small messages through one shmem gate ===\n"
      "window=%d msgs, %d tags; receiver posts grouped by tag, sender\n"
      "interleaves: the scan matcher walks ~window/2 entries per arrival,\n"
      "the bucket matcher walks one short chain. expected shape: bucket\n"
      ">= 2x scan on 8-64 B; aggregation cuts wire packets on top\n\n",
      kWindow, kTags);
  std::printf("%8s %10s %8s %12s %12s %12s %10s\n", "size(B)", "matcher",
              "aggreg", "Mmsgs/s", "p50(ns)", "p99(ns)", "packets");
  for (const std::size_t size : {std::size_t{8}, std::size_t{64}}) {
    for (const auto matcher :
         {piom::nmad::MatcherKind::kScan, piom::nmad::MatcherKind::kBucket}) {
      for (const bool aggregation : {false, true}) {
        const RateResult r = run_rate(matcher, aggregation, size, windows);
        const char* mname =
            matcher == piom::nmad::MatcherKind::kScan ? "scan" : "bucket";
        std::printf("%8zu %10s %8s %12.3f %12.0f %12.0f %10llu\n", size,
                    mname, aggregation ? "on" : "off", r.msgs_per_s * 1e-6,
                    r.p50_ns, r.p99_ns,
                    static_cast<unsigned long long>(r.wire_packets));
        report.row()
            .str("test", "msgrate")
            .str("matcher", mname)
            .num("aggregation", aggregation ? 1 : 0)
            .num("bytes", static_cast<double>(size))
            .num("window", kWindow)
            .num("msgs_per_s", r.msgs_per_s)
            .num("p50_ns", r.p50_ns)
            .num("p99_ns", r.p99_ns)
            .num("wire_packets", static_cast<double>(r.wire_packets));
      }
    }
    std::printf("\n");
  }
  return 0;
}
