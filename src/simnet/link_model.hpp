// Link cost model for the simulated fabric. Default numbers approximate the
// paper's BORDERLINE cluster interconnect (ConnectX InfiniBand DDR /
// Myri-10G): ~1.5 µs one-way latency, ~1.25 GB/s effective bandwidth.
//
// The absolute values only set the time scale of the latency/overlap
// benchmarks; the paper-shape conclusions (who overlaps, where latency
// degrades) are insensitive to them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace piom::simnet {

struct LinkModel {
  double latency_us = 1.5;        ///< one-way wire+switch latency
  double bandwidth_GBps = 1.25;   ///< serialisation bandwidth
  double packet_overhead_us = 0.3;///< per-packet host/NIC processing cost
  /// Fault injection: probability that a message send is silently lost on
  /// the wire (the sender still sees a TX completion, like a real lossy
  /// fabric). RDMA reads are never dropped (the NIC serves them without
  /// a host on the target side, like hardware RDMA).
  /// Use nmad's reliable mode (SessionConfig::reliable) on lossy links.
  double drop_rate = 0.0;
  /// Fault injection: sever this NIC's TX direction after it has executed
  /// exactly this many sends (0 = never). Deterministic by construction —
  /// same traffic, same death point — modelling a link that dies mid-run
  /// without any external controller (see IChannel::sever for semantics).
  uint64_t sever_after_packets = 0;

  /// Time the link is busy serialising `bytes` (ns), excluding latency.
  [[nodiscard]] int64_t occupancy_ns(std::size_t bytes) const;

  /// Full one-way transfer duration for a message of `bytes` (ns):
  /// overhead + latency + serialisation.
  [[nodiscard]] int64_t transfer_ns(std::size_t bytes) const;

  /// Round-trip control message cost (ns): two small-packet transfers.
  [[nodiscard]] int64_t rtt_ns() const;
};

}  // namespace piom::simnet
