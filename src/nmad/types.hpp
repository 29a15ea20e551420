// Wire-level types of the nmad communication library (NewMadeleine-like).
//
// All traffic between two gates travels as discrete packets over the
// simulated NICs:
//   kEager — small message: header + payload in one packet (track #0);
//   kPack  — several eager messages to the same gate aggregated into one
//            wire packet (the Fig-1 cross-flow optimisation);
//   kRts   — rendezvous request for a large message: carries the sender's
//            buffer address; the receiver pulls the data with RDMA-Read
//            (zero sender-CPU data path) and answers with
//   kFin   — rendezvous completion notification.
#pragma once

#include <cstddef>
#include <cstdint>

namespace piom::nmad {

using Tag = uint32_t;

/// Wildcard receive tag (MPI_ANY_TAG equivalent): matches any arriving
/// *application* message; ties are broken by sequence number (arrival
/// order). Not valid on the send side. Reserved-tag (internal) traffic is
/// never matched by the wildcard — see tag_is_reserved below.
inline constexpr Tag kAnyTag = 0xffffffffu;

/// First tag of the reserved (internal/collective) space. The upper layers
/// lay out collective epoch/kind/round tags above this base; application
/// traffic must stay below it. The matcher guards the boundary: a kAnyTag
/// receive (directed or any-source) only ever claims application-tag
/// arrivals, so a wildcard posted while a collective is in flight cannot
/// steal the collective's packets.
inline constexpr Tag kReservedTagBase = 0xf0000000u;

/// Sentinel tag of a membership death-notice flood frame (see
/// mpi/membership.hpp for the protocol). Sits at the very top of the
/// reserved space, just below kAnyTag; defined here because reserved-space
/// tag literals live in this file only (enforced by tools/lint).
inline constexpr Tag kDeathNoticeTag = 0xfffffffeu;

/// True when `t` is an internal (reserved-space) wire tag. Arrivals never
/// carry kAnyTag, so the sentinel needs no special-casing here.
[[nodiscard]] inline constexpr bool tag_is_reserved(Tag t) {
  return t >= kReservedTagBase;
}

enum class PktKind : uint8_t {
  kEager = 1,
  kPack = 2,
  kRts = 3,
  kFin = 4,
  /// Reliability layer: acknowledges one wire packet by pkt_seq. Acks are
  /// themselves unacknowledged (a lost ack is repaired by the sender's
  /// retransmission and the receiver's dedup).
  kAck = 5,
  /// Failure-detector heartbeat. Pings carry no payload and, like acks,
  /// live outside the reliability layer: they are neither acknowledged,
  /// retransmitted, nor dedup-tracked (pkt_seq stays 0) — a lost ping is
  /// repaired by the next period's ping. Their only effect on the receiver
  /// is refreshing the gate's liveness timestamp.
  kPing = 6,
  /// Rendezvous refusal: the receiver will never match this RTS (its tag
  /// falls in a revoked window — see Gate::revoke_tags). Carries the RTS's
  /// tag+seq; the sender error-completes the request parked for FIN instead
  /// of waiting forever. Unlike acks/pings, NACKs ride the reliability
  /// layer (sequenced, acknowledged, retransmitted): a lost NACK must not
  /// re-open the hang it exists to close.
  kNack = 7,
  /// Multi-hop forwarded message fragment (sparse overlays): a message for
  /// a rank this rank has no direct gate to, relayed hop by hop along the
  /// membership tree. Rides the reliability layer on every hop like kNack
  /// (sequenced, acknowledged, retransmitted) — the reliability guarantee
  /// composes per hop. Header packing: `raddr` carries src<<48 | dst<<32 |
  /// fragment index, `nmsgs` the fragment count, `seq` the origin's
  /// per-(src,dst) message number, `len` the fragment payload size.
  kForward = 8,
};

[[nodiscard]] const char* pkt_kind_name(PktKind k);

/// Fixed wire header, leading every packet.
struct PktHeader {
  uint8_t kind = 0;      ///< PktKind
  uint8_t pad = 0;
  uint16_t nmsgs = 0;    ///< kPack: number of aggregated messages
  Tag tag = 0;           ///< kEager/kRts/kFin: message tag
  uint64_t seq = 0;      ///< per-gate sequence number (matching order)
  uint64_t len = 0;      ///< payload length (kEager: body; kRts: data size)
  uint64_t raddr = 0;    ///< kRts: sender buffer address for RDMA-Read
  uint64_t pkt_seq = 0;  ///< per-gate wire-packet number (reliability layer)
};
static_assert(sizeof(PktHeader) == 40, "wire header layout");

/// Sub-header of one message inside a kPack packet, followed by `len`
/// payload bytes.
struct PackEntry {
  Tag tag = 0;
  uint32_t reserved = 0;
  uint64_t seq = 0;
  uint64_t len = 0;
};
static_assert(sizeof(PackEntry) == 24, "pack entry layout");

/// One decoded kForward fragment, handed from the delivering gate to the
/// session's forward handler (the membership layer). `data` points into the
/// gate's pool buffer and is only valid for the duration of the call — the
/// handler copies what it keeps (relays re-serialize, destinations stage
/// into the reassembly buffer).
struct ForwardFrame {
  int src = -1;              ///< originating rank
  int dst = -1;              ///< final destination (0xFFFF = flood)
  Tag tag = 0;               ///< end-to-end message tag
  uint64_t fseq = 0;         ///< origin's per-(src,dst) message number
  uint32_t frag = 0;         ///< fragment index, 0-based
  uint16_t nfrags = 1;       ///< total fragments of the message
  const uint8_t* data = nullptr;
  std::size_t len = 0;
  int via = -1;              ///< peer rank of the gate this hop arrived on
};

/// Flood-destination sentinel in kForward headers (membership control
/// traffic, e.g. death notices): deliver locally AND re-flood.
inline constexpr int kForwardFloodDst = 0xFFFF;

/// Forwarded messages are cut into fragments of at most this size so every
/// hop fits a pool buffer (kForwardChunk + header <= kPoolBufSize).
inline constexpr std::size_t kForwardChunk = 32 * 1024;

/// Receive pool buffer size per rail. Every control/eager/pack packet must
/// fit (enforced against the eager threshold and pack limits).
inline constexpr std::size_t kPoolBufSize = 64 * 1024;

/// Protocol switch point: messages above go rendezvous.
inline constexpr std::size_t kEagerThreshold = 16 * 1024;

}  // namespace piom::nmad
