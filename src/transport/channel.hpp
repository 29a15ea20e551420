// Transport-backend abstraction. nmad (gate, session, strategy) drives all
// rails through IChannel, so the communication library is independent of
// what actually moves the bytes:
//
//   * backend "simnet" — simnet::Nic, the modelled cluster NIC (timestamped
//     wire advanced by the poll paths, link latency/bandwidth/drop model,
//     RDMA served without target host code);
//   * backend "shmem"  — transport::ShmemChannel, an intra-node fast path
//     (lock-free SPSC descriptor rings, zero-copy delivery, no NIC
//     instruction round-trip).
//
// ITransport is the factory side: one implementation per backend
// (simnet::Fabric, transport::ShmemTransport). BackendPolicy decides, per
// rank pair of a mesh, which backend(s) wire the pair — the strategy
// layer's rail selection then picks among heterogeneous rails at runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace piom::transport {

enum class Backend : uint8_t {
  kSimnet = 0,  ///< modelled cluster NIC (simnet::Nic)
  kShmem = 1,   ///< intra-node shared-memory ring pair (ShmemChannel)
  /// Nonblocking sockets — TCP inter-node, Unix-domain same-host — behind
  /// the same interface (transport::TcpChannel): the backend that lets
  /// ranks live in separate OS processes.
  kTcp = 2,
};

[[nodiscard]] const char* backend_name(Backend b);

/// Completion queue entry (identical wire semantics for every backend).
struct Completion {
  enum class Kind : uint8_t { kSend, kRecv, kRdmaRead };
  Kind kind = Kind::kSend;
  uint64_t wrid = 0;      ///< work-request id supplied at post time
  std::size_t bytes = 0;  ///< payload size actually transferred
  /// True when the operation executed against a severed channel. Only
  /// RDMA reads report failure (their semantics are "data landed");
  /// severed sends still complete unfailed, mirroring the drop model —
  /// "sent" never means "delivered".
  bool failed = false;
};

/// Per-channel traffic counters (Fig-1 aggregation bench, saturation
/// analysis, and the backend-comparison bench).
struct ChannelStats {
  uint64_t packets_tx = 0;
  uint64_t packets_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t rdma_reads_served = 0;  ///< served with zero host CPU
  uint64_t packets_dropped = 0;    ///< fault injection (simnet only)
};

/// One endpoint of a connected point-to-point channel ("a rail"). The
/// verbs/MX-like host interface the communication library programs against;
/// all methods are thread-safe.
class IChannel {
 public:
  virtual ~IChannel() = default;

  [[nodiscard]] virtual Backend backend() const = 0;
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// The connected remote endpoint — nullptr when unconnected OR when the
  /// remote end lives in another process (socket channels). Test
  /// `connected()` for "usable", not `peer() != nullptr`.
  [[nodiscard]] virtual IChannel* peer() const = 0;
  /// True once the channel can carry traffic. In-process backends are
  /// connected exactly when they have a peer endpoint; cross-process
  /// socket channels are connected from construction (the fd handshake
  /// happened before the channel object existed).
  [[nodiscard]] virtual bool connected() const { return peer() != nullptr; }

  /// Post a message send. `buf` must stay valid until the kSend completion
  /// for `wrid` is polled (transfer is zero-copy: the backend reads the
  /// caller's buffer at delivery time).
  virtual void post_send(const void* buf, std::size_t len, uint64_t wrid) = 0;

  /// Post a receive buffer of capacity `cap`. Buffers match arrivals in
  /// FIFO order (connected queue pair; message matching is nmad's job).
  virtual void post_recv(void* buf, std::size_t cap, uint64_t wrid) = 0;

  /// Read `len` bytes from the peer's memory at `remote` into `local`
  /// without running peer host code (RDMA-Read / direct load).
  virtual void post_rdma_read(void* local, const void* remote,
                              std::size_t len, uint64_t wrid) = 0;

  /// Poll the send/rdma completion queue. True when `out` was filled.
  virtual bool poll_tx(Completion& out) = 0;

  /// Poll the receive completion queue.
  virtual bool poll_rx(Completion& out) = 0;

  [[nodiscard]] virtual ChannelStats stats() const = 0;

  /// Posted sends not yet executed/delivered (backpressure observability).
  [[nodiscard]] virtual std::size_t tx_backlog() const = 0;

  /// Block until every posted operation this endpoint can drive to
  /// completion has been executed. Teardown protocol: after quiescing an
  /// endpoint *and its peer*, the backend will not touch host buffers
  /// again (completions may still sit in the queues, ready to poll).
  virtual void quiesce() = 0;

  /// Fault hook: cut this endpoint off the wire. Subsequent (and queued)
  /// sends stop being delivered — they still drain with ordinary TX
  /// completions, like the drop model — inbound traffic towards this
  /// endpoint is discarded, and RDMA reads complete with failed = true.
  /// Irreversible, idempotent, thread-safe. Severing one endpoint models a
  /// one-direction link death; killing a host severs both ends of every
  /// channel touching it (World::kill_rank).
  virtual void sever() = 0;
  [[nodiscard]] virtual bool severed() const = 0;

  // ---- rail properties consumed by the strategy layer ----

  /// Sustained bandwidth estimate (GB/s) for stripe weighting.
  [[nodiscard]] virtual double bandwidth_GBps() const = 0;
  /// Small-message one-way latency estimate (µs) for eager rail selection.
  [[nodiscard]] virtual double latency_us() const = 0;
};

/// Factory side of a backend: owns its channels for their whole lifetime.
class ITransport {
 public:
  virtual ~ITransport() = default;

  [[nodiscard]] virtual Backend backend() const = 0;

  /// Create a connected endpoint pair named "<name>.a"/"<name>.b" (a = the
  /// lower rank's side, by mesh convention). Returned pointers stay valid
  /// as long as the transport lives.
  virtual std::pair<IChannel*, IChannel*> create_channel_pair(
      const std::string& name) = 0;

  [[nodiscard]] virtual std::size_t channel_count() const = 0;
};

/// How one rank pair of a mesh is wired.
enum class PairWiring : uint8_t {
  kSimnet = 0,  ///< NIC rails only (rails_per_pair of them)
  kShmem = 1,   ///< one shared-memory channel only
  /// Heterogeneous rails: rail 0 is the shmem fast path, rails 1..k are the
  /// NIC rails — eager traffic rides rail 0, bulk stripes across all.
  kHybrid = 2,
  kTcp = 3,  ///< one TCP socket channel (loopback sockets in-process)
  kUds = 4,  ///< one Unix-domain socket channel
};

[[nodiscard]] const char* pair_wiring_name(PairWiring w);

/// Per-pair backend selection for a full mesh (transport::Cluster): ranks
/// placed on the same node talk over `intra`, ranks on different nodes
/// over `inter`.
struct BackendPolicy {
  /// node_of[rank] = node hosting the rank (ids >= 0, need not be dense).
  /// Empty: every rank on its own node — unless $PIOM_TRANSPORT overrides
  /// (see from_env), which is how CI forces a whole suite onto one backend.
  std::vector<int> node_of;
  PairWiring intra = PairWiring::kShmem;
  PairWiring inter = PairWiring::kSimnet;

  /// Wiring for the unordered pair {i, j} (requires validate() passed).
  [[nodiscard]] PairWiring wiring(int i, int j) const;

  /// Throws std::invalid_argument on malformed policies: node_of size not
  /// matching `nranks` (when non-empty), negative node ids, or shared
  /// memory requested across nodes — `inter` must be a wiring that really
  /// crosses nodes (kSimnet, kTcp or kUds; never kShmem/kHybrid).
  void validate(int nranks) const;

  /// Policy for an `nranks` mesh honouring $PIOM_TRANSPORT:
  ///   unset / "simnet" — every pair over the NIC model (the default);
  ///   "shmem"          — every rank on one node, pairs pure shmem;
  ///   "hybrid"         — every rank on one node, shmem + NIC rails;
  ///   "tcp"            — every pair over a TCP loopback socket;
  ///   "uds"            — every pair over a Unix-domain socket.
  /// Throws std::invalid_argument on any other value (a whole suite run on
  /// the wrong backend is worse than refusing to run).
  [[nodiscard]] static BackendPolicy from_env(int nranks);
};

}  // namespace piom::transport
