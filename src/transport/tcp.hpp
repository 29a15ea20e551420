// Socket transport: the backend that lets ranks live in separate OS
// processes — per-peer nonblocking stream sockets (TCP inter-node,
// Unix-domain same-host) behind the IChannel/ITransport interface.
//
// Wire format: length-prefixed frames, {u32 len, u8 kind, pad[3]} then the
// body. kData carries one posted send (one nmad packet — PR 7's detached
// aggregation chains pack upstream of the channel, so one frame may hold
// many messages, and the frame queue itself coalesces into a single
// sendmsg/writev per flush). RDMA-Read is emulated with a request/response
// frame pair: the side that owns the memory serves kRdmaReq from its pump
// by pointing an iovec straight at the requested range (the rendezvous
// protocol keeps that buffer valid until FIN, which can only follow the
// response), and the requester reads the response body directly into the
// destination buffer — one kernel->user copy per direction, no staging.
//
// Progress model: there is NO dedicated IO thread. Each TcpTransport owns
// an FdPoller (epoll; poll(2) off Linux) and a pump() that any caller
// may drive — a try-lock keeps one pumper at a time. Channel poll_tx/
// poll_rx call pump(), so PIOMan's background poll tasks tick the event
// loop and the caller-driven engines pump it from wait/test, exactly like
// every other backend. The shmem invariant "delivery must not require the
// receiving host to poll" carries over in socket form: a send completes
// when its bytes reach the kernel (sent != delivered, the drop-model
// contract), and when the socket buffer backpressures an in-process
// loopback pair, the sender's poll_tx also pumps the peer's transport so a
// spinning sender drains the other side instead of deadlocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transport/fd_poll.hpp"
#include "sync/spinlock.hpp"
#include "transport/channel.hpp"
#include "transport/endpoint.hpp"
#include "transport/rx_queue.hpp"
#include "transport/socket.hpp"

namespace piom::transport {

class TcpTransport;

class TcpChannel final : public IChannel {
 public:
  ~TcpChannel() override;
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  [[nodiscard]] Backend backend() const override { return Backend::kTcp; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  /// Set for in-process loopback pairs; null when the peer endpoint lives
  /// in another process (there is no object to point at).
  [[nodiscard]] TcpChannel* peer() const override { return peer_; }
  /// A TcpChannel only exists over an established socket.
  [[nodiscard]] bool connected() const override { return true; }

  void post_send(const void* buf, std::size_t len, uint64_t wrid) override;
  void post_recv(void* buf, std::size_t cap, uint64_t wrid) override;
  void post_rdma_read(void* local, const void* remote, std::size_t len,
                      uint64_t wrid) override;
  bool poll_tx(Completion& out) override;
  bool poll_rx(Completion& out) override;
  [[nodiscard]] ChannelStats stats() const override;
  [[nodiscard]] std::size_t tx_backlog() const override;
  void quiesce() override;

  /// Cut off the wire (fault injection / connection teardown). Queued and
  /// future sends drain with ordinary unfailed completions (sent never
  /// meant delivered), inbound data frames are discarded, this side's RDMA
  /// reads fail — and inbound RDMA requests are answered with a NACK
  /// response so a live peer's read fails instead of hanging. A socket
  /// error/EOF (peer process died) degrades into the same state.
  void sever() override;
  [[nodiscard]] bool severed() const override {
    return severed_.load(std::memory_order_acquire) ||
           dead_.load(std::memory_order_acquire);
  }

  [[nodiscard]] double bandwidth_GBps() const override;
  [[nodiscard]] double latency_us() const override;

  /// True for Unix-domain sockets (same-host), false for TCP.
  [[nodiscard]] bool is_uds() const { return uds_; }
  [[nodiscard]] TcpTransport& owner() const { return owner_; }

 private:
  friend class TcpTransport;

  enum class FrameKind : uint8_t {
    kData = 1,      ///< one posted send
    kRdmaReq = 2,   ///< body: RdmaReqMeta — "read your memory for me"
    kRdmaResp = 3,  ///< body: RdmaRespMeta + the bytes (when ok)
  };

  struct FrameHeader {
    uint32_t len = 0;  ///< body bytes following this header
    uint8_t kind = 0;
    uint8_t pad[3] = {};
  };
  static_assert(sizeof(FrameHeader) == 8, "wire format");

  struct RdmaReqMeta {
    uint64_t req_id = 0;
    uint64_t raddr = 0;  ///< address in the *serving* side's memory
    uint64_t len = 0;
  };
  static_assert(sizeof(RdmaReqMeta) == 24, "wire format");

  struct RdmaRespMeta {
    uint64_t req_id = 0;
    uint32_t ok = 0;  ///< 0: NACK (severed server), no bytes follow
    uint32_t pad = 0;
  };
  static_assert(sizeof(RdmaRespMeta) == 16, "wire format");

  /// One queued outbound frame: a serialized head (header + any meta) and
  /// an optional zero-copy payload pointer (the caller's send buffer, or
  /// the served memory range of an RDMA response).
  struct SendOp {
    uint8_t head[sizeof(FrameHeader) + sizeof(RdmaReqMeta)];
    std::size_t head_len = 0;
    const void* payload = nullptr;
    std::size_t payload_len = 0;
    std::size_t written = 0;  ///< progress over head + payload
    uint64_t wrid = 0;
    bool completes_send = false;  ///< kData: emit kSend when fully written
  };

  /// Outstanding RDMA read posted by this side, keyed by req_id.
  struct PendingRdma {
    void* local = nullptr;
    std::size_t len = 0;
    uint64_t wrid = 0;
  };

  /// Receive-parser state. Only the owning transport's pump touches it
  /// (pump() is serialized by a try-lock), so it needs no lock of its own.
  enum class RxStage : uint8_t {
    kHeader,        ///< accumulating the 8-byte frame header
    kDataDirect,    ///< kData body -> posted receive buffer (zero staging)
    kDataStaged,    ///< kData body -> staged copy (no buffer posted)
    kDataDiscard,   ///< kData body -> bit bucket (severed)
    kRdmaReqBody,   ///< 24-byte request meta
    kRdmaRespMeta,  ///< 16-byte response meta
    kRdmaRespBody,  ///< response bytes -> requester's destination buffer
    kRdmaRespSink,  ///< response bytes with no pending request (late/failed)
  };

  TcpChannel(TcpTransport& owner, std::string name, int fd, bool uds);

  /// Read until EAGAIN/EOF, advancing the frame parser. Owner-pump only.
  int handle_readable();
  /// Write queued frames (single sendmsg over up to kIovBatch iovecs).
  int flush_tx();
  int flush_tx_locked() PIOM_REQUIRES(tx_lock_);
  void complete_data_send_locked(const SendOp& op) PIOM_REQUIRES(tx_lock_);
  /// Socket died (EOF, ECONNRESET, EPIPE...): drain everything that can
  /// no longer complete normally.
  void mark_dead();
  /// Sweep queued sends / pending RDMA reads once the channel is severed
  /// or dead — they complete (dropped) or fail instead of hanging.
  void drain_disconnected();
  void finish_frame();
  bool begin_frame_body();
  void serve_rdma_request(const RdmaReqMeta& req);
  void complete_rdma_resp_meta();

  TcpTransport& owner_;
  const std::string name_;
  const int fd_;
  const bool uds_;
  TcpChannel* peer_ = nullptr;  ///< loopback pairs only

  std::atomic<bool> severed_{false};
  std::atomic<bool> dead_{false};

  // TX side: queued frames + send/rdma completions. The fd is only ever
  // written under tx_lock_. No other channel lock is held while taking it
  // (stats_lock_ nests inside).
  mutable sync::SpinLock tx_lock_;
  std::deque<SendOp> txq_ PIOM_GUARDED_BY(tx_lock_);
  std::deque<Completion> tx_cq_ PIOM_GUARDED_BY(tx_lock_);
  std::atomic<std::size_t> tx_cq_size_{0};
  std::atomic<std::size_t> tx_pending_{0};  ///< txq_.size()
  std::atomic<std::size_t> tx_data_backlog_{0};  ///< unsent kData frames

  // RX side: posted buffers, staged arrivals and recv completions. A data
  // frame goes straight into a posted buffer only when RxQueue::take_direct
  // hands one out; every other arrival funnels through RxQueue::deliver,
  // so per-channel FIFO survives a buffer posted mid-frame.
  RxQueue rx_;

  // This side's outstanding RDMA reads (request and response handling).
  sync::SpinLock rdma_lock_;
  std::unordered_map<uint64_t, PendingRdma> pending_rdma_
      PIOM_GUARDED_BY(rdma_lock_);
  std::atomic<std::size_t> pending_rdma_count_{0};
  std::atomic<uint64_t> next_req_id_{1};

  // Frame parser (owner-pump serialized; see RxStage).
  RxStage rx_stage_ = RxStage::kHeader;
  uint8_t rx_scratch_[sizeof(RdmaReqMeta)] = {};
  std::size_t rx_scratch_got_ = 0;
  FrameHeader rx_hdr_{};
  std::size_t rx_body_got_ = 0;
  RxQueue::Desc rx_desc_{};         ///< kDataDirect target
  std::vector<uint8_t> rx_staged_;  ///< kDataStaged accumulator
  RdmaRespMeta rx_resp_meta_{};
  PendingRdma rx_resp_dst_{};       ///< kRdmaRespBody target

  mutable sync::SpinLock stats_lock_;
  ChannelStats stats_ PIOM_GUARDED_BY(stats_lock_);
};

/// Factory + event loop for socket channels. One instance per "process
/// side": each in-process rank of a loopback mesh owns its own transport
/// (its own epoll set), and a real multi-process rank owns exactly one,
/// wired to its peers by Bootstrap (transport/bootstrap.hpp).
class TcpTransport final : public ITransport {
 public:
  TcpTransport() = default;
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] Backend backend() const override { return Backend::kTcp; }
  /// In-process pair over a Unix socketpair; both endpoints pumped here.
  std::pair<IChannel*, IChannel*> create_channel_pair(
      const std::string& name) override;
  [[nodiscard]] std::size_t channel_count() const override;

  /// Loopback pair across two transports (two in-process "ranks", each
  /// pumping its own side — the shape World uses for socket meshes).
  /// kUds: socketpair. kTcp: a real 127.0.0.1 listen/connect/accept.
  /// Other schemes throw.
  static std::pair<IChannel*, IChannel*> create_loopback_pair(
      TcpTransport& ta, TcpTransport& tb, const std::string& name,
      Endpoint::Scheme scheme);

  // ---- multi-process wiring (driven by transport::Bootstrap) ----

  /// Bind + listen for peer data connections on `addr` (tcp://host:port
  /// with port 0 = ephemeral, or uds:///path). Once per transport.
  void listen(const Endpoint& addr);
  /// The actual bound address (ephemeral port / path resolved) — this is
  /// what Bootstrap advertises in the endpoint table.
  [[nodiscard]] const Endpoint& listen_endpoint() const;
  /// Establish this rank's data channels to peers [first_peer, n) given
  /// everyone's listen endpoints: connect to every lower rank (announcing
  /// ourselves with a hello), accept from every higher rank (identified by
  /// theirs). Returns channels indexed by peer rank (self slot and slots
  /// below first_peer null). Blocking; throws std::runtime_error on
  /// timeout.
  std::vector<IChannel*> connect_mesh(int my_rank,
                                      const std::vector<Endpoint>& table,
                                      int first_peer);

  /// Drive the event loop once, non-blocking: collect readable sockets
  /// from the poller, advance their frame parsers, flush pending frames.
  /// Safe from any thread; a try-lock keeps one pumper at a time (others
  /// return immediately — their completions were already queued for them).
  int pump();

 private:
  friend class TcpChannel;
  friend class Bootstrap;  ///< the rendezvous adopts its hello sockets

  /// A connection that opened with a valid hello.
  struct Accepted {
    sock::Fd fd;
    Endpoint addr;  ///< the peer's advertised data listen endpoint
  };

  TcpChannel* adopt_fd(sock::Fd fd, std::string name, bool uds);
  /// Accept on the listener until ranks [lo, hi) have each said hello.
  /// A connection whose hello is malformed (sock::read_hello), out of range
  /// or a duplicate is closed and logged, and accepting goes on; the
  /// deadline throws. Returns the connections indexed by rank.
  std::vector<Accepted> accept_peers(int lo, int hi, int64_t deadline_ms)
      PIOM_EXCLUDES(state_lock_);
  void snapshot_channels(std::vector<TcpChannel*>& out) const;

  FdPoller poller_;
  sync::MutexLock pump_lock_;
  mutable sync::MutexLock state_lock_;  ///< channels_ + listener fields
  std::vector<std::unique_ptr<TcpChannel>> channels_
      PIOM_GUARDED_BY(state_lock_);
  int listen_fd_ PIOM_GUARDED_BY(state_lock_) = -1;
  /// Deliberately unannotated: listen_endpoint() returns a const& to it
  /// (it is written once, before any reader can exist).
  Endpoint listen_addr_{};
  /// uds listener socket file, removed in dtor.
  std::string unlink_path_ PIOM_GUARDED_BY(state_lock_);
};

}  // namespace piom::transport
