#include "transport/tcp.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "sync/backoff.hpp"
#include "transport/socket.hpp"
#include "util/log.hpp"

namespace piom::transport {

namespace {

constexpr int kIovBatch = 16;   ///< frames coalesced per sendmsg
constexpr int kMaxEvents = 64;  ///< poller events handled per pump

// Rail properties reported to the strategy layer. Loopback sockets have no
// modelled wire; these estimates rank socket rails below shmem for eager
// selection (and TCP below UDS), which is what hybrid gates want.
constexpr double kTcpLatencyUs = 15.0;
constexpr double kUdsLatencyUs = 8.0;
constexpr double kBandwidthGBps = 2.0;
/// Frame-length sanity cap: a length prefix above this kills the connection
/// (a corrupt or misframed stream must not allocate GBs).
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;
/// How long an accepted setup connection may take to send its hello before
/// it is dropped (capped by the whole setup deadline).
constexpr int64_t kHelloTimeoutMs = 1'000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    sock::sys_fail("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Eager latency rides small frames; Nagle would batch them with the ACK
  // clock. Failure is non-fatal (some socket types reject the option).
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------- channel

TcpChannel::TcpChannel(TcpTransport& owner, std::string name, int fd,
                       bool uds)
    : owner_(owner), name_(std::move(name)), fd_(fd), uds_(uds) {}

TcpChannel::~TcpChannel() { ::close(fd_); }

double TcpChannel::bandwidth_GBps() const { return kBandwidthGBps; }

double TcpChannel::latency_us() const {
  return uds_ ? kUdsLatencyUs : kTcpLatencyUs;
}

void TcpChannel::post_send(const void* buf, std::size_t len, uint64_t wrid) {
  if (len > kMaxFrameBytes || len > UINT32_MAX) {
    throw std::invalid_argument("TcpChannel::post_send: frame too large");
  }
  if (severed()) {
    // Drop-model drain: complete without touching the wire (or `buf`).
    {
      sync::LockGuard<sync::SpinLock> s(stats_lock_);
      ++stats_.packets_dropped;
    }
    sync::LockGuard<sync::SpinLock> g(tx_lock_);
    tx_cq_.push_back(Completion{Completion::Kind::kSend, wrid, len, false});
    tx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  SendOp op{};
  FrameHeader hdr;
  hdr.len = static_cast<uint32_t>(len);
  hdr.kind = static_cast<uint8_t>(FrameKind::kData);
  std::memcpy(op.head, &hdr, sizeof(hdr));
  op.head_len = sizeof(hdr);
  op.payload = buf;
  op.payload_len = len;
  op.wrid = wrid;
  op.completes_send = true;
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  txq_.push_back(op);
  tx_pending_.fetch_add(1, std::memory_order_release);
  tx_data_backlog_.fetch_add(1, std::memory_order_release);
  flush_tx_locked();  // opportunistic: small frames leave immediately
}

void TcpChannel::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  rx_.post(buf, cap, wrid);
}

void TcpChannel::post_rdma_read(void* local, const void* remote,
                                std::size_t len, uint64_t wrid) {
  if (severed()) {
    sync::LockGuard<sync::SpinLock> g(tx_lock_);
    tx_cq_.push_back(Completion{Completion::Kind::kRdmaRead, wrid, 0, true});
    tx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  const uint64_t req_id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  {
    sync::LockGuard<sync::SpinLock> g(rdma_lock_);
    pending_rdma_[req_id] = PendingRdma{local, len, wrid};
    pending_rdma_count_.fetch_add(1, std::memory_order_release);
  }
  SendOp op{};
  FrameHeader hdr;
  hdr.len = sizeof(RdmaReqMeta);
  hdr.kind = static_cast<uint8_t>(FrameKind::kRdmaReq);
  RdmaReqMeta meta;
  meta.req_id = req_id;
  meta.raddr = reinterpret_cast<uint64_t>(remote);
  meta.len = len;
  std::memcpy(op.head, &hdr, sizeof(hdr));
  std::memcpy(op.head + sizeof(hdr), &meta, sizeof(meta));
  op.head_len = sizeof(hdr) + sizeof(meta);
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  txq_.push_back(op);
  tx_pending_.fetch_add(1, std::memory_order_release);
  flush_tx_locked();
}

void TcpChannel::complete_data_send_locked(const SendOp& op) {
  tx_cq_.push_back(
      Completion{Completion::Kind::kSend, op.wrid, op.payload_len, false});
  tx_cq_size_.fetch_add(1, std::memory_order_release);
}

int TcpChannel::flush_tx() {
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  return flush_tx_locked();
}

int TcpChannel::flush_tx_locked() {
  int events = 0;
  const bool is_dead = dead_.load(std::memory_order_acquire);
  const bool is_severed = severed_.load(std::memory_order_acquire);
  if (is_dead || is_severed) {
    // Drain without writing — except: a partially-written frame must be
    // finished (dropping half a frame would desync the peer's parser),
    // and a merely-severed endpoint still sends queued kRdmaResp frames
    // (teardown NACKs keep a live peer's read from hanging forever).
    std::deque<SendOp> keep;
    std::size_t dropped = 0;
    for (SendOp& op : txq_) {
      const bool is_resp =
          op.head[4] == static_cast<uint8_t>(FrameKind::kRdmaResp);
      if (!is_dead && (op.written > 0 || is_resp)) {
        keep.push_back(op);
        continue;
      }
      if (op.completes_send) {
        complete_data_send_locked(op);
        tx_data_backlog_.fetch_sub(1, std::memory_order_release);
        ++dropped;
        ++events;
      }
    }
    txq_.swap(keep);
    tx_pending_.store(txq_.size(), std::memory_order_release);
    if (dropped > 0) {
      sync::LockGuard<sync::SpinLock> s(stats_lock_);
      stats_.packets_dropped += dropped;
    }
    if (is_dead || txq_.empty()) return events;
  }
  while (!txq_.empty()) {
    iovec iov[kIovBatch];
    int cnt = 0;
    for (const SendOp& op : txq_) {
      if (cnt + 2 > kIovBatch) break;
      const std::size_t head_done =
          op.written < op.head_len ? op.written : op.head_len;
      if (op.head_len - head_done > 0) {
        iov[cnt].iov_base = const_cast<uint8_t*>(op.head) + head_done;
        iov[cnt].iov_len = op.head_len - head_done;
        ++cnt;
      }
      const std::size_t pay_done =
          op.written > op.head_len ? op.written - op.head_len : 0;
      if (op.payload_len - pay_done > 0) {
        iov[cnt].iov_base =
            const_cast<uint8_t*>(static_cast<const uint8_t*>(op.payload)) +
            pay_done;
        iov[cnt].iov_len = op.payload_len - pay_done;
        ++cnt;
      }
    }
    if (cnt == 0) break;
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(cnt);
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      dead_.store(true, std::memory_order_release);
      events += flush_tx_locked();  // re-enter: the dead branch drains
      break;
    }
    std::size_t left = static_cast<std::size_t>(n);
    std::size_t requested = 0;
    for (int i = 0; i < cnt; ++i) requested += iov[i].iov_len;
    while (left > 0 && !txq_.empty()) {
      SendOp& front = txq_.front();
      const std::size_t total = front.head_len + front.payload_len;
      const std::size_t take =
          left < total - front.written ? left : total - front.written;
      front.written += take;
      left -= take;
      if (front.written == total) {
        if (front.completes_send) {
          complete_data_send_locked(front);
          tx_data_backlog_.fetch_sub(1, std::memory_order_release);
          sync::LockGuard<sync::SpinLock> s(stats_lock_);
          ++stats_.packets_tx;
          stats_.bytes_tx += front.payload_len;
        }
        txq_.pop_front();
        tx_pending_.fetch_sub(1, std::memory_order_release);
        ++events;
      }
    }
    if (static_cast<std::size_t>(n) < requested) break;  // kernel buffer full
  }
  return events;
}

void TcpChannel::sever() {
  severed_.store(true, std::memory_order_release);
  drain_disconnected();
}

void TcpChannel::mark_dead() {
  dead_.store(true, std::memory_order_release);
  drain_disconnected();
}

void TcpChannel::drain_disconnected() {
  // Fail this side's outstanding RDMA reads (their responses will never
  // arrive, or would be NACKed anyway), then drain the send queue.
  std::vector<Completion> fails;
  {
    sync::LockGuard<sync::SpinLock> g(rdma_lock_);
    for (const auto& entry : pending_rdma_) {
      fails.push_back(Completion{Completion::Kind::kRdmaRead,
                                 entry.second.wrid, 0, true});
    }
    pending_rdma_.clear();
    pending_rdma_count_.store(0, std::memory_order_release);
  }
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  for (const Completion& c : fails) {
    tx_cq_.push_back(c);
    tx_cq_size_.fetch_add(1, std::memory_order_release);
  }
  flush_tx_locked();
}

bool TcpChannel::poll_tx(Completion& out) {
  owner_.pump();
  if (severed()) {
    drain_disconnected();
  } else if (peer_ != nullptr && &peer_->owner_ != &owner_ &&
             (tx_data_backlog_.load(std::memory_order_acquire) != 0 ||
              pending_rdma_count_.load(std::memory_order_acquire) != 0)) {
    // Loopback backpressure: our kernel buffer only empties if the other
    // in-process side reads — and an RDMA read only completes if the
    // other side serves the request. Pump its transport — the socket form
    // of the shmem invariant that a spinning sender must not need the
    // receiving host to poll first.
    peer_->owner_.pump();
  }
  if (tx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  if (tx_cq_.empty()) return false;
  out = tx_cq_.front();
  tx_cq_.pop_front();
  tx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool TcpChannel::poll_rx(Completion& out) {
  owner_.pump();
  if (severed()) {
    drain_disconnected();
  } else if (peer_ != nullptr && &peer_->owner_ != &owner_ &&
             peer_->tx_data_backlog_.load(std::memory_order_acquire) != 0) {
    // Loopback mirror of the poll_tx invariant: a spinning receiver must
    // not need the in-process sender to poll before its user-space
    // backlog (frames past the kernel buffer) reaches the wire.
    peer_->owner_.pump();
  }
  return rx_.poll(out);
}

ChannelStats TcpChannel::stats() const {
  sync::LockGuard<sync::SpinLock> g(stats_lock_);
  return stats_;
}

std::size_t TcpChannel::tx_backlog() const {
  return tx_data_backlog_.load(std::memory_order_acquire);
}

void TcpChannel::quiesce() {
  sync::Backoff backoff;
  for (;;) {
    owner_.pump();
    if (peer_ != nullptr && &peer_->owner_ != &owner_) peer_->owner_.pump();
    if (severed()) drain_disconnected();
    if (tx_pending_.load(std::memory_order_acquire) == 0 &&
        pending_rdma_count_.load(std::memory_order_acquire) == 0) {
      return;
    }
    backoff.spin();
  }
}

// ---- receive-side frame parser (owner-pump serialized) ----

bool TcpChannel::begin_frame_body() {
  const auto kind = static_cast<FrameKind>(rx_hdr_.kind);
  rx_body_got_ = 0;
  rx_scratch_got_ = 0;
  switch (kind) {
    case FrameKind::kData: {
      if (rx_hdr_.len == 0) {
        // Zero-byte message: complete right here, no body to read. It
        // queues behind any older staged arrival like every other one.
        if (!severed()) {
          rx_.deliver(nullptr, 0);
          sync::LockGuard<sync::SpinLock> s(stats_lock_);
          ++stats_.packets_rx;
        }
        rx_stage_ = RxStage::kHeader;
        return true;
      }
      if (severed()) {
        rx_stage_ = RxStage::kDataDiscard;
        return false;
      }
      // Direct zero-copy delivery only when it cannot reorder or truncate
      // (see RxQueue::take_direct); otherwise the body is read into a copy
      // that RxQueue::deliver hands out in FIFO order.
      if (rx_.take_direct(rx_hdr_.len, rx_desc_)) {
        rx_stage_ = RxStage::kDataDirect;
      } else {
        rx_staged_.assign(rx_hdr_.len, 0);
        rx_stage_ = RxStage::kDataStaged;
      }
      return false;
    }
    case FrameKind::kRdmaReq:
      if (rx_hdr_.len != sizeof(RdmaReqMeta)) {
        mark_dead();
        return false;
      }
      rx_stage_ = RxStage::kRdmaReqBody;
      return false;
    case FrameKind::kRdmaResp:
      if (rx_hdr_.len < sizeof(RdmaRespMeta)) {
        mark_dead();
        return false;
      }
      rx_stage_ = RxStage::kRdmaRespMeta;
      return false;
  }
  mark_dead();  // unknown frame kind: the stream is garbage
  return false;
}

void TcpChannel::serve_rdma_request(const RdmaReqMeta& req) {
  // The requested range is in OUR memory (the peer got the pointer from
  // our RTS). Zero-copy serve: point the frame's payload straight at it —
  // the rendezvous contract keeps the buffer valid until FIN, and FIN can
  // only follow this response. A severed endpoint NACKs instead.
  const bool ok = !severed() && req.len <= kMaxFrameBytes;
  SendOp op{};
  FrameHeader hdr;
  hdr.len = static_cast<uint32_t>(sizeof(RdmaRespMeta) + (ok ? req.len : 0));
  hdr.kind = static_cast<uint8_t>(FrameKind::kRdmaResp);
  RdmaRespMeta meta;
  meta.req_id = req.req_id;
  meta.ok = ok ? 1 : 0;
  std::memcpy(op.head, &hdr, sizeof(hdr));
  std::memcpy(op.head + sizeof(hdr), &meta, sizeof(meta));
  op.head_len = sizeof(hdr) + sizeof(meta);
  if (ok) {
    op.payload = reinterpret_cast<const void*>(
        static_cast<uintptr_t>(req.raddr));
    op.payload_len = req.len;
    sync::LockGuard<sync::SpinLock> s(stats_lock_);
    ++stats_.rdma_reads_served;
  }
  sync::LockGuard<sync::SpinLock> g(tx_lock_);
  txq_.push_back(op);
  tx_pending_.fetch_add(1, std::memory_order_release);
  flush_tx_locked();
}

void TcpChannel::complete_rdma_resp_meta() {
  std::memcpy(&rx_resp_meta_, rx_scratch_, sizeof(rx_resp_meta_));
  const std::size_t body = rx_hdr_.len - sizeof(RdmaRespMeta);
  bool have_pending = false;
  PendingRdma pending{};
  {
    sync::LockGuard<sync::SpinLock> g(rdma_lock_);
    const auto it = pending_rdma_.find(rx_resp_meta_.req_id);
    if (it != pending_rdma_.end()) {
      have_pending = true;
      pending = it->second;
      pending_rdma_.erase(it);
      pending_rdma_count_.fetch_sub(1, std::memory_order_release);
    }
  }
  if (!have_pending || rx_resp_meta_.ok == 0 || body != pending.len) {
    // Late response (the read already failed via sever), a NACK, or a
    // length the requester never asked for: sink the body, fail the read.
    if (have_pending) {
      sync::LockGuard<sync::SpinLock> g(tx_lock_);
      tx_cq_.push_back(
          Completion{Completion::Kind::kRdmaRead, pending.wrid, 0, true});
      tx_cq_size_.fetch_add(1, std::memory_order_release);
    }
    rx_body_got_ = 0;
    rx_stage_ = body > 0 ? RxStage::kRdmaRespSink : RxStage::kHeader;
    return;
  }
  if (body == 0) {
    sync::LockGuard<sync::SpinLock> g(tx_lock_);
    tx_cq_.push_back(
        Completion{Completion::Kind::kRdmaRead, pending.wrid, 0, false});
    tx_cq_size_.fetch_add(1, std::memory_order_release);
    rx_stage_ = RxStage::kHeader;
    return;
  }
  rx_resp_dst_ = pending;
  rx_body_got_ = 0;
  rx_stage_ = RxStage::kRdmaRespBody;
}

void TcpChannel::finish_frame() {
  switch (rx_stage_) {
    case RxStage::kDataDirect: {
      rx_.complete(rx_desc_.wrid, rx_hdr_.len);
      sync::LockGuard<sync::SpinLock> s(stats_lock_);
      ++stats_.packets_rx;
      stats_.bytes_rx += rx_hdr_.len;
      break;
    }
    case RxStage::kDataStaged: {
      // A buffer may have been posted while this frame's body was still in
      // flight: deliver() fills it now, or the next frame would go direct
      // and overtake this one.
      rx_.deliver(std::move(rx_staged_));
      rx_staged_ = std::vector<uint8_t>();
      sync::LockGuard<sync::SpinLock> s(stats_lock_);
      ++stats_.packets_rx;
      stats_.bytes_rx += rx_hdr_.len;
      break;
    }
    case RxStage::kDataDiscard: {
      sync::LockGuard<sync::SpinLock> s(stats_lock_);
      ++stats_.packets_dropped;
      break;
    }
    case RxStage::kRdmaReqBody: {
      RdmaReqMeta req;
      std::memcpy(&req, rx_scratch_, sizeof(req));
      serve_rdma_request(req);
      break;
    }
    case RxStage::kRdmaRespBody: {
      sync::LockGuard<sync::SpinLock> g(tx_lock_);
      tx_cq_.push_back(Completion{Completion::Kind::kRdmaRead,
                                  rx_resp_dst_.wrid, rx_resp_dst_.len,
                                  false});
      tx_cq_size_.fetch_add(1, std::memory_order_release);
      break;
    }
    case RxStage::kRdmaRespSink:
    case RxStage::kRdmaRespMeta:
    case RxStage::kHeader:
      break;  // handled by their own transitions
  }
  rx_stage_ = RxStage::kHeader;
  rx_scratch_got_ = 0;
  rx_body_got_ = 0;
}

int TcpChannel::handle_readable() {
  int events = 0;
  uint8_t sink[4096];
  for (;;) {
    void* dst = nullptr;
    std::size_t want = 0;
    switch (rx_stage_) {
      case RxStage::kHeader:
        dst = rx_scratch_ + rx_scratch_got_;
        want = sizeof(FrameHeader) - rx_scratch_got_;
        break;
      case RxStage::kRdmaReqBody:
        dst = rx_scratch_ + rx_scratch_got_;
        want = sizeof(RdmaReqMeta) - rx_scratch_got_;
        break;
      case RxStage::kRdmaRespMeta:
        dst = rx_scratch_ + rx_scratch_got_;
        want = sizeof(RdmaRespMeta) - rx_scratch_got_;
        break;
      case RxStage::kDataDirect:
        dst = static_cast<uint8_t*>(rx_desc_.buf) + rx_body_got_;
        want = rx_hdr_.len - rx_body_got_;
        break;
      case RxStage::kDataStaged:
        dst = rx_staged_.data() + rx_body_got_;
        want = rx_hdr_.len - rx_body_got_;
        break;
      case RxStage::kRdmaRespBody: {
        const std::size_t body = rx_hdr_.len - sizeof(RdmaRespMeta);
        dst = static_cast<uint8_t*>(rx_resp_dst_.local) + rx_body_got_;
        want = body - rx_body_got_;
        break;
      }
      case RxStage::kDataDiscard:
      case RxStage::kRdmaRespSink: {
        const std::size_t body =
            rx_stage_ == RxStage::kDataDiscard
                ? rx_hdr_.len
                : rx_hdr_.len - sizeof(RdmaRespMeta);
        const std::size_t rem = body - rx_body_got_;
        dst = sink;
        want = rem < sizeof(sink) ? rem : sizeof(sink);
        break;
      }
    }
    const ssize_t n = ::read(fd_, dst, want);
    if (n == 0) {
      mark_dead();
      return events;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      mark_dead();
      return events;
    }
    const std::size_t got = static_cast<std::size_t>(n);
    switch (rx_stage_) {
      case RxStage::kHeader:
        rx_scratch_got_ += got;
        if (rx_scratch_got_ == sizeof(FrameHeader)) {
          std::memcpy(&rx_hdr_, rx_scratch_, sizeof(rx_hdr_));
          rx_scratch_got_ = 0;
          if (rx_hdr_.len > kMaxFrameBytes) {
            PIOM_LOG_WARN("tcp channel %s: insane frame length %u, killing "
                          "connection",
                          name_.c_str(), rx_hdr_.len);
            mark_dead();
            return events;
          }
          if (begin_frame_body()) ++events;  // zero-length fast path
        }
        break;
      case RxStage::kRdmaReqBody:
      case RxStage::kRdmaRespMeta: {
        rx_scratch_got_ += got;
        const std::size_t need = rx_stage_ == RxStage::kRdmaReqBody
                                     ? sizeof(RdmaReqMeta)
                                     : sizeof(RdmaRespMeta);
        if (rx_scratch_got_ == need) {
          if (rx_stage_ == RxStage::kRdmaReqBody) {
            finish_frame();
          } else {
            rx_scratch_got_ = 0;
            complete_rdma_resp_meta();
          }
          ++events;
        }
        break;
      }
      case RxStage::kDataDirect:
      case RxStage::kDataStaged:
        rx_body_got_ += got;
        if (rx_body_got_ == rx_hdr_.len) {
          finish_frame();
          ++events;
        }
        break;
      case RxStage::kRdmaRespBody:
        rx_body_got_ += got;
        if (rx_body_got_ == rx_hdr_.len - sizeof(RdmaRespMeta)) {
          finish_frame();
          ++events;
        }
        break;
      case RxStage::kDataDiscard:
        rx_body_got_ += got;
        if (rx_body_got_ == rx_hdr_.len) finish_frame();
        break;
      case RxStage::kRdmaRespSink:
        rx_body_got_ += got;
        if (rx_body_got_ == rx_hdr_.len - sizeof(RdmaRespMeta)) {
          finish_frame();
        }
        break;
    }
  }
  return events;
}

// -------------------------------------------------------------- transport

TcpTransport::~TcpTransport() {
  sync::LockGuard<sync::MutexLock> pump_guard(pump_lock_);
  sync::LockGuard<sync::MutexLock> g(state_lock_);
  for (const auto& ch : channels_) poller_.remove(ch->fd_);
  channels_.clear();  // closes the fds
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

TcpChannel* TcpTransport::adopt_fd(sock::Fd fd, std::string name,
                                   bool uds) {
  set_nonblocking(fd.get());
  if (!uds) set_nodelay(fd.get());
  const int raw_fd = fd.get();
  auto ch = std::unique_ptr<TcpChannel>(
      new TcpChannel(*this, std::move(name), fd.release(), uds));
  TcpChannel* raw = ch.get();
  // The poller's bookkeeping is only touched under pump_lock_ (wait() runs
  // inside pump(), add() here) so registration never races the event loop.
  sync::LockGuard<sync::MutexLock> pump_guard(pump_lock_);
  {
    sync::LockGuard<sync::MutexLock> g(state_lock_);
    channels_.push_back(std::move(ch));
  }
  poller_.add(raw_fd, raw);
  return raw;
}

void TcpTransport::snapshot_channels(std::vector<TcpChannel*>& out) const {
  sync::LockGuard<sync::MutexLock> g(state_lock_);
  out.reserve(channels_.size());
  for (const auto& ch : channels_) out.push_back(ch.get());
}

std::size_t TcpTransport::channel_count() const {
  sync::LockGuard<sync::MutexLock> g(state_lock_);
  return channels_.size();
}

std::pair<IChannel*, IChannel*> TcpTransport::create_channel_pair(
    const std::string& name) {
  return create_loopback_pair(*this, *this, name, Endpoint::Scheme::kUds);
}

std::pair<IChannel*, IChannel*> TcpTransport::create_loopback_pair(
    TcpTransport& ta, TcpTransport& tb, const std::string& name,
    Endpoint::Scheme scheme) {
  auto [fd_a, fd_b] = sock::loopback_pair(scheme);
  const bool uds = scheme == Endpoint::Scheme::kUds;
  TcpChannel* a = ta.adopt_fd(std::move(fd_a), name + ".a", uds);
  TcpChannel* b = tb.adopt_fd(std::move(fd_b), name + ".b", uds);
  a->peer_ = b;
  b->peer_ = a;
  return {a, b};
}

void TcpTransport::listen(const Endpoint& addr) {
  sync::LockGuard<sync::MutexLock> g(state_lock_);
  if (listen_fd_ >= 0) {
    throw std::logic_error("TcpTransport::listen: already listening");
  }
  sock::Listener l = sock::listen(addr);
  listen_fd_ = l.fd.release();
  listen_addr_ = l.bound;
  if (addr.scheme == Endpoint::Scheme::kUds) unlink_path_ = addr.path;
}

const Endpoint& TcpTransport::listen_endpoint() const {
  sync::LockGuard<sync::MutexLock> g(state_lock_);
  if (listen_fd_ < 0) {
    throw std::logic_error("TcpTransport::listen_endpoint: not listening");
  }
  return listen_addr_;
}

std::vector<TcpTransport::Accepted> TcpTransport::accept_peers(
    int lo, int hi, int64_t deadline_ms) {
  std::vector<Accepted> out(static_cast<std::size_t>(hi));
  int lfd = -1;
  {
    sync::LockGuard<sync::MutexLock> g(state_lock_);
    lfd = listen_fd_;
  }
  for (int outstanding = hi - lo; outstanding > 0;) {
    sock::Fd fd = sock::accept(lfd, deadline_ms);
    // A connection that stays silent must not hold up the joiners queued
    // behind it: its hello gets kHelloTimeoutMs, not the whole setup.
    const int64_t hello_deadline =
        std::min(deadline_ms, sock::now_ms() + kHelloTimeoutMs);
    sock::Hello hello;
    if (!sock::read_hello(fd.get(), hello, hello_deadline) ||
        hello.rank < lo || hello.rank >= hi ||
        out[static_cast<std::size_t>(hello.rank)].fd.valid()) {
      PIOM_LOG_WARN("tcp transport: dropping a connection with a bad or "
                    "missing hello (rank %d, expected [%d, %d))",
                    hello.rank, lo, hi);
      continue;
    }
    out[static_cast<std::size_t>(hello.rank)] =
        Accepted{std::move(fd), std::move(hello.addr)};
    --outstanding;
  }
  return out;
}

std::vector<IChannel*> TcpTransport::connect_mesh(
    int my_rank, const std::vector<Endpoint>& table, int first_peer) {
  const int n = static_cast<int>(table.size());
  if (my_rank < 0 || my_rank >= n || first_peer < 0) {
    throw std::invalid_argument("TcpTransport::connect_mesh: bad rank");
  }
  const int64_t deadline = sock::setup_deadline_ms();
  const Endpoint& self = listen_endpoint();
  std::vector<IChannel*> out(static_cast<std::size_t>(n), nullptr);
  // Connect to every lower rank. Lower ranks finish their own (lower)
  // connects first, then sit in accept — so this ordering cannot cycle.
  for (int peer = first_peer; peer < my_rank; ++peer) {
    const Endpoint& ep = table[static_cast<std::size_t>(peer)];
    sock::Fd fd = sock::connect(ep, deadline);
    sock::write_hello(fd.get(), my_rank, self);
    const std::string name = "tcp." + std::to_string(peer) + "-" +
                             std::to_string(my_rank) + ".b";
    out[static_cast<std::size_t>(peer)] =
        adopt_fd(std::move(fd), name, ep.scheme == Endpoint::Scheme::kUds);
  }
  // Accept from every higher rank (identified by its hello).
  const bool uds = self.scheme == Endpoint::Scheme::kUds;
  const int lo = std::max(my_rank + 1, first_peer);
  std::vector<Accepted> accepted = accept_peers(lo, n, deadline);
  for (int peer = lo; peer < n; ++peer) {
    Accepted& a = accepted[static_cast<std::size_t>(peer)];
    const std::string name = "tcp." + std::to_string(my_rank) + "-" +
                             std::to_string(peer) + ".a";
    out[static_cast<std::size_t>(peer)] = adopt_fd(std::move(a.fd), name, uds);
  }
  return out;
}

int TcpTransport::pump() {
  if (!pump_lock_.try_lock()) return 0;
  sync::LockGuard<sync::MutexLock> guard(pump_lock_, sync::kAdoptLock);
  int events = 0;
  FdPoller::Event evs[kMaxEvents];
  const int n = poller_.wait(evs, kMaxEvents, 0);
  for (int i = 0; i < n; ++i) {
    auto* ch = static_cast<TcpChannel*>(evs[i].tag);
    if (ch == nullptr) continue;
    if (evs[i].readable) {
      events += ch->handle_readable();
    } else if (evs[i].hangup) {
      ch->mark_dead();
    }
  }
  // Flush pass: frames may have been queued by threads that lost the pump
  // try-lock, or unblocked by what we just read.
  std::vector<TcpChannel*> chans;
  snapshot_channels(chans);
  for (TcpChannel* ch : chans) {
    if (ch->tx_pending_.load(std::memory_order_acquire) != 0) {
      events += ch->flush_tx();
    }
  }
  return events;
}

}  // namespace piom::transport
