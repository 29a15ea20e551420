// World: an N-rank mini-MPI cluster in one process — `nranks` "cluster
// nodes" (one nmad session + one progress engine each) over a lazily wired
// fabric: a rank pair's channels (one dedicated link — or several rails —
// per unordered pair) and the gates over them are created on first
// contact, not upfront, so idle pairs cost nothing. The overlay layer
// (mpi/membership.hpp) decides who talks directly: dense mode lets every
// pair connect, sparse mode keeps a tree+ring view per rank and forwards
// the rest. This is the entry point benchmarks and examples use:
//
//   mpi::WorldConfig cfg;
//   cfg.engine = mpi::EngineKind::kPioman;
//   cfg.nranks = 4;                       // default 2
//   mpi::World world(cfg);
//   world.comm(0).send(3, /*tag=*/7, data, len);
//   world.comm(3).recv(0, 7, buf, len);
//   world.comm(rank).bcast(buf, len, /*root=*/0);   // on every rank
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "mpi/coll.hpp"
#include "mpi/engine.hpp"
#include "mpi/local_rank.hpp"
#include "mpi/membership.hpp"
#include "mpi/request.hpp"
#include "topo/machine.hpp"
#include "transport/channel.hpp"
#include "transport/cluster.hpp"

namespace piom::mpi {

/// The per-rank fields (engine, session, pioman, failure, overlay) come
/// from RankConfig, and every rank gets that slice as is.
struct WorldConfig : RankConfig {
  /// Cluster size (>= 2). Every rank is wired to every other rank.
  int nranks = 2;
  /// Number of simnet rails (NIC pairs) between each pair of ranks.
  int rails = 1;
  simnet::LinkModel link{};
  /// Multiplies every modelled network delay.
  double time_scale = 1.0;
  /// Transport backend selection per rank pair. With an empty `node_of`
  /// the policy is resolved from $PIOM_TRANSPORT instead (the CI backend
  /// matrix forces whole suites onto shmem/hybrid that way); a non-empty
  /// `node_of` pins the placement and ignores the environment.
  transport::BackendPolicy policy{};
};

/// Rank placement derived from a machine topology: rank r lives on the
/// chip (NUMA node when chip-less, whole machine when flat) hosting core
/// r % ncpus. Feed the result to WorldConfig::policy.node_of to make a
/// "2-chip machine" where half the rank pairs share memory.
[[nodiscard]] std::vector<int> rank_nodes_from_machine(
    const topo::Machine& machine, int nranks);

class Comm;

class World {
 public:
  explicit World(WorldConfig config = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Communicator of `rank` (0 .. nranks-1).
  [[nodiscard]] Comm& comm(int rank);

  [[nodiscard]] int nranks() const { return config_.nranks; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }
  /// The multi-backend transport owner (simnet + shmem + sockets).
  [[nodiscard]] transport::Cluster& cluster() { return *cluster_; }
  /// Factory face of one backend (neutral ITransport view — nothing
  /// outside the simnet tests needs to name simnet::Fabric).
  [[nodiscard]] transport::ITransport& transport(transport::Backend b) {
    return cluster_->transport(b);
  }
  /// Rail channels `rank` owns towards `peer` (rail 0 first), wiring the
  /// pair on first request (lazy mesh). The per-pair IChannel view fault
  /// tests and benches use instead of digging through the fabric.
  [[nodiscard]] const std::vector<transport::IChannel*>& pair_channels(
      int rank, int peer);
  /// Rank-local pieces (each rank is a LocalRank; see mpi/local_rank.hpp).
  [[nodiscard]] LocalRank& local_rank(int rank);
  [[nodiscard]] Engine& engine(int rank);
  [[nodiscard]] nmad::Session& session(int rank);
  /// `rank`'s failure detector; null unless WorldConfig::failure.enabled.
  [[nodiscard]] FailureDetector* detector(int rank);

  /// Multi-process entry point: build THIS process's single rank from a
  /// completed Bootstrap (rank/nranks come from it). The World class
  /// itself stays in-process — a cluster of OS processes is N processes
  /// each holding one LocalRank, launched by tools/piom_launch.
  [[nodiscard]] static std::unique_ptr<LocalRank> local(
      transport::Bootstrap bootstrap, const RankConfig& config = {});

  /// Fault injection: sever both directions of every channel `victim`
  /// owns, exactly as if its node lost power mid-run. Survivors' detectors
  /// declare it failed within the detection bound; the victim's own
  /// detector (cut off from everyone) symmetrically declares all of its
  /// peers failed, which error-completes any call it is blocked in — that
  /// is what lets a test thread playing the victim return and join.
  /// Requires failure detection to be enabled (throws otherwise: without a
  /// detector every survivor touching the victim would simply hang).
  void kill_rank(int victim);

  /// Stop background machinery of every rank (idempotent; dtor calls it).
  void shutdown();

 private:
  void check_rank(int rank, const char* who) const;

  /// GateConnector body (installed on every rank's membership): wire the
  /// transport pair on demand and install BOTH sides' gates — the peer's
  /// first, so its side is being polled before our first packet can land.
  /// Idempotent and safe to race (pair_rails and install_gate both
  /// double-check); coordinates with kill_rank through killed_ so a pair
  /// lazily wired concurrently with a kill still ends up severed.
  void connect_pair(int rank, int peer);

  WorldConfig config_;
  // The cluster (all channels) must outlive every rank's session: ranks_
  // is declared after cluster_ so it is destroyed first.
  std::unique_ptr<transport::Cluster> cluster_;
  std::vector<std::unique_ptr<LocalRank>> ranks_;
  /// Ranks kill_rank has struck; connect_pair consults it so lazy wiring
  /// racing a kill cannot resurrect a dead rank's connectivity.
  std::mutex killed_lock_;
  std::set<int> killed_;
};

/// Per-rank MPI-like interface: N ranks, reliable, tag- and source-matched.
/// Tags >= kReservedTagBase are reserved for the collectives (ReduceOp and
/// the CollRequest handle live in mpi/coll.hpp).
class Comm {
 public:
  /// Wildcard receive tag (MPI_ANY_TAG). Matches application traffic only:
  /// reserved-tag (collective/internal) packets are never claimed by a
  /// wildcard, so wildcard receives compose with in-flight collectives.
  static constexpr Tag kAnyTag = nmad::kAnyTag;
  /// Wildcard receive source (MPI_ANY_SOURCE): matches the first arrival
  /// from any peer; Status.source reports who sent it.
  static constexpr int kAnySource = -1;
  /// First tag reserved for internal (collective) traffic. The reserved
  /// space is laid out as epoch/kind/round — see mpi/coll.hpp.
  static constexpr Tag kReservedTagBase = nmad::kReservedTagBase;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return nranks_; }

  /// `tag` must be an application tag (below kReservedTagBase — enforced,
  /// since a send into the reserved space would collide with the
  /// epoch-stamped collective tags).
  void isend(Request& req, int dst, Tag tag, const void* buf, std::size_t len);
  /// `src` may be kAnySource; `tag` may be kAnyTag, otherwise it must be
  /// an application tag (below kReservedTagBase — enforced).
  void irecv(Request& req, int src, Tag tag, void* buf, std::size_t cap);
  void wait(Request& req) { engine_->wait(req); }
  [[nodiscard]] bool test(Request& req) { return engine_->test(req); }

  /// Blocking convenience wrappers (isend/irecv + wait).
  void send(int dst, Tag tag, const void* buf, std::size_t len);
  void recv(int src, Tag tag, void* buf, std::size_t cap);
  /// Blocking receive reporting the matched tag/source/size (use with
  /// kAnyTag / kAnySource).
  Status recv_status(int src, Tag tag, void* buf, std::size_t cap);

  /// Simultaneous send and receive (MPI_Sendrecv): both directions overlap,
  /// deadlock-free even when both ranks call it at once. `send_dst` and
  /// `recv_src` may name different peers (ring shifts).
  void sendrecv(int send_dst, Tag send_tag, const void* send_buf,
                std::size_t send_len, int recv_src, Tag recv_tag,
                void* recv_buf, std::size_t recv_cap);
  /// Single-peer overload (exchange with one neighbour).
  void sendrecv(int peer, Tag send_tag, const void* send_buf,
                std::size_t send_len, Tag recv_tag, void* recv_buf,
                std::size_t recv_cap) {
    sendrecv(peer, send_tag, send_buf, send_len, peer, recv_tag, recv_buf,
             recv_cap);
  }

  // ---- collectives (every rank must call, in the same order; internally
  // ---- use reserved tags so they compose with application traffic) ------
  //
  // Each collective exists in two forms: the nonblocking i…() starts an
  // engine-progressed CollOp state machine into the caller-owned `req`
  // (complete it with test()/wait(); several may be in flight at once —
  // the per-Comm epoch in the reserved tags keeps them from
  // cross-matching), and the blocking form, which is exactly i…() +
  // wait(). All buffers passed to an i…() call must stay valid until the
  // request completes.

  /// Synchronize all ranks (fan-in to rank 0 over the membership's fanout
  /// tree, then fan-out back down).
  void ibarrier(CollRequest& req);
  void barrier();

  /// Broadcast `len` bytes from `root` to every rank (a non-zero root hands
  /// the payload to rank 0 and feeds its own subtree; rank 0 floods the
  /// rest of the fanout tree).
  void ibcast(CollRequest& req, void* buf, std::size_t len, int root);
  void bcast(void* buf, std::size_t len, int root);

  /// Element-wise reduction across all ranks; every rank ends up with the
  /// combined result: reduce up the fanout tree to rank 0, then broadcast
  /// the result back down. T must be an arithmetic type.
  template <typename T>
  void iallreduce(CollRequest& req, T* data, std::size_t count, ReduceOp op) {
    static_assert(std::is_arithmetic_v<T>, "iallreduce needs arithmetic T");
    iallreduce_raw(req, data, count, sizeof(T), &coll_detail::combine<T>, op);
  }
  template <typename T>
  void allreduce(T* data, std::size_t count, ReduceOp op) {
    CollRequest req;
    iallreduce(req, data, count, op);
    wait(req);
  }

  /// Root collects `len` bytes from every rank: rank i's block lands at
  /// recvbuf + i*len. `recvbuf` is only used on the root (pass nullptr
  /// elsewhere).
  void igather(CollRequest& req, const void* sendbuf, std::size_t len,
               void* recvbuf, int root);
  void gather(const void* sendbuf, std::size_t len, void* recvbuf, int root);

  /// Root distributes `len`-byte blocks: rank i receives sendbuf + i*len
  /// into recvbuf. `sendbuf` is only used on the root (pass nullptr
  /// elsewhere).
  void iscatter(CollRequest& req, const void* sendbuf, std::size_t len,
                void* recvbuf, int root);
  void scatter(const void* sendbuf, std::size_t len, void* recvbuf, int root);

  /// Every rank sends block d (sendbuf + d*len) to rank d and receives
  /// rank s's block at recvbuf + s*len (pairwise exchange, N-1 rounds).
  /// Buffers must not alias.
  void ialltoall(CollRequest& req, const void* sendbuf, std::size_t len,
                 void* recvbuf);
  void alltoall(const void* sendbuf, std::size_t len, void* recvbuf);

  /// Complete a collective (MPI_Wait / MPI_Test on an NBC request).
  void wait(CollRequest& req) { engine_->wait_coll(req); }
  [[nodiscard]] bool test(CollRequest& req) { return engine_->test_coll(req); }

  // ---- failure API (ULFM-flavoured; needs WorldConfig::failure.enabled,
  // ---- otherwise every query reads "nothing failed") -------------------

  /// True once this rank's detector has declared any peer failed.
  [[nodiscard]] bool any_rank_failed() const {
    return engine_->has_failures();
  }
  /// True once this rank's detector has declared `rank` failed.
  [[nodiscard]] bool rank_failed(int rank) const;
  /// Ranks this rank's detector has declared failed so far, ascending.
  [[nodiscard]] std::vector<int> failed_ranks() const;
  /// Install a per-failed-rank callback (see FailureDetector::on_rank_failed;
  /// it runs inside a progress path — keep it cheap). No-op when failure
  /// detection is disabled.
  void on_rank_failed(std::function<void(int)> cb);

  /// MPI_Cancel analog for receives: withdraw a posted, unmatched irecv
  /// and error-complete it (done() turns true with failed() set). Returns
  /// false — and leaves the request alone — when it already matched, is a
  /// send (cancelling sends has never been meaningfully supported), or is
  /// inactive. Survivors use this to abandon receives whose live partner
  /// moved on after observing a failure this rank has also observed.
  bool cancel(Request& req);

  [[nodiscard]] Engine& engine() { return *engine_; }
  /// Gate towards `peer`, created lazily on first use (throws on self /
  /// out of range).
  [[nodiscard]] nmad::Gate& gate_to(int peer);
  /// This rank's overlay/routing layer (topology, gate table, forwarding).
  [[nodiscard]] Membership& membership() { return *membership_; }

 private:
  friend class World;
  friend class LocalRank;  // constructs its rank's Comm
  friend class CollOp;  // posts reserved-tag rounds through the _reserved paths
  Comm(int rank, Engine* engine, Membership* membership, int nranks)
      : rank_(rank),
        engine_(engine),
        membership_(membership),
        nranks_(nranks) {}

  /// Throws unless `peer` is a valid rank other than rank_.
  void check_peer(int peer, const char* who) const;
  /// Throws when an application operation names a reserved-space tag
  /// (kAnyTag is permitted on receives and rejected on sends, where it has
  /// never been valid).
  void check_app_tag(Tag tag, bool is_recv, const char* who) const;

  /// Unchecked variants for the collectives' own reserved-tag traffic.
  void isend_reserved(Request& req, int dst, Tag tag, const void* buf,
                      std::size_t len);
  void irecv_reserved(Request& req, int src, Tag tag, void* buf,
                      std::size_t cap);

  /// Failure drain: revoke a dying collective's whole tag epoch on every
  /// live gate (Gate::revoke_tags), so peers' rendezvous rounds targeting
  /// this rank — staged, in flight, or not yet sent — are NACKed and
  /// error-complete instead of parking forever for a FIN. Called once per
  /// failing CollOp, before it cancels its own round receives.
  void revoke_coll_epoch(uint32_t epoch);

  /// Type-erased iallreduce (the template above instantiates the combine).
  void iallreduce_raw(CollRequest& req, void* data, std::size_t count,
                      std::size_t elem_size, coll_detail::CombineFn combine,
                      ReduceOp op);
  /// Claim the next collective sequence number. Every rank issues its
  /// collectives in the same order (MPI semantics), so the counters agree
  /// cluster-wide and the epoch can live in the tags.
  uint32_t next_coll_epoch() {
    return coll_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  int rank_;
  Engine* engine_;
  /// Owned by this rank's LocalRank; routes every operation (direct gate,
  /// lazily created, or multi-hop forward in sparse mode).
  Membership* membership_;
  int nranks_;
  std::atomic<uint32_t> coll_epoch_{0};
};

}  // namespace piom::mpi
