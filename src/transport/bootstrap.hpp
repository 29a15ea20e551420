// Bootstrap: rendezvous wiring for ranks that live in separate OS
// processes. The rendezvous runs on rank 0's data listener, and each
// joiner's hello socket stays open as its rank 0 data channel:
//
//     rank 0                           rank r (r > 0)
//     Bootstrap::root(n, root_addr)    Bootstrap::join(r, root_addr)
//       listen on root_addr              listen on its own data address
//                                        connect to root_addr (retrying —
//                                        processes start in any order)
//       accept n-1 hellos          <--   hello {magic, r, data URI}
//       answer each with the table  -->  read the table
//       adopt each socket as the         adopt the socket as the
//         0 <-> r channel                  0 <-> r channel
//                                        connect_mesh over ranks 1..n-1
//
// Every setup socket goes through transport/socket.hpp: one listen, one
// connect-with-retry, one accept-with-deadline and one hello, shared with
// the data mesh. A connection whose hello is malformed (bad magic, rank out
// of range or taken, implausible URI, EOF) is closed and logged, and the
// accept loop goes on; a missed deadline throws. The Bootstrap owns the
// TcpTransport — keep it alive as long as the channels are in use
// (mpi::LocalRank holds it for exactly that reason).
//
// Joiners' data listener addresses are derived from the root address: a
// uds root "uds:///tmp/x.sock" puts rank r's listener at /tmp/x.sock.r<r>;
// a tcp root uses an ephemeral port on the same host.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "transport/endpoint.hpp"
#include "transport/tcp.hpp"

namespace piom::transport {

class Bootstrap {
 public:
  /// Rank 0: listen on `listen_addr` (tcp:// or uds://), gather the other
  /// nranks-1 ranks, answer each with the endpoint table. Blocking; throws
  /// std::runtime_error on timeout.
  static Bootstrap root(int nranks, const Endpoint& listen_addr);
  /// Rank r > 0: join the cluster rooted at `root_addr`, then wire the
  /// data mesh to ranks 1..n-1.
  static Bootstrap join(int rank, const Endpoint& root_addr);
  /// From $PIOM_RANK / $PIOM_NRANKS / $PIOM_ROOT_ADDR — the environment
  /// piom_launch exports into every spawned rank.
  static Bootstrap from_env();

  Bootstrap(Bootstrap&&) = default;
  Bootstrap& operator=(Bootstrap&&) = default;
  Bootstrap(const Bootstrap&) = delete;
  Bootstrap& operator=(const Bootstrap&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  /// The data-plane transport (pump it, or let channel polls do it).
  [[nodiscard]] TcpTransport& transport() { return *transport_; }
  /// Per-peer data channels indexed by peer rank; the self slot is null.
  [[nodiscard]] const std::vector<IChannel*>& channels() const {
    return channels_;
  }
  /// Everyone's advertised data endpoints (index = rank; [0] is the root's
  /// listen address).
  [[nodiscard]] const std::vector<Endpoint>& table() const { return table_; }

 private:
  Bootstrap(int rank, int nranks, std::unique_ptr<TcpTransport> transport,
            std::vector<Endpoint> table, std::vector<IChannel*> channels)
      : rank_(rank),
        nranks_(nranks),
        transport_(std::move(transport)),
        table_(std::move(table)),
        channels_(std::move(channels)) {}

  int rank_;
  int nranks_;
  std::unique_ptr<TcpTransport> transport_;
  std::vector<Endpoint> table_;
  std::vector<IChannel*> channels_;
};

}  // namespace piom::transport
