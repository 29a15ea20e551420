#include "transport/bootstrap.hpp"

#include <cstdint>
#include <stdexcept>

#include "transport/socket.hpp"
#include "util/env.hpp"

namespace piom::transport {

namespace {

/// A joiner's data listener address, derived from the root address.
Endpoint data_listen_addr(const Endpoint& root_addr, int rank) {
  if (root_addr.scheme == Endpoint::Scheme::kUds) {
    return Endpoint::uds(root_addr.path + ".r" + std::to_string(rank));
  }
  // Ephemeral port; the resolved endpoint is what gets advertised. Binding
  // the root's host keeps everything on the same interface (this repo runs
  // single-machine — a multi-host deployment would advertise a public
  // address here).
  return Endpoint::tcp(root_addr.host, 0);
}

}  // namespace

Bootstrap Bootstrap::root(int nranks, const Endpoint& listen_addr) {
  if (nranks < 2) throw std::invalid_argument("Bootstrap::root: nranks >= 2");
  auto transport = std::make_unique<TcpTransport>();
  transport->listen(listen_addr);
  std::vector<TcpTransport::Accepted> joiners =
      transport->accept_peers(1, nranks, sock::setup_deadline_ms());
  std::vector<Endpoint> table(static_cast<std::size_t>(nranks));
  table[0] = transport->listen_endpoint();
  for (int r = 1; r < nranks; ++r) {
    table[static_cast<std::size_t>(r)] =
        joiners[static_cast<std::size_t>(r)].addr;
  }
  // Everyone checked in: answer each joiner on its hello socket with the
  // table (a count, then every URI in rank order). The socket then carries
  // the rank 0 <-> r data channel.
  const auto count = static_cast<uint32_t>(nranks);
  const bool uds = listen_addr.scheme == Endpoint::Scheme::kUds;
  std::vector<IChannel*> channels(static_cast<std::size_t>(nranks), nullptr);
  for (int r = 1; r < nranks; ++r) {
    sock::Fd& fd = joiners[static_cast<std::size_t>(r)].fd;
    sock::write_full(fd.get(), &count, sizeof(count));
    for (const Endpoint& ep : table) sock::write_string(fd.get(), ep.uri());
    channels[static_cast<std::size_t>(r)] = transport->adopt_fd(
        std::move(fd), "tcp.0-" + std::to_string(r) + ".a", uds);
  }
  return Bootstrap(0, nranks, std::move(transport), std::move(table),
                   std::move(channels));
}

Bootstrap Bootstrap::join(int rank, const Endpoint& root_addr) {
  if (rank < 1) throw std::invalid_argument("Bootstrap::join: rank >= 1");
  const int64_t deadline = sock::setup_deadline_ms();
  auto transport = std::make_unique<TcpTransport>();
  transport->listen(data_listen_addr(root_addr, rank));

  sock::Fd fd = sock::connect(root_addr, deadline);
  sock::write_hello(fd.get(), rank, transport->listen_endpoint());
  // The root answers — once every rank has checked in — with the table: a
  // count, then everyone's endpoint URI in rank order. EOF here means the
  // root refused the hello (say, a second joiner claiming this rank).
  uint32_t count = 0;
  if (!sock::read_full(fd.get(), &count, sizeof(count), deadline)) {
    throw std::runtime_error(
        "Bootstrap::join: root closed the rendezvous or timed out");
  }
  if (count < 2 || rank >= static_cast<int>(count) || count > 4096) {
    throw std::runtime_error("Bootstrap::join: bogus table size");
  }
  std::vector<Endpoint> table;
  table.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string uri;
    if (!sock::read_string(fd.get(), uri, deadline)) {
      throw std::runtime_error("Bootstrap::join: truncated endpoint table");
    }
    table.push_back(Endpoint::parse(uri));
  }
  IChannel* to_root = transport->adopt_fd(
      std::move(fd), "tcp.0-" + std::to_string(rank) + ".b",
      root_addr.scheme == Endpoint::Scheme::kUds);
  std::vector<IChannel*> channels = transport->connect_mesh(rank, table, 1);
  channels[0] = to_root;
  const int nranks = static_cast<int>(table.size());
  return Bootstrap(rank, nranks, std::move(transport), std::move(table),
                   std::move(channels));
}

Bootstrap Bootstrap::from_env() {
  const int64_t rank = util::env::integer("PIOM_RANK", -1);
  const int64_t nranks = util::env::integer("PIOM_NRANKS", -1);
  const std::string root_uri = util::env::str("PIOM_ROOT_ADDR", "");
  if (rank < 0 || nranks < 2 || root_uri.empty()) {
    throw std::runtime_error(
        "Bootstrap::from_env: $PIOM_RANK, $PIOM_NRANKS and $PIOM_ROOT_ADDR "
        "must be set (run under piom_launch)");
  }
  const Endpoint root_addr = Endpoint::parse(root_uri);
  if (rank == 0) {
    return root(static_cast<int>(nranks), root_addr);
  }
  return join(static_cast<int>(rank), root_addr);
}

}  // namespace piom::transport
