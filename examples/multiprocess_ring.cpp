// multiprocess_ring: the first example that runs as true OS processes.
//
// Launched under tools/piom_launch, each rank is its own process: it reads
// the bootstrap environment ($PIOM_RANK / $PIOM_NRANKS / $PIOM_ROOT_ADDR),
// rendezvouses on the root's data listener (the hello socket stays open as
// its channel to rank 0), wires the rest of a full socket mesh to its peers
// (TCP or Unix-domain, per the root address scheme) and runs a token ring
// plus an allreduce over it:
//
//     ./build/tools/piom_launch -n 4 -- ./build/examples/multiprocess_ring
//
// Without the environment it falls back to the in-process World (4 ranks,
// one thread each) so the plain examples-smoke matrix still covers it.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "mpi/world.hpp"
#include "transport/bootstrap.hpp"

using namespace piom;

namespace {

constexpr mpi::Tag kToken = 7;

/// Pass an accumulating token around the ring, then cross-check with an
/// allreduce. Returns 0 on success.
int run_rank(mpi::Comm& comm) {
  const int n = comm.size();
  const int r = comm.rank();
  const int left = (r - 1 + n) % n;
  const int right = (r + 1) % n;

  // Rank 0 injects the token; every hop adds the local rank. After one
  // lap the token holds sum(0..n-1).
  int64_t token = 0;
  if (r == 0) {
    token = 0;
    comm.send(right, kToken, &token, sizeof(token));
    const mpi::Status st =
        comm.recv_status(left, kToken, &token, sizeof(token));
    if (st.bytes != sizeof(token) || st.source != left) {
      std::fprintf(stderr, "rank 0: bad ring status\n");
      return 1;
    }
  } else {
    comm.recv(left, kToken, &token, sizeof(token));
    token += r;
    comm.send(right, kToken, &token, sizeof(token));
  }

  // Everyone contributes its rank; the reduction must agree with the lap.
  int64_t sum = r;
  comm.allreduce(&sum, 1, mpi::ReduceOp::kSum);
  const int64_t expect = static_cast<int64_t>(n) * (n - 1) / 2;
  if (sum != expect || (r == 0 && token != expect)) {
    std::fprintf(stderr, "rank %d: sum %lld (expect %lld)\n", r,
                 static_cast<long long>(sum),
                 static_cast<long long>(expect));
    return 1;
  }
  comm.barrier();
  if (r == 0) {
    std::printf("ring of %d ranks: token %lld, allreduce %lld — ok\n", n,
                static_cast<long long>(token), static_cast<long long>(sum));
  }
  return 0;
}

}  // namespace

int main() {
  if (std::getenv("PIOM_RANK") != nullptr) {
    // Multi-process mode: this process is ONE rank. Bootstrap wires the
    // socket mesh; LocalRank owns the session/engine on top of it.
    std::unique_ptr<mpi::LocalRank> rank =
        mpi::World::local(transport::Bootstrap::from_env());
    return run_rank(rank->comm());
  }

  // Fallback: the whole ring in this process, one thread per rank.
  mpi::WorldConfig cfg;
  cfg.nranks = 4;
  mpi::World world(cfg);
  std::vector<int> rc(4, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&world, &rc, r] {
      rc[static_cast<std::size_t>(r)] = run_rank(world.comm(r));
    });
  }
  for (auto& t : threads) t.join();
  for (const int code : rc) {
    if (code != 0) return code;
  }
  return 0;
}
