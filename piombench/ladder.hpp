// The layer ladder: each workload's traffic driven one layer lower than
// Comm, caller-pumped on one thread, through each layer's public functions:
//
//   transport — raw IChannel post/poll on the workload's backend
//   nmad      — Gate isend/irecv + Session::progress on that backend
//
// (The `mpi` rung is the workload itself on the caller-driven mvapich-like
// engine — see workloads.hpp.) Each rung times the same op the workload's
// op_us times, so the rungs decompose the end-to-end number.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace piom::pbench {

struct RungRun {
  std::vector<double> op_us;  ///< warm-up discarded
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

[[nodiscard]] RungRun run_transport_rung(const Spec& spec, const Budget& budget,
                                         uint64_t seed, SpanBuf* spans);
[[nodiscard]] RungRun run_nmad_rung(const Spec& spec, const Budget& budget,
                                    uint64_t seed, SpanBuf* spans);

}  // namespace piom::pbench
