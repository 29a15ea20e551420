// Umbrella header: pulls in the whole piom stack.
//
//   topo    — CPU sets, machine topology (paper Fig 2/3)
//   sync    — spinlocks, semaphore, cache alignment
//   core    — Task, hierarchical TaskManager (paper §III, Algorithms 1 & 2)
//   sched   — worker runtime + idle/blocking/interrupt hooks (MARCEL role)
//   simnet  — simulated NICs/fabric with RDMA and fault injection
//   nmad    — communication library: eager/rendezvous, strategies,
//             reliability (NewMadeleine role)
//   mpi     — two-rank mini-MPI with three progress engines (MAD-MPI vs
//             the global-lock baselines) + collectives
//   util    — timing, stats, logging, options, tracing
//
// Prefer including the specific headers in production code; this header is
// for examples and quick starts.
#pragma once

#include "core/task.hpp"            // IWYU pragma: export
#include "core/task_manager.hpp"    // IWYU pragma: export
#include "core/task_queue.hpp"      // IWYU pragma: export
#include "core/lf_queue.hpp"        // IWYU pragma: export
#include "mpi/world.hpp"            // IWYU pragma: export
#include "nmad/session.hpp"         // IWYU pragma: export
#include "sched/runtime.hpp"        // IWYU pragma: export
#include "simnet/fabric.hpp"        // IWYU pragma: export
#include "sync/semaphore.hpp"       // IWYU pragma: export
#include "sync/spinlock.hpp"        // IWYU pragma: export
#include "topo/cpuset.hpp"          // IWYU pragma: export
#include "topo/machine.hpp"         // IWYU pragma: export
#include "util/stats.hpp"           // IWYU pragma: export
#include "util/timing.hpp"          // IWYU pragma: export
#include "util/trace.hpp"           // IWYU pragma: export
