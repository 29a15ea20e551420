// Failure-detection latency: how long after a rank dies do its survivors
// (a) get the detector's verdict and (b) get their parked operations
// error-completed — as a function of the heartbeat period, per engine.
//
// The detector's nominal bound is (timeout_periods + 1) × heartbeat_period:
// a peer is declared dead after timeout_periods of silence, observed by a
// tick that itself runs at most one period late. Measured detection should
// track that line (plus scheduler noise); error completion should land a
// hair later — fail_peer() runs inline in the detecting tick, so the gap
// is one progress pass, not another heartbeat. The interesting engine
// split: PIOMan's background tasks tick the detector whether or not the
// application is inside an MPI call, while the caller-driven baselines
// only detect while polled — here every rank polls, so the three should
// agree; the *architectural* difference (idle ranks detect nothing) is a
// docs/architecture.md point, not a benchmark row.
//
// --quick shrinks the period sweep and repetitions; --json <path> records
// the BENCH_*.json layout (gated by bench/check_bench_json.py in CI —
// note the 1-CPU-container caveat in bench/README.md: baseline numbers
// carry heavy scheduler noise on top of the nominal bound).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "mpi/world.hpp"
#include "util/timing.hpp"

namespace {

using piom::mpi::EngineKind;

struct Sample {
  double detect_ms = 0;    ///< kill → detector verdict on the survivor
  double complete_ms = 0;  ///< kill → survivor's parked recv error-completed
};

Sample measure_once(EngineKind kind, double period_us, int timeout_periods) {
  piom::mpi::WorldConfig cfg;
  cfg.engine = kind;
  cfg.nranks = 2;
  cfg.time_scale = 0.05;
  cfg.pioman.workers = 1;
  cfg.failure.enabled = true;
  cfg.failure.heartbeat_period_us = period_us;
  cfg.failure.timeout_periods = timeout_periods;
  piom::mpi::World world(cfg);

  // The victim stays live (pinging) until the kill: park it in a test()
  // loop on a receive nobody serves — after the cut its own detector
  // error-completes the request, which is the thread's exit signal.
  std::atomic<bool> victim_up{false};
  std::thread victim([&] {
    piom::mpi::Comm& comm = world.comm(1);
    int64_t v = 0;
    piom::mpi::Request req;
    comm.irecv(req, 0, /*tag=*/5, &v, sizeof(v));
    victim_up.store(true, std::memory_order_release);
    while (!comm.test(req)) std::this_thread::yield();
  });

  piom::mpi::Comm& comm = world.comm(0);
  int64_t v = 0;
  piom::mpi::Request req;
  comm.irecv(req, 1, /*tag=*/5, &v, sizeof(v));
  while (!victim_up.load(std::memory_order_acquire)) {
    (void)comm.test(req);
  }
  // A few periods of live heartbeat traffic before the cut, so the
  // measurement starts from a freshly-heard peer (worst case for the
  // detector, the honest case for the bound).
  const auto warmup = std::chrono::microseconds(
      static_cast<int64_t>(3 * period_us));
  const int64_t t_warm = piom::util::now_ns();
  while (piom::util::now_ns() - t_warm <
         std::chrono::nanoseconds(warmup).count()) {
    (void)comm.test(req);
  }

  const int64_t t_kill = piom::util::now_ns();
  world.kill_rank(1);
  Sample s;
  while (!comm.rank_failed(1)) {
    (void)comm.test(req);
  }
  s.detect_ms = static_cast<double>(piom::util::now_ns() - t_kill) * 1e-6;
  while (!comm.test(req)) {
  }
  s.complete_ms = static_cast<double>(piom::util::now_ns() - t_kill) * 1e-6;
  victim.join();
  return s;
}

const char* engine_tag(EngineKind k) {
  switch (k) {
    case EngineKind::kPioman: return "pioman";
    case EngineKind::kMvapichLike: return "mvapich";
    case EngineKind::kOpenMpiLike: return "openmpi";
  }
  return "?";
}

constexpr EngineKind kEngines[] = {EngineKind::kPioman,
                                   EngineKind::kMvapichLike,
                                   EngineKind::kOpenMpiLike};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int timeout_periods = 10;
  const int reps = quick ? 1 : 3;
  // Floor of the sweep: a heartbeat needs ~2 thread timeslices to traverse
  // sender tick → receiver poll (which runs the wire), which on a saturated
  // single-CPU container is tens of ms — detection bounds below that are
  // pure scheduler noise and read as instant false positives. Keep every
  // bound (period × (timeout_periods+1)) above ~50 ms.
  const std::vector<double> periods_us =
      quick ? std::vector<double>{5000, 20000}
            : std::vector<double>{5000, 10000, 20000};
  piom::bench::JsonReport report("bench_fault_detect", argc, argv);

  std::printf(
      "=== failure detection — latency vs heartbeat period ===\n"
      "nominal bound = (timeout_periods + 1) x period; detection should\n"
      "track it and error completion should land one progress pass later\n"
      "(timeout_periods = %d)\n\n",
      timeout_periods);

  const int label_w = 18, cell_w = 13;
  {
    std::vector<std::string> header = {"bound (ms)", "detect (ms)",
                                       "complete (ms)"};
    piom::bench::print_row("engine / period", header, label_w, cell_w);
  }
  for (const EngineKind kind : kEngines) {
    for (const double period_us : periods_us) {
      const double bound_ms = period_us * (timeout_periods + 1) * 1e-3;
      // Median of reps: one world per rep, so a single noisy scheduler
      // window cannot smear the whole row.
      std::vector<Sample> samples;
      for (int i = 0; i < reps; ++i) {
        samples.push_back(measure_once(kind, period_us, timeout_periods));
      }
      std::sort(samples.begin(), samples.end(),
                [](const Sample& a, const Sample& b) {
                  return a.detect_ms < b.detect_ms;
                });
      const Sample& med = samples[samples.size() / 2];
      report.row()
          .str("engine", engine_tag(kind))
          .num("period_us", period_us)
          .num("timeout_periods", timeout_periods)
          .num("bound_ms", bound_ms)
          .num("detect_ms", med.detect_ms)
          .num("complete_ms", med.complete_ms);
      std::vector<std::string> cells = {piom::bench::fmt_us(bound_ms),
                                        piom::bench::fmt_us(med.detect_ms),
                                        piom::bench::fmt_us(med.complete_ms)};
      piom::bench::print_row(std::string(engine_tag(kind)) + " " +
                                 std::to_string(static_cast<int>(period_us)) +
                                 "us",
                             cells, label_w, cell_w);
    }
  }
  return 0;
}
