// piom_bench — the repository's end-to-end benchmark with a per-layer
// decomposition (README.md in this directory has the full story).
//
//   piom_bench [--workload <name>] [--seed N] [--seconds S] [--json out.json]
//              [--trace trace.json] [--smoke]
//
// Without --trace it measures the end-to-end metrics: per workload, 24
// fresh PIOMan worlds share the --seconds budget (the first 10% of each
// world's ops are warm-up), with 100 bring-ups spread between them. With
// --trace it instead runs the per-layer pass: an untraced and a traced
// PIOMan world, the layer ladder (transport, nmad, mpi rungs), library
// counters, and a Chrome trace-event file of the spans. --smoke shrinks
// everything to seconds (1 world x 0.3 s, 5 bring-ups) for ctest.
//
// Every payload is verified. An op that has not completed after 2 s ends
// the run with exit code 3, after writing the JSON gathered so far.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "ladder.hpp"
#include "measure.hpp"
#include "spans.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace piom;
using namespace piom::pbench;

constexpr int kWatchdogMs = 2000;

/// Variables that change library behaviour; a measurement taken under any
/// of them would not be comparable with the recorded baseline.
constexpr const char* kBehaviourEnv[] = {
    "PIOM_TRANSPORT", "PIOM_AGGREGATION",      "PIOM_MATCHER", "PIOM_OVERLAY",
    "PIOM_FANOUT",    "PIOM_SPARSE_THRESHOLD", "PIOM_TRACE",
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  const char* better = "";
  std::size_t samples = 0;
  bool valid = true;
};

struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void add(uint64_t a, uint64_t f) {
    attempted += a;
    failed += f;
  }
};

/// JsonReport plus the lock the watchdog needs to flush it mid-run.
struct Output {
  std::mutex lock;
  std::unique_ptr<bench::JsonReport> report;

  void metric(const std::string& workload, const Metric& m) {
    std::lock_guard<std::mutex> lk(lock);
    report->row()
        .str("workload", workload)
        .str("metric", m.name)
        .num("value", m.value)
        .str("unit", m.unit)
        .str("better", m.better)
        .num("samples", static_cast<double>(m.samples))
        .num("valid", m.valid ? 1 : 0);
  }
  /// Counts go out as exact decimal strings (num() keeps 6 digits).
  void ops(const std::string& workload, const Ops& o) {
    std::lock_guard<std::mutex> lk(lock);
    report->row()
        .str("workload", workload)
        .str("kind", "ops")
        .str("attempted", std::to_string(o.attempted))
        .str("failed", std::to_string(o.failed));
  }
};

Output g_out;

void print_metric(const Metric& m) {
  std::printf("  %-28s %14.6g %-6s (%s, n=%zu)%s\n", m.name.c_str(), m.value,
              m.unit, m.better, m.samples, m.valid ? "" : "  INVALID: <10 beyond");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- end-to-end pass ----

struct E2EPlan {
  int bringups;
  int worlds;
  double world_s;
};

Ops run_e2e(const Spec& spec, const E2EPlan& plan, uint64_t seed,
            std::vector<Metric>& out) {
  Ops ops;
  std::vector<double> setup_s;
  std::vector<double> op_us, heap, overlap;
  double units = 0, units_s = 0, cpu_s = 0, wall_s = 0;
  uint64_t checked = 0, reordered = 0;
  for (int w = 0; w < plan.worlds; ++w) {
    // The bring-ups are spread between the worlds, so set-up is sampled
    // across the whole run rather than in its first half second.
    const int upto = plan.bringups * (w + 1) / plan.worlds;
    for (int k = static_cast<int>(setup_s.size()); k < upto; ++k) {
      setup_s.push_back(bring_up(spec, mix(seed, 0xB00, static_cast<uint64_t>(k))));
      ops.add(spec.pairs.size() * 2, 0);
    }
    const double heap0 = heap_in_use();
    mpi::World world(world_config(spec, mpi::EngineKind::kPioman));
    touch_progress();
    const Usage u0 = Usage::now();
    const int64_t t0 = util::now_ns();
    WorldRun run = run_world(spec, world, Budget::for_seconds(plan.world_s),
                             mix(seed, static_cast<uint64_t>(w)), nullptr);
    wall_s += static_cast<double>(util::now_ns() - t0) * 1e-9;
    cpu_s += (Usage::now() - u0).cpu_s;
    heap.push_back((heap_in_use() - heap0 -
                    static_cast<double>((run.op_us.capacity() +
                                         run.overlap_ratio.capacity()) *
                                        sizeof(double))) /
                   1024.0);
    op_us.insert(op_us.end(), run.op_us.begin(), run.op_us.end());
    overlap.insert(overlap.end(), run.overlap_ratio.begin(),
                   run.overlap_ratio.end());
    std::printf("  world %2d: n=%zu p50=%.6g us p99=%.6g us %.6g op/s heap=%.6g KiB\n",
                w, run.op_us.size(), percentile(run.op_us, 0.5).value,
                percentile(run.op_us, 0.99).value, ratio(run.units, run.units_s),
                heap.back());
    std::fflush(stdout);
    units += run.units;
    units_s += run.units_s;
    checked += run.attempted;
    reordered += run.reordered;
    ops.add(run.attempted, run.failed);
  }

  const Pctl p50 = percentile(op_us, 0.50);
  const Pctl p99 = percentile(op_us, 0.99);
  out.push_back({"setup_s", median(setup_s), "s", "lower", setup_s.size()});
  out.push_back({"op_p50_us", p50.value, "us", "lower", op_us.size(), p50.valid});
  out.push_back({"op_p99_us", p99.value, "us", "lower", op_us.size(), p99.valid});
  const Pctl tail = tail_mean(op_us, 0.01);
  out.push_back({"op_tail_us", tail.value, "us", "lower", op_us.size(), tail.valid});
  out.push_back({"ops_per_s", ratio(units, units_s), "1/s", "higher",
                 static_cast<std::size_t>(units)});
  out.push_back({"cpu_cores", ratio(cpu_s, wall_s), "cores", "lower",
                 static_cast<std::size_t>(plan.worlds)});
  out.push_back({"heap_kib", median(heap), "KiB", "lower", heap.size()});
  if (!overlap.empty()) {
    out.push_back({"overlap_ratio", median(overlap), "ratio", "higher",
                   overlap.size()});
  }
  out.push_back({"fail_ratio",
                 ratio(static_cast<double>(ops.failed),
                       static_cast<double>(ops.attempted)),
                 "ratio", "lower", static_cast<std::size_t>(ops.attempted)});
  if (spec.id == WorkloadId::kMsgrateShmem) {
    out.push_back({"reorder_frac",
                   ratio(static_cast<double>(reordered), static_cast<double>(checked)),
                   "ratio", "lower", static_cast<std::size_t>(checked)});
  }
  return ops;
}

// ---- per-layer (traced) pass ----

struct TracePlan {
  double world_s;  ///< each of the untraced and the traced PIOMan world
  double rung_s;   ///< each ladder rung
  int span_ops;    ///< ops per rung recorded whole into the trace file
};

Ops run_trace(const Spec& spec, const TracePlan& plan, uint64_t seed,
              Tracer& tracer, std::vector<Metric>& out) {
  Ops ops;
  const auto add = [&](const char* name, double value, const char* unit,
                       std::size_t samples) {
    out.push_back({name, value, unit, "none", samples});
  };

  // Untraced PIOMan world: the reference for the trace overhead and for
  // what background progression adds over the caller-driven engine.
  double untraced_p50 = 0;
  {
    mpi::World world(world_config(spec, mpi::EngineKind::kPioman));
    touch_progress();
    const WorldRun run = run_world(spec, world, Budget::for_seconds(plan.world_s),
                                   seed, nullptr);
    untraced_p50 = median(run.op_us);
    ops.add(run.attempted, run.failed);
  }

  // Traced PIOMan world: spans, library counters, util::trace events.
  double traced_p50 = 0;
  {
    WorldRun run;
    Counters c0, c1;
    Usage du;
    double threads = 0;
    util::trace::reset();
    util::trace::enable();
    {
      mpi::World world(world_config(spec, mpi::EngineKind::kPioman));
      touch_progress();
      c0 = read_counters(world, spec);
      const Usage u0 = Usage::now();
      run = run_world(spec, world, Budget::for_seconds(plan.world_s), seed,
                      &tracer);
      du = Usage::now() - u0;
      c1 = read_counters(world, spec);
      threads = proc_status("Threads");
    }
    // Collect only once the world is gone: the trace rings are not meant
    // to be read while their threads still record.
    util::trace::disable();
    tracer.set_runtime_events(util::trace::collect());
    traced_p50 = median(run.op_us);
    ops.add(run.attempted, run.failed);

    const auto msgs = static_cast<double>(run.msgs);
    const std::size_t n = run.msgs;
    const nmad::GateStats& g0 = c0.gate;
    const nmad::GateStats& g1 = c1.gate;
    const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    add("transport.packets_per_msg", ratio(c1.packets - c0.packets, msgs),
        "count", n);
    add("transport.bytes_per_msg", ratio(c1.bytes - c0.bytes, msgs), "B", n);
    // Messages per data packet: 1 without aggregation, more when kPack
    // packets carry several eager messages.
    const double sent = d(g1.eager_sent, g0.eager_sent) + d(g1.rdv_sent, g0.rdv_sent);
    const double packets = sent - d(g1.msgs_packed, g0.msgs_packed) +
                           d(g1.packs_sent, g0.packs_sent);
    add("nmad.msgs_per_pack", ratio(sent, packets), "count", n);
    add("nmad.unexpected_frac",
        ratio(d(g1.unexpected_eager, g0.unexpected_eager) +
                  d(g1.unexpected_rts, g0.unexpected_rts),
              d(g1.eager_recv, g0.eager_recv) + d(g1.rdv_recv, g0.rdv_recv)),
        "ratio", n);
    add("nmad.bucket_hits_per_msg",
        ratio(d(g1.match_bucket_hits, g0.match_bucket_hits), msgs), "count", n);
    add("nmad.posted_depth_hw", static_cast<double>(g1.posted_depth_hw), "count", n);
    add("nmad.unexpected_depth_hw", static_cast<double>(g1.unexpected_depth_hw),
        "count", n);
    const double misses = d(g1.pw_pool_misses, g0.pw_pool_misses) +
                          d(g1.match_pool_misses, g0.match_pool_misses);
    const double hits = d(g1.pw_pool_hits, g0.pw_pool_hits) +
                        d(g1.match_pool_hits, g0.match_pool_hits);
    add("nmad.pool_miss_frac", ratio(misses, misses + hits), "ratio", n);
    add("nmad.reorder_frac", ratio(static_cast<double>(run.reordered), msgs),
        "ratio", n);

    std::vector<double> post = tracer.durations_ns(SpanName::kMpiIsend);
    for (const SpanName s : {SpanName::kMpiIrecv, SpanName::kMpiIallreduce}) {
      const std::vector<double> more = tracer.durations_ns(s);
      post.insert(post.end(), more.begin(), more.end());
    }
    // Completion: blocking waits, or msgrate's test() polling loops.
    std::vector<double> wait = tracer.durations_ns(SpanName::kMpiWait);
    const std::vector<double> tests = tracer.durations_ns(SpanName::kMpiTest);
    wait.insert(wait.end(), tests.begin(), tests.end());
    add("mpi.post_p50_ns", median(post), "ns", post.size());
    add("mpi.complete_p50_us", median(wait) * 1e-3, "us", wait.size());
    add("mpi.gates_per_rank", c1.gates / spec.nranks, "count",
        static_cast<std::size_t>(spec.nranks));

    // Poll-task runs: task runs beyond the one-shot submission tasks.
    const double submissions = c1.submissions - c0.submissions;
    const double tasks = c1.tasks_run - c0.tasks_run;
    add("core.polls_per_msg", ratio(std::max(0.0, tasks - submissions), msgs),
        "count", n);
    add("core.tasks_per_schedule",
        ratio(tasks, c1.schedule_calls - c0.schedule_calls), "ratio", n);
    add("core.submissions_per_msg", ratio(submissions, msgs), "count", n);
    add("sched.vol_csw_per_msg", ratio(du.vol_csw, msgs), "count", n);
    add("sched.invol_csw_per_msg", ratio(du.invol_csw, msgs), "count", n);
    add("sched.threads", threads, "count", 1);
  }
  add("trace.overhead_pct", ratio(traced_p50 - untraced_p50, untraced_p50) * 100,
      "%", 2);

  // The ladder: the same op, one layer lower each rung.
  const RungRun tr =
      run_transport_rung(spec, Budget::for_seconds(plan.rung_s), seed, nullptr);
  ops.add(tr.attempted, tr.failed);
  const RungRun nr =
      run_nmad_rung(spec, Budget::for_seconds(plan.rung_s), seed, nullptr);
  ops.add(nr.attempted, nr.failed);
  WorldRun mr;
  {
    mpi::World world(world_config(spec, mpi::EngineKind::kMvapichLike));
    touch_progress();
    mr = run_world(spec, world, Budget::for_seconds(plan.rung_s), seed, nullptr);
    ops.add(mr.attempted, mr.failed);
  }
  const double mpi_p50 = median(mr.op_us);
  add("transport.op_us", median(tr.op_us), "us", tr.op_us.size());
  add("nmad.op_us", median(nr.op_us), "us", nr.op_us.size());
  add("mpi.op_us", mpi_p50, "us", mr.op_us.size());
  add("sched.progress_self_us", untraced_p50 - mpi_p50, "us", mr.op_us.size());

  // A short spanned sample of the caller-pumped rungs, for the file only.
  SpanBuf* ladder = tracer.thread_buf(Tracer::kLadderPid);
  const RungRun ts = run_transport_rung(spec, Budget::for_ops(plan.span_ops), seed,
                                        ladder);
  const RungRun ns = run_nmad_rung(spec, Budget::for_ops(plan.span_ops), seed,
                                   ladder);
  ops.add(ts.attempted + ns.attempted, ts.failed + ns.failed);
  return ops;
}

// ---- command line and main ----

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "piom_bench: %s\nusage: piom_bench [--workload <name>] [--seed N] "
               "[--seconds S] [--json out.json] [--trace trace.json] [--smoke]\n"
               "workloads:",
               why);
  for (const Spec& s : specs()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Strict numeric flags: junk must not silently become a default.
template <typename T, typename Conv>
T number_arg(int argc, char** argv, const char* flag, T fallback, Conv conv) {
  const std::string text = util::arg_value(argc, argv, flag);
  if (text.empty()) return fallback;
  std::size_t used = 0;
  T value{};
  try {
    value = conv(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    usage(("bad value for --" + std::string(flag) + ": '" + text + "'").c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    bool known = a == "--smoke";
    for (const char* key : {"--workload", "--seed", "--seconds", "--json", "--trace"}) {
      if (a == key) ++i;  // the value follows
      known = known || a == key || a.rfind(std::string(key) + "=", 0) == 0;
    }
    if (!known) usage(("unknown argument '" + a + "'").c_str());
  }
  const bool smoke = util::arg_flag(argc, argv, "smoke") || bench::quick_mode(argc, argv);
  const uint64_t seed = number_arg<uint64_t>(
      argc, argv, "seed", 20091,
      [](const std::string& t, std::size_t* used) { return std::stoull(t, used); });
  const double seconds = number_arg<double>(
      argc, argv, "seconds", 24.0,
      [](const std::string& t, std::size_t* used) { return std::stod(t, used); });
  if (!(seconds > 0 && seconds <= 600)) usage("--seconds must be in (0, 600]");
  const std::string trace_path = util::arg_value(argc, argv, "trace");
  const bool trace = !trace_path.empty();
  std::vector<const Spec*> chosen;
  const std::string wname = util::arg_value(argc, argv, "workload");
  if (wname.empty()) {
    for (const Spec& s : specs()) chosen.push_back(&s);
  } else if (const Spec* s = find_spec(wname)) {
    chosen.push_back(s);
  } else {
    usage(("unknown workload '" + wname + "'").c_str());
  }

  // Environment guard: measurements refuse behaviour-changing variables;
  // a smoke run reports them and carries on.
  std::string env_set;
  for (const char* var : kBehaviourEnv) {
    if (std::getenv(var) != nullptr) {
      env_set += std::string(env_set.empty() ? "" : ", ") + var + "=" + std::getenv(var);
    }
  }
  if (!env_set.empty()) {
    if (!smoke) {
      std::fprintf(stderr,
                   "piom_bench: refusing to measure with behaviour-changing "
                   "environment set: %s\n(unset them, or use --smoke)\n",
                   env_set.c_str());
      return 2;
    }
    std::printf("warning: smoke run with %s\n", env_set.c_str());
  }

  const char* commit_env = std::getenv("PIOM_BENCH_COMMIT");
  const std::string commit = commit_env != nullptr ? commit_env : "unrecorded";
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string model = cpu_model();
  const char* mode = trace ? "trace" : "measure";
  std::printf("piom_bench: mode=%s%s seed=%llu seconds=%g nproc=%u cpu=\"%s\" "
              "commit=%s workers_per_rank=1\n",
              mode, smoke ? " (smoke)" : "", static_cast<unsigned long long>(seed),
              seconds, nproc, model.c_str(), commit.c_str());
  std::fflush(stdout);

  g_out.report = std::make_unique<bench::JsonReport>("piom_bench", argc, argv);
  {
    std::lock_guard<std::mutex> lk(g_out.lock);
    g_out.report->row()
        .str("kind", "meta")
        .str("mode", mode)
        .num("smoke", smoke ? 1 : 0)
        .str("seed", std::to_string(seed))
        .num("seconds", seconds)
        .num("nproc", nproc)
        .str("cpu_model", model)
        .str("commit", commit)
        .num("workers_per_rank", 1)
        .str("env", env_set);
  }

  // Watchdog: a stuck op fails the run with the JSON gathered so far.
  std::atomic<bool> finished{false};
  touch_progress();
  std::thread watchdog([&] {
    while (!finished.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const int64_t idle_ms =
          (util::now_ns() - g_last_progress_ns.load(std::memory_order_relaxed)) / 1000000;
      if (idle_ms < kWatchdogMs) continue;
      std::fprintf(stderr, "piom_bench: watchdog: no op completed for %lld ms\n",
                   static_cast<long long>(idle_ms));
      std::lock_guard<std::mutex> lk(g_out.lock);
      g_out.report->row().str("kind", "watchdog").num("failed", 1);
      g_out.report->write();
      std::fflush(stdout);
      std::_Exit(3);
    }
  });

  bool complete = true;
  uint64_t failed = 0;
  std::vector<std::unique_ptr<Tracer>> tracers;
  try {
    for (std::size_t wi = 0; wi < chosen.size(); ++wi) {
      const Spec& spec = *chosen[wi];
      std::printf("\n== %s (%d ranks, %s; op = %s)\n", spec.name, spec.nranks,
                  spec.shmem ? "shmem" : "simnet", spec.op);
      std::fflush(stdout);
      std::vector<Metric> metrics;
      Ops ops;
      if (trace) {
        TracePlan plan{seconds / 5, seconds / 5, 200};
        if (smoke) plan = {0.2, 0.2, 20};
        tracers.push_back(
            std::make_unique<Tracer>(spec.name, static_cast<int>(wi) * 10));
        ops = run_trace(spec, plan, seed, *tracers.back(), metrics);
      } else {
        E2EPlan plan{100, 24, seconds / 24};
        if (smoke) plan = {5, 1, 0.3};
        ops = run_e2e(spec, plan, seed, metrics);
      }
      for (const Metric& m : metrics) {
        print_metric(m);
        g_out.metric(spec.name, m);
      }
      std::printf("  ops: attempted=%llu failed=%llu\n",
                  static_cast<unsigned long long>(ops.attempted),
                  static_cast<unsigned long long>(ops.failed));
      g_out.ops(spec.name, ops);
      failed += ops.failed;
    }
    if (trace) {
      std::vector<const Tracer*> all;
      for (const auto& t : tracers) all.push_back(t.get());
      if (!Tracer::write_chrome(trace_path, all)) {
        std::fprintf(stderr, "piom_bench: cannot write %s\n", trace_path.c_str());
        complete = false;
      } else {
        std::printf("\ntrace written to %s\n", trace_path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "piom_bench: %s\n", e.what());
    complete = false;
  }
  finished.store(true, std::memory_order_release);
  watchdog.join();
  {
    std::lock_guard<std::mutex> lk(g_out.lock);
    g_out.report->row().str("kind", "end").num("complete", complete ? 1 : 0);
    g_out.report->write();
  }
  return complete && failed == 0 ? 0 : 1;
}
