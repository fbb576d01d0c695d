#include "perf/simcore_bench.hpp"

#include <chrono>
#include <cstddef>
#include <future>
#include <latch>
#include <vector>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "edge/builders.hpp"
#include "perf/alloc_hook.hpp"
#include "perf/build_info.hpp"
#include "perf/harness.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace scalpel::perf {
namespace {

/// Timed degradation-ladder builds per report (the median is published).
constexpr std::size_t kLadderReps = 15;

/// Busy-waits for `seconds` inside the timed region (gate self-test only).
void spin_for(double seconds) {
  using Clock = std::chrono::steady_clock;
  const auto until =
      Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < until) {
  }
}

/// Holds every worker of `pool` on a gate for its lifetime, so a
/// parallel_for issued meanwhile finds no idle worker and runs every chunk
/// on its calling thread.
class HeldWorkers {
 public:
  explicit HeldWorkers(ThreadPool& pool)
      : started_(static_cast<std::ptrdiff_t>(pool.size())) {
    const std::shared_future<void> gate = release_.get_future().share();
    for (std::size_t w = 0; w < pool.size(); ++w) {
      holding_.push_back(pool.submit([this, gate] {
        started_.count_down();
        gate.wait();
      }));
    }
    started_.wait();
  }
  ~HeldWorkers() {
    release_.set_value();
    for (auto& f : holding_) f.wait();
  }
  HeldWorkers(const HeldWorkers&) = delete;
  HeldWorkers& operator=(const HeldWorkers&) = delete;

 private:
  std::latch started_;
  std::promise<void> release_;
  std::vector<std::future<void>> holding_;
};

Simulator::Options sim_options(const SimcoreBenchConfig& c) {
  Simulator::Options o;
  o.horizon = c.horizon;
  o.warmup = c.warmup;
  o.seed = c.sim_seed;
  return o;
}

/// The non-negotiable bar for publishing a sharded timing: the sharded run
/// reproduced the one-shard run exactly, counters and accumulated floats
/// alike. Bitwise comparison on doubles is deliberate.
bool metrics_bit_identical(const SimMetrics& a, const SimMetrics& b) {
  return a.events_processed == b.events_processed && a.arrived == b.arrived &&
         a.completed_all == b.completed_all && a.failed_all == b.failed_all &&
         a.shed_all == b.shed_all && a.in_flight_end == b.in_flight_end &&
         a.retried == b.retried && a.resteered == b.resteered &&
         a.latency.mean() == b.latency.mean() &&
         a.deadline_satisfaction == b.deadline_satisfaction &&
         a.mean_task_energy == b.mean_task_energy;
}

/// One metro-sweep point: a tiled city of 100-device cells under a light
/// device-only load, run once through the sharded engine. Device-only keeps
/// the per-server share REQUIRE trivially satisfiable at any device count;
/// the epoch barriers (lookahead ≈ cell RTT + backhaul) still run at full
/// cadence, so the sweep measures exactly the sharded loop's scaling.
Json metro_point(const SimcoreBenchConfig& config, std::size_t devices) {
  // Set-up (cluster build, instance, evaluation) is timed once, recorded
  // beside the engine's wall time and never gated.
  const auto setup_start = std::chrono::steady_clock::now();
  clusters::CampusOptions copts;
  copts.num_devices = devices;
  copts.num_servers = 32;
  copts.devices_per_cell = 100;
  copts.cell_rtt = 10e-3;
  copts.mean_arrival_rate = 0.05;
  copts.deadline = 0.0;  // best effort: pure event-loop throughput
  copts.seed = config.cluster_seed;
  const ProblemInstance instance(clusters::campus(copts));

  Decision d;
  d.scheme = "metro-device-only";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  const std::chrono::duration<double> setup =
      std::chrono::steady_clock::now() - setup_start;

  Simulator::Options opts;
  opts.horizon = config.sweep_horizon;
  opts.warmup = 0.0;
  opts.seed = config.sim_seed;
  ShardOptions sopts;
  sopts.shards = config.shards;

  SimMetrics m;
  const Timing t = time_best_of(1, /*warmup_reps=*/0, [&] {
    ShardedSimulator sim(instance, d, opts, sopts);
    m = sim.run();
  });
  SCALPEL_REQUIRE(m.events_processed > 0, "metro point dispatched no events");

  Json p = Json::object();
  p.set("devices", Json::number(static_cast<double>(devices)));
  p.set("cells", Json::number(
                     static_cast<double>(instance.topology().cells().size())));
  p.set("shards", Json::number(static_cast<double>(config.shards)));
  p.set("horizon_seconds", Json::number(config.sweep_horizon));
  p.set("tasks_arrived", Json::number(static_cast<double>(m.arrived)));
  p.set("events", Json::number(static_cast<double>(m.events_processed)));
  p.set("setup_seconds", Json::number(setup.count()));
  p.set("wall_seconds", Json::number(t.best_seconds));
  p.set("events_per_sec",
        Json::number(static_cast<double>(m.events_processed) /
                     t.best_seconds));
  return p;
}

}  // namespace

Json run_simcore_bench(const SimcoreBenchConfig& config) {
  SCALPEL_REQUIRE(config.des_reps > 0 && config.solver_reps > 0,
                  "bench needs at least one rep per section");

  clusters::CampusOptions campus;
  campus.num_devices = config.devices;
  campus.num_servers = config.servers;
  campus.mean_arrival_rate = config.arrival_rate;
  campus.seed = config.cluster_seed;
  const ProblemInstance instance(clusters::campus(campus));

  // --- Solver section: the joint optimizer at the bench configuration the
  // reproduction benches use (bench_common::joint_opts).
  JointOptions jopts;
  jopts.max_iterations = 4;
  jopts.dp_coverage_bins = 60;
  Decision decision;
  JointReport solve_report;
  const Timing solver_t =
      time_best_of(config.solver_reps, /*warmup_reps=*/1, [&] {
        decision = JointOptimizer(jopts).optimize(instance, &solve_report);
      });
  // The same solve on one thread: with every worker of the shared pool
  // held, the surgery step's parallel_for runs all its chunks on this
  // thread. The ratio of the two is the solver's parallel speedup at
  // pool_threads.
  Timing one_thread_t;
  {
    const HeldWorkers held(ThreadPool::shared());
    one_thread_t = time_best_of(config.solver_reps, /*warmup_reps=*/0,
                                [&] { JointOptimizer(jopts).optimize(instance); });
  }

  // --- Ladder: the online controller's degradation ladder built on the
  // solved decision, timed as the median of single builds (the ladder is a
  // few milliseconds, so one build per sample keeps the spread visible).
  Samples ladder_us;
  build_degradation_ladder(instance, decision, jopts);  // warmup
  for (std::size_t r = 0; r < kLadderReps; ++r) {
    const auto l0 = std::chrono::steady_clock::now();
    build_degradation_ladder(instance, decision, jopts);
    ladder_us.add(std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - l0)
                      .count());
  }

  // --- DES section: repeated identical runs; a fixed seed makes every rep
  // bit-identical, so min-of-reps measures the same work each time.
  SimMetrics metrics;
  const Timing des_t = time_best_of(config.des_reps, /*warmup_reps=*/1, [&] {
    Simulator sim(instance, decision, sim_options(config));
    metrics = sim.run();
  });
  SCALPEL_REQUIRE(metrics.events_processed > 0,
                  "bench run dispatched zero events");
  double des_best = des_t.best_seconds;
  if (config.inject_slowdown > 0.0) {
    // Honest slowdown: re-time with a busy-wait proportional to the clean
    // best inside every rep, so the reported number is a real measurement
    // of a genuinely slower loop.
    const double clean_best = des_best;
    const Timing slow_t =
        time_best_of(config.des_reps, /*warmup_reps=*/0, [&] {
          Simulator sim(instance, decision, sim_options(config));
          metrics = sim.run();
          spin_for(clean_best * config.inject_slowdown);
        });
    des_best = slow_t.best_seconds;
  }

  // --- Allocation section: one extra (untimed) run bracketed by the hook's
  // counter. Only meaningful when the counting operator new is linked in.
  double allocs_per_event = -1.0;
  if (alloc_hook_linked()) {
    const std::uint64_t before = alloc_count();
    Simulator sim(instance, decision, sim_options(config));
    metrics = sim.run();
    const std::uint64_t after = alloc_count();
    allocs_per_event = static_cast<double>(after - before) /
                       static_cast<double>(metrics.events_processed);
  }

  // --- Sharded section: the same pinned workload through the cell-sharded
  // engine. Bit-identity with the one-shard run is REQUIREd before the
  // timing is published — a fast-but-wrong shard path must never make the
  // scoreboard.
  SimMetrics sharded_metrics;
  Timing sharded_t{};
  if (config.shards > 0) {
    ShardOptions sopts;
    sopts.shards = config.shards;
    sharded_t = time_best_of(config.des_reps, /*warmup_reps=*/1, [&] {
      ShardedSimulator sim(instance, decision, sim_options(config), sopts);
      sharded_metrics = sim.run();
    });
    SCALPEL_REQUIRE(metrics_bit_identical(metrics, sharded_metrics),
                    "sharded bench run diverged from the one-shard run; "
                    "refusing to publish its timing");
  }

  const double events = static_cast<double>(metrics.events_processed);
  const BuildInfo build = build_info();

  Json report = Json::object();
  report.set("bench", Json::string("simcore"));
  report.set("schema_version",
             Json::number(static_cast<double>(kSimcoreSchemaVersion)));

  Json jbuild = Json::object();
  jbuild.set("optimized", Json::boolean(build.optimized));
  jbuild.set("sanitized", Json::boolean(build.sanitized));
  // The loud flag the gate keys off: numbers from such a build are not
  // comparable to a Release baseline.
  jbuild.set("unoptimized", Json::boolean(!timing_trustworthy()));
  jbuild.set("compiler", Json::string(build.compiler));
  jbuild.set("cpu", Json::string(cpu_fingerprint()));
  report.set("build", std::move(jbuild));

  Json jwork = Json::object();
  jwork.set("devices", Json::number(static_cast<double>(config.devices)));
  jwork.set("servers", Json::number(static_cast<double>(config.servers)));
  jwork.set("arrival_rate", Json::number(config.arrival_rate));
  jwork.set("horizon_seconds", Json::number(config.horizon));
  jwork.set("warmup_seconds", Json::number(config.warmup));
  jwork.set("cluster_seed",
            Json::number(static_cast<double>(config.cluster_seed)));
  jwork.set("sim_seed", Json::number(static_cast<double>(config.sim_seed)));
  jwork.set("shards", Json::number(static_cast<double>(config.shards)));
  jwork.set("injected_slowdown", Json::number(config.inject_slowdown));
  report.set("workload", std::move(jwork));

  Json jdes = Json::object();
  jdes.set("reps", Json::number(static_cast<double>(config.des_reps)));
  jdes.set("events", Json::number(events));
  jdes.set("tasks_arrived",
           Json::number(static_cast<double>(metrics.arrived)));
  jdes.set("tasks_completed",
           Json::number(static_cast<double>(metrics.completed)));
  jdes.set("best_seconds", Json::number(des_best));
  jdes.set("events_per_sec", Json::number(events / des_best));
  jdes.set("ns_per_event", Json::number(des_best * 1e9 / events));
  jdes.set("alloc_hook", Json::boolean(alloc_hook_linked()));
  jdes.set("allocs_per_event", Json::number(allocs_per_event));

  Json jsolver = Json::object();
  jsolver.set("reps", Json::number(static_cast<double>(config.solver_reps)));
  jsolver.set("best_seconds", Json::number(solver_t.best_seconds));
  jsolver.set("us_per_solve", Json::number(solver_t.best_seconds * 1e6));
  jsolver.set("pool_threads",
              Json::number(static_cast<double>(ThreadPool::shared().size())));
  jsolver.set("one_thread_us_per_solve",
              Json::number(one_thread_t.best_seconds * 1e6));
  jsolver.set("ladder_us_per_build", Json::number(ladder_us.p50()));
  // Exact work: the labels the surgery DPs folded in one solve.
  jsolver.set("dp_labels",
              Json::number(static_cast<double>(solve_report.dp_labels)));

  Json jresults = Json::object();
  jresults.set("des", std::move(jdes));
  jresults.set("solver", std::move(jsolver));

  if (config.shards > 0) {
    const double sev = static_cast<double>(sharded_metrics.events_processed);
    Json jshard = Json::object();
    jshard.set("shards", Json::number(static_cast<double>(config.shards)));
    jshard.set("reps", Json::number(static_cast<double>(config.des_reps)));
    jshard.set("events", Json::number(sev));
    jshard.set("best_seconds", Json::number(sharded_t.best_seconds));
    jshard.set("events_per_sec",
               Json::number(sev / sharded_t.best_seconds));
    jshard.set("ns_per_event",
               Json::number(sharded_t.best_seconds * 1e9 / sev));
    // Always true when present: the REQUIRE above already enforced it. The
    // key documents the contract in the artifact itself.
    jshard.set("bit_identical", Json::boolean(true));
    jresults.set("sharded", std::move(jshard));
  }

  if (config.sweep_max_devices > 0) {
    SCALPEL_REQUIRE(config.shards > 0,
                    "the metro sweep runs the sharded engine; set shards");
    Json sweep = Json::array();
    for (const std::size_t div : {100u, 10u, 1u}) {
      const std::size_t devices = config.sweep_max_devices / div;
      if (devices == 0) continue;
      sweep.push_back(metro_point(config, devices));
    }
    jresults.set("metro_sweep", std::move(sweep));
  }

  report.set("results", std::move(jresults));
  return report;
}

}  // namespace scalpel::perf
