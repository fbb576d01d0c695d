// Shard x thread determinism matrix of the event engine: for any shard
// count and any worker-thread count, ShardedSimulator must reproduce the
// one-shard run (Simulator) BIT-IDENTICALLY — every SimMetrics field, the
// merged metrics registry, the reconciled trace stream, the recorded time
// series, conservation counters, and events_processed. Scenarios are shaped like the paper
// benches (F4 arrival sweep, F16 fault schedules, F17 overload) plus the
// cross-shard-specific paths: online replans, admission changes, and tasks
// in flight across epoch barriers and the horizon.

#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

const std::size_t kShardCounts[] = {1, 2, 4, 8};
const std::size_t kThreadCounts[] = {1, 2, 8};

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

/// Multi-cell campus with few devices per cell, so 4 distinct shards exist
/// and most offloads cross a shard boundary.
ProblemInstance sharded_campus(std::uint64_t seed, double rate,
                               std::size_t num_devices = 8,
                               std::size_t num_servers = 3) {
  clusters::CampusOptions copts;
  copts.seed = seed;
  copts.num_devices = num_devices;
  copts.num_servers = num_servers;
  copts.devices_per_cell = 2;
  copts.mean_arrival_rate = rate;
  return ProblemInstance(clusters::campus(copts));
}

Decision offload_decision(const ProblemInstance& instance, double share,
                          double bw) {
  Decision d;
  d.scheme = "test_offload";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = share;
    dd.bandwidth = bw;
  }
  evaluate_decision(instance, d);
  return d;
}

Decision local_decision(const ProblemInstance& instance) {
  Decision d;
  d.scheme = "test_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  return d;
}

void expect_samples_identical(const Samples& a, const Samples& b) {
  ASSERT_EQ(a.count(), b.count());
  const auto& va = a.values();
  const auto& vb = b.values();
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i], vb[i]) << "sample " << i;  // bitwise, not approximate
  }
}

/// Every field of SimMetrics, bit-for-bit (EXPECT_EQ on doubles is exact on
/// purpose — the bar is "identical", not "close").
void expect_metrics_identical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.resteered, b.resteered);
  EXPECT_EQ(a.completed_all, b.completed_all);
  EXPECT_EQ(a.failed_all, b.failed_all);
  EXPECT_EQ(a.shed_all, b.shed_all);
  EXPECT_EQ(a.in_flight_end, b.in_flight_end);
  EXPECT_EQ(a.deadline_satisfaction, b.deadline_satisfaction);
  EXPECT_EQ(a.measured_accuracy, b.measured_accuracy);
  EXPECT_EQ(a.mean_task_energy, b.mean_task_energy);
  EXPECT_EQ(a.offload_fraction, b.offload_fraction);
  EXPECT_EQ(a.availability, b.availability);
  expect_samples_identical(a.latency, b.latency);
  expect_samples_identical(a.outage_latency, b.outage_latency);
  ASSERT_EQ(a.server_utilization.size(), b.server_utilization.size());
  for (std::size_t s = 0; s < a.server_utilization.size(); ++s) {
    EXPECT_EQ(a.server_utilization[s], b.server_utilization[s]) << "srv " << s;
  }
  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    const auto& da = a.per_device[i];
    const auto& db = b.per_device[i];
    EXPECT_EQ(da.arrived, db.arrived) << "device " << i;
    EXPECT_EQ(da.completed, db.completed) << "device " << i;
    EXPECT_EQ(da.failed, db.failed) << "device " << i;
    EXPECT_EQ(da.shed, db.shed) << "device " << i;
    EXPECT_EQ(da.expired, db.expired) << "device " << i;
    EXPECT_EQ(da.retries, db.retries) << "device " << i;
    EXPECT_EQ(da.resteered, db.resteered) << "device " << i;
    EXPECT_EQ(da.deadline_met, db.deadline_met) << "device " << i;
    EXPECT_EQ(da.deadline_total, db.deadline_total) << "device " << i;
    EXPECT_EQ(da.accuracy_sum, db.accuracy_sum) << "device " << i;
    EXPECT_EQ(da.energy_sum, db.energy_sum) << "device " << i;
    EXPECT_EQ(da.offloaded, db.offloaded) << "device " << i;
    EXPECT_EQ(da.exit_histogram, db.exit_histogram) << "device " << i;
    expect_samples_identical(da.latency, db.latency);
  }
}

/// Every retained row of both recorders, bitwise — column layout included.
void expect_series_identical(const TimeSeriesRecorder& a,
                             const TimeSeriesRecorder& b) {
  ASSERT_EQ(a.columns(), b.columns());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.dropped(), b.dropped());
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t c = 0; c < a.columns().size(); ++c) {
      ASSERT_EQ(a.value(r, c), b.value(r, c))
          << "row " << r << " col " << a.columns()[c];
    }
  }
}

/// Merged registry vs. one-shard registry: same counter/gauge key sets,
/// same values; the latency histogram agrees in mass and quantiles.
void expect_registries_identical(const MetricsRegistry& a,
                                 const MetricsRegistry& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  auto ib = b.counters().begin();
  for (const auto& [name, ctr] : a.counters()) {
    EXPECT_EQ(name, ib->first);
    EXPECT_EQ(ctr.value(), ib->second.value()) << "counter " << name;
    ++ib;
  }
  ASSERT_EQ(a.gauges().size(), b.gauges().size());
  auto gb = b.gauges().begin();
  for (const auto& [name, g] : a.gauges()) {
    EXPECT_EQ(name, gb->first);
    EXPECT_EQ(g.value(), gb->second.value()) << "gauge " << name;
    ++gb;
  }
  const auto& ha = a.histograms();
  const auto& hb = b.histograms();
  ASSERT_EQ(ha.size(), hb.size());
  auto hbi = hb.begin();
  for (const auto& [name, h] : ha) {
    EXPECT_EQ(name, hbi->first);
    EXPECT_EQ(h.total(), hbi->second.total()) << "histogram " << name;
    EXPECT_EQ(h.p50(), hbi->second.p50()) << "histogram " << name;
    EXPECT_EQ(h.p99(), hbi->second.p99()) << "histogram " << name;
    ++hbi;
  }
}

struct ShardHooks {
  std::vector<double> admission;
  ObservingController controller;
};

/// Runs the scenario at one shard, then across the full shard x thread
/// matrix, and holds every run to the one-shard run's exact outputs. With
/// opts.obs_interval set, every run also records its engine series into a
/// fresh TimeSeriesRecorder, compared row for row.
void expect_shard_equivalence(const ProblemInstance& instance,
                              const Decision& d, Simulator::Options opts,
                              const ShardHooks& hooks = {}) {
  opts.trace_capacity = 1 << 18;  // ample: no ring drops, full stream compare
  const bool recording = opts.obs_interval > 0.0;

  TimeSeriesRecorder ref_rec;
  if (recording) opts.recorder = &ref_rec;
  Simulator ref(instance, d, opts);
  if (!hooks.admission.empty()) ref.set_admission(hooks.admission);
  if (hooks.controller) ref.set_controller(hooks.controller);
  const SimMetrics ref_m = ref.run();
  const std::vector<TraceEvent> ref_trace =
      reconcile_trace(ref.trace().snapshot());
  EXPECT_EQ(ref.trace().dropped(), 0u) << "ring too small for scenario";

  for (const std::size_t shards : kShardCounts) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ShardOptions sopts;
      sopts.shards = shards;
      sopts.threads = threads;
      TimeSeriesRecorder rec;
      Simulator::Options run_opts = opts;
      if (recording) run_opts.recorder = &rec;
      ShardedSimulator sim(instance, d, run_opts, sopts);
      if (!hooks.admission.empty()) sim.set_admission(hooks.admission);
      if (hooks.controller) sim.set_controller(hooks.controller);
      const SimMetrics m = sim.run();
      expect_metrics_identical(ref_m, m);
      if (recording) expect_series_identical(ref_rec, rec);
      expect_registries_identical(ref.registry(), sim.registry());
      const std::vector<TraceEvent> trace = sim.trace_events();
      ASSERT_EQ(ref_trace.size(), trace.size());
      for (std::size_t i = 0; i < ref_trace.size(); ++i) {
        ASSERT_TRUE(ref_trace[i] == trace[i]) << "trace event " << i;
      }
    }
  }
}

class ShardEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

// F4-shaped: plain arrival sweep over an optimized decision, recorder on.
TEST_P(ShardEquivalenceTest, ArrivalSweepBitIdentical) {
  const std::uint64_t seed = GetParam();
  const ProblemInstance instance =
      sharded_campus(seed, 1.0 + 1.5 * static_cast<double>(seed % 4));
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  Simulator::Options opts;
  opts.horizon = 12.0;
  opts.warmup = 1.0;
  opts.seed = seed;
  opts.obs_interval = 1.0;
  expect_shard_equivalence(instance, d, opts);
}

// F16-shaped: server/link outages under each fault policy — fault sweeps
// reorder queues, migrate victims home across shards, and clear fluid state.
TEST_P(ShardEquivalenceTest, FaultScheduleBitIdentical) {
  const std::uint64_t seed = GetParam();
  const ProblemInstance instance = sharded_campus(seed, 2.0, 6, 2);
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  Simulator::Options opts;
  opts.horizon = 12.0;
  opts.warmup = 1.0;
  opts.seed = seed;
  std::vector<FaultEvent> events;
  events.push_back({3.0, FaultTarget::Server, 0, false});
  events.push_back({5.5, FaultTarget::Server, 0, true});
  events.push_back({7.0, FaultTarget::Link, 0, false});
  events.push_back({9.0, FaultTarget::Link, 0, true});
  opts.faults.schedule = FaultSchedule(events);
  const FaultPolicy policies[] = {FaultPolicy::Drop,
                                  FaultPolicy::RetryOnDevice,
                                  FaultPolicy::RetryOffload};
  opts.faults.policy = policies[seed % 3];
  expect_shard_equivalence(instance, d, opts);
}

// F17-shaped: bounded queues, shedding, a scripted rate burst, MMPP arrival
// modulation and an admission gate — heavy victim selection and gate RNG.
TEST_P(ShardEquivalenceTest, OverloadBitIdentical) {
  const std::uint64_t seed = GetParam();
  const ProblemInstance instance = sharded_campus(seed, 2.5, 6, 2);
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  Simulator::Options opts;
  opts.horizon = 10.0;
  opts.warmup = 1.0;
  opts.seed = seed;
  opts.obs_interval = 0.5;
  opts.burst_factor = 0.4;
  const OverloadPolicy policies[] = {OverloadPolicy::Block,
                                     OverloadPolicy::ShedNewest,
                                     OverloadPolicy::ShedExpired};
  opts.overload.policy = policies[seed % 3];
  opts.overload.device_queue_limit = 3;
  opts.overload.upload_queue_limit = 2;
  opts.overload.server_queue_limit = 2;
  opts.rate_bursts.push_back(RateBurst{3.0, 6.0, 4.0});

  ShardHooks hooks;
  for (std::size_t i = 0; i < instance.topology().devices().size(); ++i) {
    hooks.admission.push_back(0.5 + 0.05 * static_cast<double>(i));
  }
  expect_shard_equivalence(instance, d, opts, hooks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceTest,
                         ::testing::Values(3, 17, 42, 99));

// Online replanning: a controller that alternates every device between
// offload and device-only and tightens admission — the controller runs in
// the serial phase, and replans retarget in-flight chains across shards.
TEST(ShardEquivalence, ControllerReplanBitIdentical) {
  const ProblemInstance instance = sharded_campus(7, 2.0);
  const Decision d_off = offload_decision(instance, 0.1, mbps(40.0));
  const Decision d_loc = local_decision(instance);

  Simulator::Options opts;
  opts.horizon = 10.0;
  opts.warmup = 1.0;
  opts.seed = 7;
  opts.control_interval = 0.75;
  opts.obs_interval = 0.75;

  ShardHooks hooks;
  hooks.controller = [d_off, d_loc](const Observation& o) {
    ControlAction a;
    const bool odd = static_cast<int>(o.time / 0.75 + 0.5) % 2 != 0;
    a.decision = odd ? d_loc : d_off;
    std::vector<double> gate(o.queue_depth.size());
    for (std::size_t i = 0; i < gate.size(); ++i) {
      gate[i] = o.queue_depth[i] > 4.0 ? 0.6 : 1.0;
    }
    a.admit_fraction = std::move(gate);
    return a;
  };
  expect_shard_equivalence(instance, offload_decision(instance, 0.1, mbps(40.0)),
                           opts, hooks);
}

// Telemetry impairment in the loop: the channel delays, drops, perturbs,
// quantizes, and flips what the controller sees. The channel is sampled only
// in the serial phase on seed-derived substreams, so a stateless controller
// fed impaired readings must still be bit-identical across the matrix.
TEST(ShardEquivalence, AdverseTelemetryChannelBitIdentical) {
  const ProblemInstance instance = sharded_campus(19, 2.0);
  const Decision d_off = offload_decision(instance, 0.1, mbps(40.0));
  const Decision d_loc = local_decision(instance);

  Simulator::Options opts;
  opts.horizon = 10.0;
  opts.warmup = 1.0;
  opts.seed = 19;
  opts.control_interval = 0.75;
  opts.obs_interval = 0.75;
  opts.telemetry.delay = 0.5;
  opts.telemetry.drop_prob = 0.2;
  opts.telemetry.noise_sigma = 0.3;
  opts.telemetry.quantum = mbps(1.0);
  opts.telemetry.flip_prob = 0.1;

  ShardHooks hooks;
  // Stateless policy, but keyed off the *impaired* readings: noise and
  // liveness flips steer the replans, so any divergence in what the channel
  // delivered shows up as divergent decisions and fails the bit-compare.
  hooks.controller = [d_off, d_loc](const Observation& o) {
    ControlAction a;
    double sum = 0.0;
    for (const double v : o.cell_bandwidth) sum += v / mbps(1.0);
    bool any_down = false;
    for (const bool up : o.server_alive) any_down = any_down || !up;
    a.decision = (any_down || std::fmod(sum, 2.0) < 1.0) ? d_loc : d_off;
    return a;
  };
  expect_shard_equivalence(instance, d_off, opts, hooks);
}

// The full hardened stack end-to-end: channel impairments -> Observation
// freshness metadata -> sanitizer -> watchdog-guarded re-solves, with a
// FRESH stateful OnlineController per run. Decisions, metrics, and the
// controller's own audit trail must be bit-identical across the matrix.
TEST(ShardEquivalence, HardenedOnlineControllerBitIdentical) {
  const ProblemInstance instance = sharded_campus(5, 2.0, 6, 2);
  const Decision d = JointOptimizer(fast_opts()).optimize(instance);

  OnlineController::Options copts;
  copts.hysteresis = 0.25;
  copts.joint = fast_opts();
  copts.robustness.sanitizer.confirm_windows = 2;
  copts.robustness.sanitizer.outlier_band = 0.8;
  copts.robustness.sanitizer.median_window = 3;
  copts.robustness.sanitizer.max_age = 3.0;
  copts.robustness.sanitizer.flap_threshold = 3;

  Simulator::Options opts;
  opts.horizon = 10.0;
  opts.warmup = 1.0;
  opts.seed = 5;
  opts.control_interval = 1.0;
  opts.trace_capacity = 1 << 18;
  opts.telemetry.delay = 0.5;
  opts.telemetry.drop_prob = 0.25;
  opts.telemetry.noise_sigma = 0.25;
  opts.telemetry.flip_prob = 0.15;

  OnlineController ref_ctl(instance.topology(), copts);
  Simulator ref(instance, d, opts);
  ref.set_controller(ref_ctl.callback());
  const SimMetrics ref_m = ref.run();
  const std::vector<TraceEvent> ref_trace =
      reconcile_trace(ref.trace().snapshot());
  const std::string ref_audit = ref_ctl.audit_log().to_json().dump_pretty();
  // The impairments must actually bite, or this test is a no-op.
  EXPECT_GT(ref_ctl.telemetry_rejections() + ref_ctl.reoptimizations(), 0u);

  for (const std::size_t shards : kShardCounts) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ShardOptions sopts;
      sopts.shards = shards;
      sopts.threads = threads;
      OnlineController ctl(instance.topology(), copts);
      ShardedSimulator sim(instance, d, opts, sopts);
      sim.set_controller(ctl.callback());
      const SimMetrics m = sim.run();
      expect_metrics_identical(ref_m, m);
      expect_registries_identical(ref.registry(), sim.registry());
      const std::vector<TraceEvent> trace = sim.trace_events();
      ASSERT_EQ(ref_trace.size(), trace.size());
      for (std::size_t i = 0; i < ref_trace.size(); ++i) {
        ASSERT_TRUE(ref_trace[i] == trace[i]) << "trace event " << i;
      }
      // The controller saw the same world: same audited decision history.
      EXPECT_EQ(ctl.audit_log().to_json().dump_pretty(), ref_audit);
      EXPECT_EQ(ctl.telemetry_rejections(), ref_ctl.telemetry_rejections());
      EXPECT_EQ(ctl.reoptimizations(), ref_ctl.reoptimizations());
      EXPECT_EQ(ctl.failovers(), ref_ctl.failovers());
    }
  }
}

// The distributed control plane in the loop: per-cell controllers and the
// global coordinator exchanging messages over a lossy, reordering fabric,
// with the coordinator crashing mid-epoch, one cell controller partitioned
// away, and a data-plane server outage forcing per-cell failover solves.
// The plane runs entirely in the serial control phase on dedicated fabric
// substreams, so a FRESH stateful plane per run must reproduce the one-shard
// run bit-identically — metrics, registries, traces, AND the plane's own
// audit trail and protocol counters.
TEST(ShardEquivalence, DistributedControlPlaneBitIdentical) {
  const ProblemInstance instance = sharded_campus(9, 2.0, 8, 3);
  Decision d;
  d.scheme = "seed_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);

  DistributedPlaneOptions popts;
  popts.seed = 9;
  popts.fabric.delay = 0.3;
  popts.fabric.jitter = 1.5;  // > the 1 s control cadence: grants reorder
  popts.fabric.drop_prob = 0.15;
  // Stub cell solver: protocol determinism is under test, not the
  // optimizer. Offloads every member to the first usable server.
  popts.cell.solver = [](const ProblemInstance& sub, const JointOptions&) {
    Decision plan;
    plan.scheme = "stub";
    const auto& topo = sub.topology();
    const auto n = static_cast<double>(topo.devices().size());
    plan.per_device.resize(topo.devices().size());
    for (auto& dd : plan.per_device) {
      dd.plan.partition_after = 0;
      dd.server = 0;
      dd.compute_share = 0.9 / n;
      dd.bandwidth = 0.9 * topo.cell(0).bandwidth / n;
    }
    return plan;
  };
  std::vector<FaultEvent> churn;
  churn.push_back({4.0, FaultTarget::Server, 0, false});  // coordinator dies
  churn.push_back({9.0, FaultTarget::Server, 0, true});   //   ...mid-epoch
  churn.push_back({6.0, FaultTarget::Server, 3, false});  // cell 2 cut off
  churn.push_back({11.0, FaultTarget::Server, 3, true});
  popts.controller_faults = FaultSchedule(churn);

  Simulator::Options opts;
  opts.horizon = 16.0;
  opts.warmup = 1.0;
  opts.seed = 9;
  opts.control_interval = 1.0;
  opts.trace_capacity = 1 << 18;
  opts.faults.schedule = FaultSchedule::server_crash(1, 7.0, 12.0);
  opts.faults.policy = FaultPolicy::RetryOnDevice;

  DistributedControlPlane ref_plane(instance.topology(), popts);
  Simulator ref(instance, d, opts);
  ref.set_controller(ref_plane.callback());
  const SimMetrics ref_m = ref.run();
  const std::vector<TraceEvent> ref_trace =
      reconcile_trace(ref.trace().snapshot());
  const std::string ref_audit =
      ref_plane.audit_log().to_json().dump_pretty();
  // The chaos must actually bite, or this scenario tests nothing.
  EXPECT_EQ(ref_plane.coordinator_crashes(), 1u);
  EXPECT_EQ(ref_plane.controller_crashes(), 1u);
  EXPECT_GT(ref_plane.fabric().dropped(), 0u);
  EXPECT_GT(ref_plane.coordinator_losses(), 0u);
  EXPECT_GT(ref_plane.stale_events(), 0u);

  for (const std::size_t shards : kShardCounts) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ShardOptions sopts;
      sopts.shards = shards;
      sopts.threads = threads;
      DistributedControlPlane plane(instance.topology(), popts);
      ShardedSimulator sim(instance, d, opts, sopts);
      sim.set_controller(plane.callback());
      const SimMetrics m = sim.run();
      expect_metrics_identical(ref_m, m);
      expect_registries_identical(ref.registry(), sim.registry());
      const std::vector<TraceEvent> trace = sim.trace_events();
      ASSERT_EQ(ref_trace.size(), trace.size());
      for (std::size_t i = 0; i < ref_trace.size(); ++i) {
        ASSERT_TRUE(ref_trace[i] == trace[i]) << "trace event " << i;
      }
      // The plane saw the same world: same protocol history, bit for bit.
      EXPECT_EQ(plane.audit_log().to_json().dump_pretty(), ref_audit);
      EXPECT_EQ(plane.plan_changes(), ref_plane.plan_changes());
      EXPECT_EQ(plane.local_solves(), ref_plane.local_solves());
      EXPECT_EQ(plane.epochs_rejected(), ref_plane.epochs_rejected());
      EXPECT_EQ(plane.stale_events(), ref_plane.stale_events());
      EXPECT_EQ(plane.dead_letters(), ref_plane.dead_letters());
      EXPECT_EQ(plane.coordinator_losses(), ref_plane.coordinator_losses());
      EXPECT_EQ(plane.rejoins(), ref_plane.rejoins());
      EXPECT_EQ(plane.fabric().sent(), ref_plane.fabric().sent());
      EXPECT_EQ(plane.fabric().dropped(), ref_plane.fabric().dropped());
    }
  }
}

TEST(ShardEquivalence, ObservabilityPipelineBitIdentical) {
  // The full observability stack at once — causal span tracing on a lossy
  // control fabric, the time-series recorder fed engine counters plus the
  // plane's registered sources, and SLO burn-rate alerting writing into the
  // shared audit log. Everything it emits must be bit-identical between the
  // one-shard run and every shard x thread configuration: the sharded engine
  // samples at epoch barriers laid on the same exact time grid.
  const ProblemInstance instance = sharded_campus(9, 2.5, 8, 3);
  Decision d;
  d.scheme = "seed_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);

  DistributedPlaneOptions popts;
  popts.seed = 9;
  popts.fabric.delay = 0.3;
  popts.fabric.jitter = 1.5;
  popts.fabric.drop_prob = 0.15;
  popts.span_capacity = 1 << 14;
  popts.cell.solver = [](const ProblemInstance& sub, const JointOptions&) {
    Decision plan;
    plan.scheme = "stub";
    const auto& topo = sub.topology();
    const auto n = static_cast<double>(topo.devices().size());
    plan.per_device.resize(topo.devices().size());
    for (auto& dd : plan.per_device) {
      dd.plan.partition_after = 0;
      dd.server = 0;
      dd.compute_share = 0.9 / n;
      dd.bandwidth = 0.9 * topo.cell(0).bandwidth / n;
    }
    return plan;
  };
  std::vector<FaultEvent> churn;
  churn.push_back({4.0, FaultTarget::Server, 0, false});
  churn.push_back({9.0, FaultTarget::Server, 0, true});
  popts.controller_faults = FaultSchedule(churn);

  Simulator::Options opts;
  opts.horizon = 16.0;
  opts.warmup = 1.0;
  opts.seed = 9;
  opts.control_interval = 1.0;
  opts.trace_capacity = 1 << 18;
  opts.obs_interval = 0.5;
  opts.faults.schedule = FaultSchedule::server_crash(1, 7.0, 12.0);
  opts.faults.policy = FaultPolicy::RetryOnDevice;

  SloSpec spec;
  spec.name = "deadline";
  spec.good = "sim.deadline_met";
  spec.total = "sim.deadline_total";
  spec.objective = 0.9;
  spec.windows = {{4.0, 1.0}, {12.0, 0.5}};

  // Fresh plane + recorder + monitor per run: registered sources close over
  // the plane, and the audit log is shared between plane and SLO monitor.
  DistributedControlPlane ref_plane(instance.topology(), popts);
  TimeSeriesRecorder ref_rec(1 << 10);
  ref_plane.register_sources(ref_rec);
  SloMonitor ref_slo(&ref_rec, &ref_plane.audit_log());
  ref_slo.add(spec);
  Simulator::Options ref_opts = opts;
  ref_opts.recorder = &ref_rec;
  ref_opts.slo = &ref_slo;
  Simulator ref(instance, d, ref_opts);
  ref.set_controller(ref_plane.callback());
  const SimMetrics ref_m = ref.run();
  const auto ref_spans = ref_plane.ctrl_trace().snapshot();
  const std::string ref_audit =
      ref_plane.audit_log().to_json().dump_pretty();
  // The scenario must actually exercise the pipeline under test.
  EXPECT_GT(ref_rec.size(), 0u);
  EXPECT_GT(ref_spans.size(), 0u);
  EXPECT_GT(ref_plane.fabric().dropped(), 0u);

  for (const std::size_t shards : kShardCounts) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ShardOptions sopts;
      sopts.shards = shards;
      sopts.threads = threads;
      DistributedControlPlane plane(instance.topology(), popts);
      TimeSeriesRecorder rec(1 << 10);
      plane.register_sources(rec);
      SloMonitor slo(&rec, &plane.audit_log());
      slo.add(spec);
      Simulator::Options run_opts = opts;
      run_opts.recorder = &rec;
      run_opts.slo = &slo;
      ShardedSimulator sim(instance, d, run_opts, sopts);
      sim.set_controller(plane.callback());
      const SimMetrics m = sim.run();
      expect_metrics_identical(ref_m, m);

      // Time series: every row and column, bitwise.
      expect_series_identical(ref_rec, rec);

      // Span stream: same spans in the same order.
      const auto spans = plane.ctrl_trace().snapshot();
      ASSERT_EQ(ref_spans.size(), spans.size());
      for (std::size_t i = 0; i < spans.size(); ++i) {
        ASSERT_TRUE(ref_spans[i] == spans[i]) << "span " << i;
      }

      // SLO alert stream and the audit trail it writes into.
      EXPECT_EQ(slo.alerts_started(), ref_slo.alerts_started());
      EXPECT_EQ(slo.alerts_stopped(), ref_slo.alerts_stopped());
      ASSERT_EQ(slo.specs(), ref_slo.specs());
      for (std::size_t w = 0; w < spec.windows.size(); ++w) {
        EXPECT_EQ(slo.burn_rate(0, w), ref_slo.burn_rate(0, w));
      }
      EXPECT_EQ(plane.audit_log().to_json().dump_pretty(), ref_audit);

      // Published ctrl.* registries agree too.
      MetricsRegistry ref_reg;
      MetricsRegistry reg;
      ref_plane.publish_metrics(ref_reg);
      plane.publish_metrics(reg);
      expect_registries_identical(ref_reg, reg);
    }
  }
}

// Tasks still crossing shards when the run ends: a long-RTT offload whose
// kServerArrive lands past the horizon must stay in flight (never delivered,
// never double-counted), exactly like a same-shard arrival past the horizon.
TEST(ShardEquivalence, CrossShardInFlightAtHorizonBitIdentical) {
  clusters::CampusOptions copts;
  copts.seed = 13;
  copts.num_devices = 8;
  copts.num_servers = 2;
  copts.devices_per_cell = 2;
  copts.cell_rtt = ms(40.0);  // long flight: many arrivals stranded mid-RTT
  copts.mean_arrival_rate = 6.0;
  const ProblemInstance instance(clusters::campus(copts));
  const Decision d = offload_decision(instance, 0.1, mbps(40.0));

  Simulator::Options opts;
  opts.horizon = 4.0;
  opts.warmup = 0.5;
  opts.seed = 13;

  Simulator ref(instance, d, opts);
  const SimMetrics ref_m = ref.run();
  // The scenario must actually exercise the boundary path.
  EXPECT_GT(ref_m.in_flight_end, 0u);
  EXPECT_GT(ref_m.offload_fraction, 0.0);
  expect_shard_equivalence(instance, d, opts);
}

// The shard plan itself: pure function of the topology, clamped to the cell
// count, devices co-located with their cells, zero-RTT pairs merged.
TEST(ShardPlan, DeterministicAndClamped) {
  const ProblemInstance instance = sharded_campus(21, 1.0);
  const auto& topo = instance.topology();
  const ShardPlan a = ShardPlan::build(topo, 64);
  const ShardPlan b = ShardPlan::build(topo, 64);
  EXPECT_EQ(a.cell_shard, b.cell_shard);
  EXPECT_EQ(a.server_shard, b.server_shard);
  EXPECT_EQ(a.device_shard, b.device_shard);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.lookahead, b.lookahead);
  EXPECT_LE(a.num_shards, topo.cells().size());
  for (std::size_t d = 0; d < topo.devices().size(); ++d) {
    EXPECT_EQ(a.device_shard[d],
              a.cell_shard[static_cast<std::size_t>(topo.devices()[d].cell)]);
  }
  EXPECT_TRUE(std::isfinite(a.lookahead));
  EXPECT_GT(a.lookahead, 0.0);

  const ShardPlan one = ShardPlan::build(topo, 1);
  EXPECT_EQ(one.num_shards, 1u);
  // One shard has no cross pairs: infinite lookahead, no filler barriers.
  EXPECT_FALSE(std::isfinite(one.lookahead));
}

// The runner runs each replication on the one-shard Simulator: every
// replication must match the sharded engine run alone at its seed, for any
// shard count.
TEST(ShardEquivalence, RunnerShardedPathBitIdentical) {
  const ProblemInstance instance = sharded_campus(11, 2.0, 6, 2);
  const Decision d = offload_decision(instance, 0.1, mbps(40.0));

  ScenarioRunner::Options ropts;
  ropts.replications = 3;
  ropts.threads = 1;
  ropts.sim.horizon = 8.0;
  ropts.sim.warmup = 1.0;
  ropts.sim.seed = 11;
  ropts.sim.faults.schedule = FaultSchedule::server_crash(0, 3.0, 5.0);
  const ReplicatedMetrics classic =
      ScenarioRunner(instance, d, ropts).run();
  ASSERT_EQ(classic.replications.size(), ropts.replications);

  for (const std::size_t shards : {2u, 4u}) {
    for (std::size_t r = 0; r < ropts.replications; ++r) {
      ShardedSimulator::Options o = ropts.sim;
      o.seed = ScenarioRunner::replication_seed(ropts.sim.seed, r);
      ShardOptions sopts;
      sopts.shards = shards;
      sopts.threads = 2;
      ShardedSimulator sim(instance, d, o, sopts);
      const SimMetrics sharded = sim.run();
      // The runner's aggregation reads latency percentiles, which sort the
      // samples in place; sort these the same way before comparing.
      sharded.latency.p50();
      EXPECT_EQ(classic.replications[r].arrived, sharded.arrived)
          << "shards=" << shards;
      EXPECT_EQ(classic.replications[r].completed, sharded.completed)
          << "shards=" << shards;
      expect_metrics_identical(classic.replications[r], sharded);
    }
  }
}

TEST(ShardPlan, ZeroRttPairsMergeShards) {
  ClusterTopology t;
  // Two cells, both at zero access RTT, and a zero-backhaul server: the
  // server binds to cell 0 (lowest id), leaving (cell 1, server) a zero-RTT
  // CROSS-shard pair — splitting would need zero lookahead, so they merge.
  t.add_cell(Cell{-1, "a", mbps(100.0), 0.0});
  t.add_cell(Cell{-1, "b", mbps(100.0), 0.0});
  for (int i = 0; i < 2; ++i) {
    Device d;
    d.name = "dev" + std::to_string(i);
    d.compute = profiles::smartphone();
    d.energy = profiles::energy_phone();
    d.cell = i;
    d.model = "tiny_cnn";
    d.arrival_rate = 1.0;
    t.add_device(d);
  }
  EdgeServer s;
  s.name = "srv";
  s.compute = profiles::edge_gpu_t4();
  s.backhaul_rtt = 0.0;
  t.add_server(s);
  const ShardPlan p = ShardPlan::build(t, 2);
  EXPECT_EQ(p.num_shards, 1u);
  EXPECT_EQ(p.cell_shard[0], p.cell_shard[1]);
  EXPECT_EQ(p.server_shard[0], p.cell_shard[0]);
}

}  // namespace
}  // namespace scalpel
