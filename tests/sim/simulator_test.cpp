#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/objective.hpp"
#include "util/assert.hpp"
#include "edge/builders.hpp"
#include "obs/timeseries.hpp"
#include "profile/latency_model.hpp"
#include "sched/queueing.hpp"
#include "sim/runner.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

/// One device / one server / one cell topology with controllable rate.
ClusterTopology single_device(double rate, double deadline = 0.0) {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "c", mbps(100.0), ms(1.0)});
  Device d;
  d.name = "dev";
  d.compute = profiles::smartphone();
  d.energy = profiles::energy_phone();
  d.cell = cell;
  d.model = "tiny_cnn";
  d.arrival_rate = rate;
  d.deadline = deadline;
  t.add_device(d);
  EdgeServer s;
  s.name = "srv";
  s.compute = profiles::edge_gpu_t4();
  s.backhaul_rtt = ms(0.5);
  t.add_server(s);
  return t;
}

Decision local_decision(const ProblemInstance& instance) {
  Decision d;
  d.scheme = "test_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  return d;
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

Simulator::Options fast_run(double horizon = 200.0, std::uint64_t seed = 3) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = horizon * 0.1;
  o.seed = seed;
  return o;
}

TEST(Simulator, ConservationAndCounting) {
  const ProblemInstance inst(single_device(4.0));
  Simulator sim(inst, local_decision(inst), fast_run());
  const auto m = sim.run();
  EXPECT_GT(m.completed, 0u);
  EXPECT_GE(m.arrived, m.completed);
  EXPECT_EQ(m.per_device.size(), 1u);
  EXPECT_EQ(m.per_device[0].completed, m.completed);
  EXPECT_EQ(m.latency.count(), m.completed);
}

TEST(Simulator, DeterministicForSeed) {
  const ProblemInstance inst(single_device(4.0));
  const auto d = local_decision(inst);
  Simulator a(inst, d, fast_run(100.0, 42));
  Simulator b(inst, d, fast_run(100.0, 42));
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.completed, mb.completed);
  EXPECT_DOUBLE_EQ(ma.latency.mean(), mb.latency.mean());
}

TEST(Simulator, DifferentSeedsDiffer) {
  const ProblemInstance inst(single_device(4.0));
  const auto d = local_decision(inst);
  Simulator a(inst, d, fast_run(100.0, 1));
  Simulator b(inst, d, fast_run(100.0, 2));
  EXPECT_NE(a.run().completed, b.run().completed);
}

TEST(Simulator, LocalServiceMatchesMD1Theory) {
  // Deterministic on-device service + Poisson arrivals = M/D/1 exactly.
  const ProblemInstance inst(single_device(1.0));
  const auto& bundle = inst.bundle_for(0);
  const double service = LatencyModel::graph_latency(
      bundle.graph, inst.topology().device(0).compute);
  // Pick a rate for rho ~ 0.6.
  const double rate = 0.6 / service;
  const ProblemInstance inst2(single_device(rate));
  Simulator sim(inst2, local_decision(inst2), fast_run(4000.0 * service, 9));
  const auto m = sim.run();
  const double predicted = queueing::md1_sojourn(rate, service);
  ASSERT_GT(m.completed, 1000u);
  EXPECT_NEAR(m.latency.mean(), predicted, predicted * 0.12)
      << "rho=0.6 M/D/1 check";
}

TEST(Simulator, UnloadedOffloadPipelineMatchesDeterministicSum) {
  // Very low rate: no queueing anywhere; end-to-end latency must equal the
  // queueing-free analytical prediction (full shares, full bandwidth).
  auto topo = single_device(0.05);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  Simulator sim(inst, d, fast_run(2000.0, 5));
  const auto m = sim.run();
  ASSERT_GT(m.completed, 30u);
  // Queueing-free prediction: the PlanModel's service times on the grants.
  const DeviceDecision& dd = d.per_device[0];
  const auto b = build_plan_model(inst, 0, dd).breakdown();
  const double predicted =
      b.expected_device_time +
      b.offload_prob *
          (static_cast<double>(b.upload_bytes) / dd.bandwidth +
           topo.path_rtt(0, dd.server) +
           b.server_time_cond_m1 / dd.compute_share);
  EXPECT_NEAR(m.latency.mean(), predicted, predicted * 0.05);
  EXPECT_NEAR(m.offload_fraction, 1.0, 1e-12);
}

TEST(Simulator, QueueingRaisesLatencyWithLoad) {
  const ProblemInstance low(single_device(0.2));
  const ProblemInstance high(single_device(30.0));
  Simulator a(low, local_decision(low), fast_run(300.0, 7));
  Simulator b(high, local_decision(high), fast_run(300.0, 7));
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_GT(mb.latency.mean(), ma.latency.mean());
}

TEST(Simulator, DeadlineMetric) {
  // Deterministic local service at negligible load.
  const ProblemInstance inst(single_device(1.0));
  const auto& bundle = inst.bundle_for(0);
  const double service = LatencyModel::graph_latency(
      bundle.graph, inst.topology().device(0).compute);
  {
    const ProblemInstance loose(single_device(0.1, service * 10.0));
    Simulator sim(loose, local_decision(loose), fast_run(400.0, 11));
    EXPECT_NEAR(sim.run().deadline_satisfaction, 1.0, 1e-12);
  }
  {
    const ProblemInstance tight(single_device(0.1, service * 0.5));
    Simulator sim(tight, local_decision(tight), fast_run(400.0, 11));
    EXPECT_NEAR(sim.run().deadline_satisfaction, 0.0, 1e-12);
  }
}

TEST(Simulator, ExitHistogramTracksAnalyticFireProbabilities) {
  auto topo = single_device(1.0);
  const ProblemInstance inst(topo);
  const auto& bundle = inst.bundle_for(0);
  ASSERT_GE(bundle.candidates.size(), 1u);
  Decision d;
  d.per_device.resize(1);
  d.per_device[0].plan.device_only = true;
  d.per_device[0].plan.policy.exits = {{0, 0.2}};
  evaluate_decision(inst, d);
  Simulator sim(inst, d, fast_run(3000.0, 13));
  const auto m = sim.run();
  const auto stats = evaluate_policy(bundle.candidates,
                                     d.per_device[0].plan.policy,
                                     bundle.accuracy);
  ASSERT_GE(m.per_device[0].exit_histogram.size(), 2u);
  const double measured_fire =
      static_cast<double>(m.per_device[0].exit_histogram[1]) /
      static_cast<double>(m.completed);
  EXPECT_NEAR(measured_fire, stats.fire_prob[0], 0.03);
}

TEST(Simulator, MeasuredAccuracyNearAnalytic) {
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  Simulator sim(inst, d, fast_run(2000.0, 17));
  const auto m = sim.run();
  EXPECT_NEAR(m.measured_accuracy, d.predicted[0].expected_accuracy, 0.02);
}

TEST(Simulator, ServerUtilizationTracksLoad) {
  auto topo = single_device(2.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  Simulator sim(inst, d, fast_run(500.0, 19));
  const auto m = sim.run();
  ASSERT_EQ(m.server_utilization.size(), 1u);
  EXPECT_GT(m.server_utilization[0], 0.0);
  EXPECT_LT(m.server_utilization[0], 1.0);
}

TEST(Simulator, BandwidthTraceSlowsUploads) {
  auto topo = single_device(2.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  Simulator steady(inst, d, fast_run(400.0, 23));
  const auto ms_steady = steady.run();
  Simulator throttled(inst, d, fast_run(400.0, 23));
  throttled.set_cell_trace(0, BandwidthTrace::constant(mbps(3.0)));
  const auto ms_throttled = throttled.run();
  EXPECT_GT(ms_throttled.latency.mean(), ms_steady.latency.mean());
}

TEST(Simulator, ControllerSwapsDecisionMidRun) {
  auto topo = single_device(2.0);
  const ProblemInstance inst(topo);
  const auto offload = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto local = local_decision(inst);

  Simulator::Options opts = fast_run(300.0, 29);
  opts.control_interval = 10.0;
  Simulator sim(inst, offload, opts);
  bool swapped = false;
  sim.set_controller([&](const Observation& o) {
    ControlAction a;
    if (o.time >= 150.0 && !swapped) {
      swapped = true;
      a.decision = local;
    }
    return a;
  });
  const auto m = sim.run();
  EXPECT_TRUE(swapped);
  // Some tasks offloaded (first half), some local (second half).
  EXPECT_GT(m.offload_fraction, 0.1);
  EXPECT_LT(m.offload_fraction, 0.9);
}

TEST(Simulator, ValidatesOptions) {
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  Simulator::Options bad;
  bad.horizon = 10.0;
  bad.warmup = 20.0;
  EXPECT_THROW(Simulator(inst, d, bad), ContractViolation);
  Simulator::Options ok = fast_run();
  Simulator sim(inst, d, ok);
  EXPECT_THROW(
      sim.set_controller([](const Observation&) { return ControlAction{}; }),
      ContractViolation);  // no control_interval configured
  EXPECT_THROW(sim.set_cell_trace(7, BandwidthTrace::constant(1.0)),
               ContractViolation);
}

TEST(Simulator, ZeroBurstFactorPreservesPoissonStreams) {
  const ProblemInstance inst(single_device(3.0));
  const auto d = local_decision(inst);
  Simulator::Options a = fast_run(200.0, 51);
  Simulator::Options b = fast_run(200.0, 51);
  b.burst_factor = 0.0;  // explicit default
  Simulator sa(inst, d, a);
  Simulator sb(inst, d, b);
  const auto ma = sa.run();
  const auto mb = sb.run();
  EXPECT_EQ(ma.completed, mb.completed);
  EXPECT_DOUBLE_EQ(ma.latency.mean(), mb.latency.mean());
}

TEST(Simulator, BurstinessGrowsTheTail) {
  // Load the device moderately so bursts actually queue.
  const ProblemInstance probe_instance(single_device(1.0));
  const double service = LatencyModel::graph_latency(
      probe_instance.bundle_for(0).graph, profiles::smartphone());
  const double rate = 0.7 / service;
  const ProblemInstance inst(single_device(rate));
  const auto d = local_decision(inst);
  // Bursts hold each state for 2 s on average: run for many of them.
  Simulator::Options plain = fast_run(std::max(1500.0 * service, 80.0), 53);
  Simulator::Options bursty = plain;
  bursty.burst_factor = 0.9;
  Simulator sa(inst, d, plain);
  Simulator sb(inst, d, bursty);
  const auto ma = sa.run();
  const auto mb = sb.run();
  ASSERT_GT(ma.completed, 300u);
  ASSERT_GT(mb.completed, 300u);
  EXPECT_GT(mb.latency.p99(), ma.latency.p99());
}

TEST(Simulator, BurstFactorValidated) {
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  Simulator::Options opts = fast_run(50.0, 55);
  opts.burst_factor = 1.0;  // invalid: low state would have rate 0
  Simulator sim(inst, d, opts);
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(Simulator, EnergyAccountingPositiveAndComposable) {
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  Simulator sim(inst, d, fast_run(500.0, 41));
  const auto m = sim.run();
  ASSERT_GT(m.completed, 100u);
  EXPECT_GT(m.mean_task_energy, 0.0);
  // Local execution: energy == p_active * device_time exactly.
  const auto& dev = inst.topology().device(0);
  const double per_task =
      m.per_device[0].energy_sum / static_cast<double>(m.completed);
  const auto& bundle = inst.bundle_for(0);
  const double service = LatencyModel::graph_latency(bundle.graph, dev.compute);
  EXPECT_NEAR(per_task, dev.energy.p_active * service, 1e-9);
}

TEST(Simulator, OffloadingShiftsEnergyFromComputeToTxIdle) {
  auto topo = single_device(0.5);
  const ProblemInstance inst(topo);
  const auto local = local_decision(inst);
  const auto off = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  Simulator a(inst, local, fast_run(800.0, 43));
  Simulator b(inst, off, fast_run(800.0, 43));
  const auto ma = a.run();
  const auto mb = b.run();
  ASSERT_GT(ma.completed, 100u);
  ASSERT_GT(mb.completed, 100u);
  // Offloading a tiny model from a capable phone costs little active energy
  // but pays tx+idle; both must be positive and differ.
  EXPECT_GT(ma.mean_task_energy, 0.0);
  EXPECT_GT(mb.mean_task_energy, 0.0);
  EXPECT_NE(ma.mean_task_energy, mb.mean_task_energy);
}

/// Deterministic on-device service time of the single_device() task.
double service_time() {
  const ProblemInstance probe(single_device(1.0));
  return LatencyModel::graph_latency(probe.bundle_for(0).graph,
                                     probe.topology().device(0).compute);
}

/// Little's law L = lambda * W on one run at rho = 0.6: L is the mean of
/// the recorder's sim.in_flight samples after warmup, taken every
/// 0.37 service times (off the service grid, so samples do not alias with
/// the deterministic departures); lambda and W come from the counted
/// completions. Both sides integrate the same sample path, so they agree to
/// sampling and edge error, far inside 2 %.
void expect_littles_law(std::uint64_t seed) {
  const double service = service_time();
  const double rate = 0.6 / service;
  const ProblemInstance inst(single_device(rate));
  Simulator::Options opts;
  opts.horizon = 20000.0 * service;
  opts.warmup = 2000.0 * service;
  opts.seed = seed;
  opts.obs_interval = 0.37 * service;
  TimeSeriesRecorder rec(std::size_t{1} << 16);
  opts.recorder = &rec;
  Simulator sim(inst, local_decision(inst), opts);
  const auto m = sim.run();
  ASSERT_EQ(rec.dropped(), 0u);
  ASSERT_GT(m.completed, 5000u);

  const std::size_t col = rec.column_index("sim.in_flight");
  double l_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < rec.size(); ++r) {
    if (rec.value(r, 0) < opts.warmup) continue;
    l_sum += rec.value(r, col);
    ++count;
  }
  ASSERT_GT(count, 40000u);
  const double l_avg = l_sum / static_cast<double>(count);
  const double throughput =
      static_cast<double>(m.completed) / (opts.horizon - opts.warmup);
  const double littles = throughput * m.latency.mean();
  EXPECT_NEAR(l_avg, littles, 0.02 * littles) << "seed " << seed;
}

TEST(Simulator, TimeSeriesSatisfiesLittlesLaw) { expect_littles_law(61); }

TEST(Simulator, TimeSeriesCompletionRatesMatchTotals) {
  // The recorder's cumulative sim.completed at the horizon is the run's
  // whole-run completion count, exactly.
  const ProblemInstance inst(single_device(3.0));
  const auto d = local_decision(inst);
  Simulator::Options opts = fast_run(300.0, 63);
  opts.warmup = 0.0;
  opts.obs_interval = 2.0;
  TimeSeriesRecorder rec;
  opts.recorder = &rec;
  Simulator sim(inst, d, opts);
  const auto m = sim.run();
  ASSERT_EQ(rec.size(), 150u);
  const std::size_t last = rec.size() - 1;
  EXPECT_EQ(rec.last_time(), opts.horizon);
  ASSERT_GT(m.completed_all, 0u);
  EXPECT_EQ(rec.value(last, rec.column_index("sim.completed")),
            static_cast<double>(m.completed_all));
}

TEST(Simulator, ReplicatedCiCoversQueueingTheory) {
  // Statistical validity of the replicated runner: Poisson arrivals into a
  // deterministic on-device service are an M/D/1 queue exactly, so the 95%
  // CI over independent replications must cover the analytical sojourn
  // prediction from queueing.hpp (deterministic given the fixed base seed).
  const double service = service_time();
  const double rate = 0.6 / service;  // rho = 0.6
  const ProblemInstance inst(single_device(rate));
  const auto d = local_decision(inst);

  ScenarioRunner::Options opts;
  opts.replications = 10;
  opts.threads = 4;
  opts.sim.horizon = 1500.0 * service;
  opts.sim.warmup = 150.0 * service;
  opts.sim.seed = 67;
  const auto m = ScenarioRunner(inst, d, opts).run();
  ASSERT_GT(m.completed, 5000u);

  const double predicted = queueing::md1_sojourn(rate, service);
  const Summary lat = summarize(m.mean_latency);
  EXPECT_TRUE(lat.covers(predicted))
      << "95% CI [" << lat.mean - lat.ci95 << ", " << lat.mean + lat.ci95
      << "] misses the M/D/1 prediction " << predicted;
  // The CI must also be informative, not vacuously wide.
  EXPECT_LT(lat.ci95, predicted * 0.2);
}

TEST(Simulator, ReplicatedTimeSeriesSatisfiesLittlesLaw) {
  // Little's law on every replication seed of a fan-out, not just on one
  // lucky seed. A recorder samples one run, so each replication runs alone.
  for (std::size_t r = 0; r < 4; ++r) {
    expect_littles_law(ScenarioRunner::replication_seed(71, r));
  }
}

TEST(Simulator, MultiDeviceSmallLabRuns) {
  const ProblemInstance inst(clusters::small_lab());
  Decision d;
  d.per_device.resize(4);
  for (std::size_t i = 0; i < 3; ++i) {
    d.per_device[i].plan.partition_after = 0;
    d.per_device[i].server = 1;
    d.per_device[i].compute_share = 0.3;
    d.per_device[i].bandwidth = mbps(25.0);
  }
  d.per_device[3].plan.device_only = true;
  evaluate_decision(inst, d);
  Simulator sim(inst, d, fast_run(60.0, 31));
  const auto m = sim.run();
  EXPECT_GT(m.completed, 100u);
  EXPECT_EQ(m.server_utilization.size(), 2u);
  // Server 0 has no assignees.
  EXPECT_EQ(m.server_utilization[0], 0.0);
  EXPECT_GT(m.server_utilization[1], 0.0);
}

}  // namespace
}  // namespace scalpel
