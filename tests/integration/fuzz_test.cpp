// Randomized end-to-end invariants: across random cluster topologies, the
// optimizer must produce decisions that respect every structural constraint,
// and the surrounding machinery (evaluator, simulator, serializer) must
// accept them. These sweeps are the repo's regression net for optimizer
// edge cases that hand-written instances miss.

#include <gtest/gtest.h>

#include <cmath>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "oracles/oracles.hpp"
#include "sim/event_queue.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

class FuzzTopologyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTopologyTest, JointDecisionRespectsAllInvariants) {
  clusters::CampusOptions copts;
  copts.seed = GetParam();
  copts.num_devices = 6 + (GetParam() % 7);
  copts.num_servers = 2 + (GetParam() % 3);
  copts.mean_arrival_rate = 0.5 + 0.25 * static_cast<double>(GetParam() % 8);
  copts.server_speed_cov = 0.1 * static_cast<double>(GetParam() % 10);
  const ProblemInstance instance(clusters::campus(copts));
  const auto& topo = instance.topology();

  const auto d = JointOptimizer(fast_opts()).optimize(instance);
  ASSERT_EQ(d.per_device.size(), topo.devices().size());

  // Structural invariants per device.
  std::vector<double> cell_bw(topo.cells().size(), 0.0);
  std::vector<double> server_share(topo.servers().size(), 0.0);
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    const auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    // Cut must be a clean cut of the device's model.
    const auto& g = instance.bundle_for(static_cast<DeviceId>(i)).graph;
    bool found = false;
    for (const auto& c : g.clean_cuts()) {
      if (c.after == dd.plan.partition_after) found = true;
    }
    EXPECT_TRUE(found) << "device " << i;
    EXPECT_GE(dd.server, 0);
    EXPECT_LT(dd.server, static_cast<int>(topo.servers().size()));
    EXPECT_GT(dd.bandwidth, 0.0);
    EXPECT_GT(dd.compute_share, 0.0);
    EXPECT_LE(dd.compute_share, 1.0);
    cell_bw[static_cast<std::size_t>(
        topo.device(static_cast<DeviceId>(i)).cell)] += dd.bandwidth;
    server_share[static_cast<std::size_t>(dd.server)] += dd.compute_share;
    // Exit indices must be valid for the model's candidate list.
    const auto& cands =
        instance.bundle_for(static_cast<DeviceId>(i)).candidates;
    for (const auto& e : dd.plan.policy.exits) {
      EXPECT_LT(e.candidate, cands.size());
    }
  }
  for (std::size_t c = 0; c < cell_bw.size(); ++c) {
    EXPECT_LE(cell_bw[c],
              topo.cell(static_cast<CellId>(c)).bandwidth * (1.0 + 1e-6));
  }
  for (double s : server_share) EXPECT_LE(s, 1.0 + 1e-6);

  // Evaluation invariants: accuracy floors honored whenever the decision is
  // stable for that device.
  for (std::size_t i = 0; i < d.predicted.size(); ++i) {
    if (d.predicted[i].stable) {
      EXPECT_GE(d.predicted[i].expected_accuracy,
                topo.device(static_cast<DeviceId>(i)).min_accuracy - 1e-6)
          << "device " << i;
    }
  }

  // Serialization round-trip re-evaluates to the same objective.
  const auto text = serialize::to_json(d).dump();
  Decision restored = serialize::decision_from_json(Json::parse(text));
  evaluate_decision(instance, restored);
  if (std::isfinite(d.mean_latency)) {
    EXPECT_NEAR(restored.mean_latency, d.mean_latency,
                d.mean_latency * 1e-9);
  }

  // The simulator must accept and run the decision without violating
  // conservation.
  Simulator::Options sopts;
  sopts.horizon = 8.0;
  sopts.warmup = 1.0;
  sopts.seed = GetParam();
  Simulator sim(instance, d, sopts);
  const auto m = sim.run();
  EXPECT_GE(m.arrived, m.completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTopologyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// Fault-schedule fuzz: random crash/recover interleavings (including
// zero-duration outages and crash-at-t=0) under every retry policy. Whatever
// the schedule throws at it, the simulator must preserve conservation
//   arrived == completed_all + failed_all + in_flight_end
// keep availability in [0, 1], and never emit a negative latency.
class FuzzFaultTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFaultTest, RandomScheduleKeepsInvariants) {
  const std::uint64_t seed = GetParam();
  clusters::CampusOptions copts;
  copts.seed = seed;
  copts.num_devices = 4 + (seed % 5);
  copts.num_servers = 2 + (seed % 2);
  const ProblemInstance instance(clusters::campus(copts));
  const auto& topo = instance.topology();
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  // Random schedule: per server and per link, a handful of down/up pairs
  // with exponential spacing, sometimes zero-width, sometimes at t=0.
  Rng rng(seed * 7919 + 13);
  std::vector<FaultEvent> events;
  const double horizon = 20.0;
  for (std::size_t s = 0; s < topo.servers().size(); ++s) {
    double t = rng.uniform() < 0.25 ? 0.0 : rng.exponential(0.3);
    while (t < horizon) {
      const double width =
          rng.uniform() < 0.2 ? 0.0 : rng.exponential(0.8);
      events.push_back({t, FaultTarget::Server,
                        static_cast<std::int32_t>(s), false});
      events.push_back({t + width, FaultTarget::Server,
                        static_cast<std::int32_t>(s), true});
      t += width + rng.exponential(0.3);
    }
  }
  for (std::size_t c = 0; c < topo.cells().size(); ++c) {
    if (rng.uniform() < 0.5) continue;
    const double t = rng.exponential(0.2) * horizon * 0.5;
    events.push_back({t, FaultTarget::Link,
                      static_cast<std::int32_t>(c), false});
    events.push_back({t + rng.exponential(2.0), FaultTarget::Link,
                      static_cast<std::int32_t>(c), true});
  }

  Simulator::Options sopts;
  sopts.horizon = horizon;
  sopts.warmup = 1.0;
  sopts.seed = seed;
  sopts.faults.schedule = FaultSchedule(events);
  const FaultPolicy policies[] = {FaultPolicy::Drop, FaultPolicy::RetryOnDevice,
                                  FaultPolicy::RetryOffload};
  sopts.faults.policy = policies[seed % 3];
  sopts.faults.max_retries = 1 + seed % 4;
  sopts.faults.retry_backoff = 0.1 + 0.1 * static_cast<double>(seed % 3);
  sopts.faults.retry_timeout = 5.0;

  const auto m = Simulator(instance, d, sopts).run();
  EXPECT_EQ(m.arrived,
            m.completed_all + m.failed_all + m.shed_all + m.in_flight_end)
      << "policy=" << static_cast<int>(sopts.faults.policy);
  EXPECT_EQ(m.shed_all, 0u);  // no overload options: nothing may be shed
  EXPECT_GE(m.availability, 0.0);
  EXPECT_LE(m.availability, 1.0);
  if (!m.latency.empty()) {
    EXPECT_GE(m.latency.min(), 0.0);
  }
  if (!m.outage_latency.empty()) {
    EXPECT_GE(m.outage_latency.min(), 0.0);
  }
  EXPECT_LE(m.outage_latency.count(), m.latency.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFaultTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

// Overload fuzz: random bounded-queue limits, shedding policy, admission
// gates and scripted rate bursts layered on top of a random fault schedule.
// Whatever is shed, the full conservation identity
//   arrived == completed_all + failed_all + shed_all + in_flight_end
// must hold, and the replicated runner's per-replication counters must be
// bit-identical across thread counts even while tasks are being dropped.
class FuzzOverloadTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzOverloadTest, SheddingKeepsConservation) {
  const std::uint64_t seed = GetParam();
  clusters::CampusOptions copts;
  copts.seed = seed;
  copts.num_devices = 4 + (seed % 4);
  copts.num_servers = 2;
  copts.mean_arrival_rate = 1.0 + 0.5 * static_cast<double>(seed % 4);
  const ProblemInstance instance(clusters::campus(copts));
  const auto& topo = instance.topology();
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  Rng rng(seed * 104729 + 7);
  Simulator::Options sopts;
  sopts.horizon = 15.0;
  sopts.warmup = 1.0;
  sopts.seed = seed;
  const OverloadPolicy opolicies[] = {OverloadPolicy::Block,
                                      OverloadPolicy::ShedNewest,
                                      OverloadPolicy::ShedExpired};
  sopts.overload.policy = opolicies[seed % 3];
  sopts.overload.device_queue_limit = 2 + seed % 10;
  sopts.overload.upload_queue_limit = rng.uniform() < 0.3 ? 0 : 1 + seed % 6;
  sopts.overload.server_queue_limit = rng.uniform() < 0.3 ? 0 : 1 + seed % 6;
  double t = 1.0 + rng.exponential(2.0);
  for (std::uint64_t b = 0; b <= seed % 3; ++b) {
    const double width = 1.0 + rng.exponential(3.0);
    sopts.rate_bursts.push_back(
        RateBurst{t, t + width, 4.0 + 20.0 * rng.uniform()});
    t += width + rng.exponential(2.0);
  }
  if (rng.uniform() < 0.7) {
    const double down = 2.0 + rng.exponential(3.0);
    sopts.faults.schedule = FaultSchedule::server_crash(
        static_cast<std::int32_t>(seed % topo.servers().size()), down,
        down + rng.exponential(3.0));
  }
  const FaultPolicy policies[] = {FaultPolicy::Drop,
                                  FaultPolicy::RetryOnDevice,
                                  FaultPolicy::RetryOffload};
  sopts.faults.policy = policies[(seed / 3) % 3];

  Simulator sim(instance, d, sopts);
  // A random per-device admission gate guarantees shedding activity even
  // when the random limits never fill.
  std::vector<double> gate;
  for (std::size_t i = 0; i < topo.devices().size(); ++i) {
    gate.push_back(0.3 + 0.5 * rng.uniform());
  }
  sim.set_admission(gate);
  const auto m = sim.run();
  EXPECT_EQ(m.arrived,
            m.completed_all + m.failed_all + m.shed_all + m.in_flight_end)
      << "overload policy=" << static_cast<int>(sopts.overload.policy)
      << " fault policy=" << static_cast<int>(sopts.faults.policy);
  EXPECT_GT(m.shed_all, 0u);
  EXPECT_GT(m.completed, 0u);
  if (!m.latency.empty()) {
    EXPECT_GE(m.latency.min(), 0.0);
  }
}

TEST_P(FuzzOverloadTest, ReplicatedCountersThreadCountInvariant) {
  const std::uint64_t seed = GetParam();
  clusters::CampusOptions copts;
  copts.seed = seed;
  copts.num_devices = 4;
  copts.num_servers = 2;
  copts.mean_arrival_rate = 2.0;
  const ProblemInstance instance(clusters::campus(copts));
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  ScenarioRunner::Options ropts;
  ropts.replications = 4;
  ropts.require_completions = false;
  ropts.sim.horizon = 10.0;
  ropts.sim.warmup = 1.0;
  ropts.sim.seed = seed;
  ropts.sim.overload.policy =
      seed % 2 ? OverloadPolicy::ShedNewest : OverloadPolicy::ShedExpired;
  ropts.sim.overload.device_queue_limit = 3;
  ropts.sim.overload.upload_queue_limit = 2;
  ropts.sim.overload.server_queue_limit = 2;
  ropts.sim.rate_bursts.push_back(RateBurst{2.0, 8.0, 30.0});
  ropts.sim.faults.schedule = FaultSchedule::server_crash(0, 4.0, 6.0);

  ropts.threads = 1;
  const auto m1 = ScenarioRunner(instance, d, ropts).run();
  ropts.threads = 4;
  const auto m4 = ScenarioRunner(instance, d, ropts).run();

  // The burst over tight limits must actually shed — otherwise this checks
  // nothing new over the fault fuzz.
  EXPECT_GT(m1.shed + m1.expired, 0u);
  EXPECT_EQ(m1.arrived, m4.arrived);
  EXPECT_EQ(m1.shed, m4.shed);
  EXPECT_EQ(m1.expired, m4.expired);
  ASSERT_EQ(m1.replications.size(), m4.replications.size());
  for (std::size_t r = 0; r < m1.replications.size(); ++r) {
    const auto& a = m1.replications[r];
    const auto& b = m4.replications[r];
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.expired, b.expired);
    EXPECT_EQ(a.arrived,
              a.completed_all + a.failed_all + a.shed_all + a.in_flight_end);
    if (!a.latency.empty()) {
      EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOverloadTest,
                         ::testing::Values(7, 19, 31, 43, 57, 71, 83, 97));

// ---------------------------------------------------------------------------
// Event-queue fuzz: the calendar queue against the std::priority_queue-backed
// reference on raw op streams with adversarial time distributions. Pinned
// engine-level outputs live in sim/sim_golden_test.cpp.

class FuzzQueueTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzQueueTest, OpStreamMatchesHeapOracle) {
  const std::uint64_t seed = GetParam();
  EventQueue cal;
  BinaryHeapEventQueue heap;
  Rng rng(seed * 7919 + 1);
  double now = 0.0;
  for (int step = 0; step < 6000; ++step) {
    // Bursty phases: long push runs then long drain runs, plus clustered
    // timestamps — the access pattern that defeats naive bucket widths.
    const bool push_phase = ((step / 64) + seed) % 3 != 0;
    if ((push_phase && rng.uniform() < 0.8) || cal.empty()) {
      double t = now;
      const double v = rng.uniform();
      if (v < 0.3) {
        t = now + rng.exponential(1.0);
      } else if (v < 0.6) {
        t = now + 1e-6 * rng.exponential(1.0);  // micro-spaced cluster
      } else if (v < 0.8) {
        t = now;  // exact tie, seq break
      } else {
        t = now + 500.0 + 100.0 * rng.uniform();  // far outlier
      }
      cal.push(t, static_cast<std::uint32_t>(step % 5), step,
               static_cast<std::uint64_t>(step));
      heap.push(t, static_cast<std::uint32_t>(step % 5), step,
                static_cast<std::uint64_t>(step));
    } else {
      const SimEvent a = cal.pop_min();
      const SimEvent b = heap.pop_min();
      ASSERT_EQ(a.time, b.time) << "seed " << seed << " step " << step;
      ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " step " << step;
      ASSERT_EQ(a.a, b.a);
      ASSERT_GE(a.time, now);
      now = a.time;
    }
    ASSERT_EQ(cal.size(), heap.size());
  }
  while (!cal.empty()) {
    const SimEvent a = cal.pop_min();
    const SimEvent b = heap.pop_min();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQueueTest,
                         ::testing::Values(2, 11, 23, 37, 53, 67, 89, 101));

}  // namespace
}  // namespace scalpel
