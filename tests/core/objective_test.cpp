#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "edge/builders.hpp"
#include "profile/latency_model.hpp"
#include "surgery/difficulty.hpp"
#include "sched/queueing.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

struct Fixture {
  ClusterTopology topo = clusters::small_lab();
  ProblemInstance instance{topo};
};

DeviceDecision local_decision() {
  DeviceDecision d;
  d.plan.device_only = true;
  return d;
}

DeviceDecision offload_decision(ServerId server, double share, double bw) {
  DeviceDecision d;
  d.plan.partition_after = 0;
  d.server = server;
  d.compute_share = share;
  d.bandwidth = bw;
  return d;
}

TEST(Instance, BundlesBuiltPerModel) {
  Fixture f;
  for (const auto& dev : f.topo.devices()) {
    const auto& b = f.instance.bundle_for(dev.id);
    EXPECT_EQ(b.graph.name(), dev.model);
    EXPECT_FALSE(b.candidates.empty());
  }
  EXPECT_THROW(f.instance.bundle_for(
                   static_cast<DeviceId>(f.topo.devices().size())),
               ContractViolation);
}

TEST(Objective, DeviceOnlyNoQueueingMatchesPlanModel) {
  Fixture f;
  // The queueing-free latency of a device-only plan is its PlanModel's
  // expected device time (jetson).
  const auto pred = evaluate_device(f.instance, 3, local_decision());
  const auto b = build_plan_model(f.instance, 3, local_decision()).breakdown();
  const auto& bundle = f.instance.bundle_for(3);
  const double expect = LatencyModel::graph_latency(
      bundle.graph, f.topo.device(3).compute);
  EXPECT_NEAR(b.expected_device_time, expect, 1e-9);
  EXPECT_EQ(b.offload_prob, 0.0);
  EXPECT_EQ(pred.offload_prob, 0.0);
  EXPECT_TRUE(pred.stable);
}

TEST(Objective, QueueingInflatesLatency) {
  Fixture f;
  const auto dd = local_decision();
  const auto a = evaluate_device(f.instance, 3, dd);
  const auto b = build_plan_model(f.instance, 3, dd).breakdown();
  ASSERT_TRUE(a.stable);
  EXPECT_GT(a.expected_latency, b.expected_device_time);
}

TEST(Objective, OverloadedDeviceIsUnstable) {
  Fixture f;
  // cam0 (iot_camera, mobilenet, 2 tasks/s) cannot run locally: service time
  // ~1s at rate 2/s.
  const auto pred = evaluate_device(f.instance, 0, local_decision());
  EXPECT_FALSE(pred.stable);
  EXPECT_TRUE(std::isinf(pred.expected_latency));
}

TEST(Objective, StarvedBandwidthIsUnstable) {
  Fixture f;
  // Uploading 600 KB per task at 2/s over 1 Mbps cannot drain.
  const auto pred = evaluate_device(
      f.instance, 0, offload_decision(1, 0.5, mbps(1.0)));
  EXPECT_FALSE(pred.stable);
}

TEST(Objective, TinyComputeShareIsUnstable) {
  Fixture f;
  const auto pred = evaluate_device(
      f.instance, 0, offload_decision(1, 1e-6, mbps(40.0)));
  EXPECT_FALSE(pred.stable);
}

TEST(Objective, ReasonableOffloadIsStable) {
  Fixture f;
  const auto pred = evaluate_device(
      f.instance, 0, offload_decision(1, 0.5, mbps(40.0)));
  EXPECT_TRUE(pred.stable);
  EXPECT_GT(pred.expected_latency, 0.0);
  EXPECT_NEAR(pred.offload_prob, 1.0, 1e-12);
}

TEST(Objective, MoreBandwidthNeverHurts) {
  Fixture f;
  double prev = std::numeric_limits<double>::infinity();
  for (double mb : {10.0, 20.0, 40.0, 79.0}) {
    const auto pred = evaluate_device(
        f.instance, 0, offload_decision(1, 0.5, mbps(mb)));
    if (pred.stable) {
      EXPECT_LE(pred.expected_latency, prev + 1e-12) << mb;
      prev = pred.expected_latency;
    }
  }
  EXPECT_TRUE(std::isfinite(prev));
}

TEST(Objective, MoreComputeShareNeverHurts) {
  Fixture f;
  double prev = std::numeric_limits<double>::infinity();
  for (double share : {0.1, 0.3, 0.6, 1.0}) {
    const auto pred = evaluate_device(
        f.instance, 2, offload_decision(1, share, mbps(40.0)));
    if (pred.stable) {
      EXPECT_LE(pred.expected_latency, prev + 1e-12) << share;
      prev = pred.expected_latency;
    }
  }
}

TEST(Objective, DecisionValidatesOversubscription) {
  Fixture f;
  Decision d;
  d.per_device.resize(4);
  for (auto& dd : d.per_device) dd = offload_decision(0, 0.5, mbps(40.0));
  // 4 x 0.5 shares on one server = 2.0 > 1.
  EXPECT_THROW(evaluate_decision(f.instance, d), ContractViolation);

  Decision d2;
  d2.per_device.resize(4);
  for (auto& dd : d2.per_device) dd = offload_decision(0, 0.25, mbps(40.0));
  // 4 x 40 Mbps on an 80 Mbps cell.
  EXPECT_THROW(evaluate_decision(f.instance, d2), ContractViolation);
}

TEST(Objective, DecisionAggregatesRateWeightedMean) {
  Fixture f;
  Decision d;
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));  // cam
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));  // pi
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));  // phone
  d.per_device.push_back(local_decision());                      // jetson
  evaluate_decision(f.instance, d);
  ASSERT_EQ(d.predicted.size(), 4u);
  double weighted = 0.0;
  double rate = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    weighted += f.topo.device(static_cast<DeviceId>(i)).arrival_rate *
                d.predicted[i].expected_latency;
    rate += f.topo.device(static_cast<DeviceId>(i)).arrival_rate;
  }
  if (std::isfinite(d.mean_latency)) {
    EXPECT_NEAR(d.mean_latency, weighted / rate, 1e-9);
  }
}

TEST(Objective, AccuracyFloorFlagged) {
  Fixture f;
  // Raise cam0's floor beyond mobilenet's a_max via a fresh topology.
  auto topo = clusters::small_lab();
  Device dev = topo.device(0);
  ClusterTopology strict;
  strict.add_cell(topo.cell(0));
  dev.min_accuracy = 0.99;
  dev.cell = 0;
  strict.add_device(dev);
  EdgeServer s = topo.server(0);
  strict.add_server(s);
  const ProblemInstance inst(strict);
  const auto pred = evaluate_device(inst, 0, local_decision());
  EXPECT_FALSE(pred.meets_accuracy);
}

TEST(Objective, DeadlineSatisfactionBounds) {
  Fixture f;
  Decision d;
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));
  d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));
  d.per_device.push_back(local_decision());
  evaluate_decision(f.instance, d);
  const double sat = predicted_deadline_satisfaction(f.instance, d);
  EXPECT_GE(sat, 0.0);
  EXPECT_LE(sat, 1.0);
}

TEST(Objective, TighterDeadlineLowersSatisfaction) {
  auto topo_loose = clusters::small_lab();
  auto topo_tight = clusters::small_lab();
  // Same cluster, different deadlines: rebuild devices.
  ClusterTopology loose;
  ClusterTopology tight;
  loose.add_cell(topo_loose.cell(0));
  tight.add_cell(topo_tight.cell(0));
  for (const auto& dev : topo_loose.devices()) {
    Device dl = dev;
    dl.deadline = 2.0;
    loose.add_device(dl);
    Device dt = dev;
    dt.deadline = 0.02;
    tight.add_device(dt);
  }
  for (const auto& s : topo_loose.servers()) {
    loose.add_server(s);
    tight.add_server(s);
  }
  const ProblemInstance il(loose);
  const ProblemInstance it(tight);
  Decision d;
  for (int i = 0; i < 3; ++i) {
    d.per_device.push_back(offload_decision(1, 0.3, mbps(20.0)));
  }
  d.per_device.push_back(local_decision());
  Decision d2 = d;
  evaluate_decision(il, d);
  evaluate_decision(it, d2);
  EXPECT_GE(predicted_deadline_satisfaction(il, d),
            predicted_deadline_satisfaction(it, d2));
}

// The small lab with every device on one skewed difficulty model.
ClusterTopology lab_with_difficulty(const std::string& preset) {
  const ClusterTopology lab = clusters::small_lab();
  ClusterTopology t;
  for (const auto& c : lab.cells()) t.add_cell(c);
  for (const auto& s : lab.servers()) t.add_server(s);
  for (Device d : lab.devices()) {
    d.difficulty = DifficultyModel::preset(preset);
    t.add_device(d);
  }
  return t;
}

// The allocation statistics are read from the evaluator's own PlanModel, so
// a skewed difficulty model moves them exactly as it moves the breakdown
// the evaluator scores, on every server and whatever the uplink.
TEST(FixedPlanAllocation, StatsMatchBuildPlanModelUnderDifficulty) {
  for (const std::string preset : {"hard_heavy", "bimodal_easy"}) {
    SCOPED_TRACE(preset);
    const ProblemInstance instance(lab_with_difficulty(preset));
    const auto& topo = instance.topology();
    for (const auto& dev : topo.devices()) {
      const auto& bundle = instance.bundle_for(dev.id);
      // Deepest clean cut with the shallowest exit enabled on the device.
      SurgeryPlan plan;
      plan.partition_after = bundle.graph.clean_cuts().back().after;
      ASSERT_LT(bundle.candidates.front().attach, plan.partition_after);
      plan.policy.exits = {ExitChoice{0, 0.3}};

      const OffloadStats st = offload_stats(instance, dev.id, plan);
      ASSERT_EQ(st.server_time.size(), topo.servers().size());
      for (const auto& server : topo.servers()) {
        DeviceDecision dd;
        dd.plan = plan;
        dd.server = server.id;
        dd.compute_share = 1.0;
        dd.bandwidth = mbps(20.0);
        const PlanBreakdown b =
            build_plan_model(instance, dev.id, dd).breakdown();
        EXPECT_EQ(st.offload_prob, b.offload_prob);
        EXPECT_EQ(st.upload_bytes, b.upload_bytes);
        EXPECT_EQ(st.server_time[static_cast<std::size_t>(server.id)],
                  b.expected_server_time / b.offload_prob);
      }
      // Under the uniform CDF the same plan offloads a different share.
      const PlanModel uniform(bundle.graph, bundle.candidates, plan,
                              bundle.accuracy, dev.compute,
                              topo.server(0).compute, LinkSpec{1.0, 0.0});
      EXPECT_NE(st.offload_prob, uniform.breakdown().offload_prob);
    }
  }
}

TEST(FixedPlanAllocation, EqualUplinkSplitCountsOffloadersPerCell) {
  clusters::CampusOptions o;
  o.num_devices = 12;
  o.num_servers = 2;
  o.devices_per_cell = 4;
  const ClusterTopology topo = clusters::campus(o);
  std::vector<bool> offloads(topo.devices().size());
  for (std::size_t i = 0; i < offloads.size(); ++i) offloads[i] = i % 3 != 0;
  const auto bw = equal_uplink_split(topo, offloads);
  for (const auto& cell : topo.cells()) {
    double offloaders = 0.0;
    for (const DeviceId d : topo.devices_in_cell(cell.id)) {
      offloaders += offloads[static_cast<std::size_t>(d)] ? 1.0 : 0.0;
    }
    for (const DeviceId d : topo.devices_in_cell(cell.id)) {
      const auto i = static_cast<std::size_t>(d);
      EXPECT_EQ(bw[i], offloads[i] ? cell.bandwidth / offloaders : 0.0);
    }
  }
}

}  // namespace
}  // namespace scalpel
