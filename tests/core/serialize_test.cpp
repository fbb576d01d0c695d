#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "edge/builders.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

TEST(Serialize, SurgeryPlanRoundTrip) {
  SurgeryPlan plan;
  plan.partition_after = 17;
  plan.policy.exits = {{0, 0.15}, {3, 0.60}};
  const auto j = serialize::to_json(plan);
  const auto back = serialize::plan_from_json(j);
  EXPECT_EQ(back.device_only, plan.device_only);
  EXPECT_EQ(back.partition_after, plan.partition_after);
  ASSERT_EQ(back.policy.exits.size(), 2u);
  EXPECT_EQ(back.policy.exits[1].candidate, 3u);
  EXPECT_DOUBLE_EQ(back.policy.exits[1].theta, 0.60);
}

TEST(Serialize, DeviceOnlyPlanRoundTrip) {
  SurgeryPlan plan;
  plan.device_only = true;
  const auto back = serialize::plan_from_json(serialize::to_json(plan));
  EXPECT_TRUE(back.device_only);
  EXPECT_TRUE(back.policy.exits.empty());
}

TEST(Serialize, TopologyRoundTripPreservesEverything) {
  const auto topo = clusters::small_lab();
  const auto j = serialize::to_json(topo);
  const auto back = serialize::topology_from_json(j);
  ASSERT_EQ(back.devices().size(), topo.devices().size());
  ASSERT_EQ(back.servers().size(), topo.servers().size());
  ASSERT_EQ(back.cells().size(), topo.cells().size());
  for (std::size_t i = 0; i < topo.devices().size(); ++i) {
    const auto& a = topo.devices()[i];
    const auto& b = back.devices()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_DOUBLE_EQ(a.arrival_rate, b.arrival_rate);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    EXPECT_DOUBLE_EQ(a.min_accuracy, b.min_accuracy);
    EXPECT_DOUBLE_EQ(a.compute.peak_flops, b.compute.peak_flops);
    EXPECT_EQ(a.compute.efficiency, b.compute.efficiency);
    EXPECT_DOUBLE_EQ(a.energy.p_active, b.energy.p_active);
  }
  for (std::size_t i = 0; i < topo.servers().size(); ++i) {
    EXPECT_DOUBLE_EQ(topo.servers()[i].compute.peak_flops,
                     back.servers()[i].compute.peak_flops);
    EXPECT_DOUBLE_EQ(topo.servers()[i].backhaul_rtt,
                     back.servers()[i].backhaul_rtt);
  }
}

TEST(Serialize, TopologyRoundTripThroughText) {
  const auto topo = clusters::campus({});
  const auto text = serialize::to_json(topo).dump_pretty();
  const auto back = serialize::topology_from_json(Json::parse(text));
  EXPECT_EQ(back.devices().size(), topo.devices().size());
  // Round-trip once more and require textual fixpoint.
  EXPECT_EQ(serialize::to_json(back).dump(), serialize::to_json(topo).dump());
}

TEST(Serialize, DecisionRoundTripIsReevaluable) {
  const ProblemInstance instance(clusters::small_lab());
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  const auto original = JointOptimizer(o).optimize(instance);

  const auto text = serialize::to_json(original).dump();
  Decision restored = serialize::decision_from_json(Json::parse(text));
  ASSERT_EQ(restored.per_device.size(), original.per_device.size());
  for (std::size_t i = 0; i < restored.per_device.size(); ++i) {
    EXPECT_EQ(restored.per_device[i].plan.partition_after,
              original.per_device[i].plan.partition_after);
    EXPECT_EQ(restored.per_device[i].server, original.per_device[i].server);
    EXPECT_DOUBLE_EQ(restored.per_device[i].bandwidth,
                     original.per_device[i].bandwidth);
  }
  // Predictions are re-derived, not deserialized.
  evaluate_decision(instance, restored);
  if (std::isfinite(original.mean_latency)) {
    EXPECT_NEAR(restored.mean_latency, original.mean_latency,
                original.mean_latency * 1e-9);
  }
}

TEST(Serialize, FromJsonValidates) {
  auto j = serialize::to_json(clusters::small_lab());
  j.set("devices", Json::array());  // no devices -> invalid topology
  EXPECT_THROW(serialize::topology_from_json(j), ContractViolation);
}

}  // namespace
}  // namespace scalpel
