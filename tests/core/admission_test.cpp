#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "edge/builders.hpp"
#include "profile/latency_model.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

ClusterTopology one_device(double rate) {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "c", mbps(100.0), ms(1.0)});
  Device d;
  d.name = "dev";
  d.compute = profiles::smartphone();
  d.energy = profiles::energy_phone();
  d.cell = cell;
  d.model = "tiny_cnn";
  d.arrival_rate = rate;
  t.add_device(d);
  EdgeServer s;
  s.name = "srv";
  s.compute = profiles::edge_gpu_t4();
  t.add_server(s);
  return t;
}

/// The topology with every device's arrival rate set to its admitted rate.
ClusterTopology with_admitted_rates(const ProblemInstance& inst,
                                    const admission::ThrottlePlan& plan) {
  ClusterTopology topo = inst.topology();
  for (std::size_t i = 0; i < plan.admitted_rate.size(); ++i) {
    topo.set_device_arrival_rate(static_cast<DeviceId>(i),
                                 plan.admitted_rate[i]);
  }
  return topo;
}

TEST(Admission, LocalRateBoundMatchesServiceTime) {
  const ProblemInstance inst(one_device(1.0));
  DeviceDecision dd;
  dd.plan.device_only = true;
  const double service = LatencyModel::graph_latency(
      inst.bundle_for(0).graph, inst.topology().device(0).compute);
  const double bound = admission::max_sustainable_rate(inst, 0, dd, 1.0);
  EXPECT_NEAR(bound, 1.0 / service, 1.0 / service * 1e-9);
  // Headroom scales the bound linearly.
  EXPECT_NEAR(admission::max_sustainable_rate(inst, 0, dd, 0.5), bound * 0.5,
              bound * 1e-9);
}

TEST(Admission, OffloadBoundTakesBottleneckStage) {
  const ProblemInstance inst(one_device(1.0));
  DeviceDecision dd;
  dd.plan.partition_after = 0;
  dd.server = 0;
  dd.compute_share = 1.0;
  dd.bandwidth = mbps(1.0);  // starved uplink dominates
  const auto model = build_plan_model(inst, 0, dd);
  const double s_up =
      static_cast<double>(model.breakdown().upload_bytes) / dd.bandwidth;
  const double bound = admission::max_sustainable_rate(inst, 0, dd, 1.0);
  EXPECT_NEAR(bound, 1.0 / s_up, 1.0 / s_up * 1e-6);
}

TEST(Admission, SustainableRateConsistentWithEvaluator) {
  // Rates just below the bound must evaluate stable; just above, unstable.
  const ProblemInstance probe(one_device(1.0));
  DeviceDecision dd;
  dd.plan.device_only = true;
  const double bound = admission::max_sustainable_rate(probe, 0, dd, 1.0);

  const ProblemInstance under(one_device(bound * 0.95));
  const ProblemInstance over(one_device(bound * 1.05));
  EXPECT_TRUE(evaluate_device(under, 0, dd).stable);
  EXPECT_FALSE(evaluate_device(over, 0, dd).stable);
}

TEST(Admission, ThrottleRestoresStability) {
  // Overloaded lab: device_only is unstable for cam0. Throttling to the
  // sustainable rates must yield a stable system on the same decision.
  const ProblemInstance inst(clusters::small_lab());
  Decision local;
  local.per_device.resize(4);
  for (auto& dd : local.per_device) dd.plan.device_only = true;
  evaluate_decision(inst, local);
  ASSERT_FALSE(std::isfinite(local.mean_latency));

  const auto plan = admission::propose_throttle(inst, local, 0.9);
  EXPECT_TRUE(plan.throttled);
  EXPECT_LT(plan.admitted_fraction, 1.0);
  EXPECT_GT(plan.admitted_fraction, 0.0);

  const ProblemInstance throttled(with_admitted_rates(inst, plan));
  Decision again;
  again.per_device = local.per_device;
  evaluate_decision(throttled, again);
  EXPECT_TRUE(std::isfinite(again.mean_latency));
}

TEST(Admission, StableSystemIsNotThrottled) {
  const ProblemInstance inst(clusters::small_lab());
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  const auto joint = JointOptimizer(o).optimize(inst);
  ASSERT_TRUE(std::isfinite(joint.mean_latency));
  const auto plan = admission::propose_throttle(inst, joint, 0.99);
  EXPECT_FALSE(plan.throttled);
  EXPECT_NEAR(plan.admitted_fraction, 1.0, 1e-9);
}

TEST(Admission, ThrottledRatesNeedNoFurtherThrottle) {
  // The throttle plan, applied to the topology, needs no further
  // throttling — the evaluator agrees it is stable.
  const ProblemInstance inst(clusters::small_lab());
  Decision local;
  local.per_device.resize(4);
  for (auto& dd : local.per_device) dd.plan.device_only = true;
  evaluate_decision(inst, local);

  const auto plan = admission::propose_throttle(inst, local, 0.9);
  const ProblemInstance throttled(with_admitted_rates(inst, plan));
  Decision again;
  again.per_device = local.per_device;
  evaluate_decision(throttled, again);
  EXPECT_TRUE(std::isfinite(again.mean_latency));

  const auto re = admission::propose_throttle(throttled, again, 0.9);
  EXPECT_FALSE(re.throttled);
  EXPECT_NEAR(re.admitted_fraction, 1.0, 1e-9);
}

TEST(Admission, ValidatesHeadroom) {
  const ProblemInstance inst(one_device(1.0));
  DeviceDecision dd;
  dd.plan.device_only = true;
  EXPECT_THROW(admission::max_sustainable_rate(inst, 0, dd, 0.0),
               ContractViolation);
  EXPECT_THROW(admission::max_sustainable_rate(inst, 0, dd, 1.5),
               ContractViolation);
}

}  // namespace
}  // namespace scalpel
