#include "surgery/plan.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "profile/compute_profile.hpp"
#include "profile/latency_model.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

struct Fixture {
  Graph g = models::tiny_cnn();
  std::vector<ExitCandidate> cands;
  AccuracyModel acc = AccuracyModel::for_model("tiny_cnn");
  ComputeProfile device = profiles::raspberry_pi4();
  ComputeProfile server = profiles::edge_gpu_t4();
  LinkSpec link{mbps(30.0), ms(2.0)};

  Fixture() {
    ExitCandidateOptions opts;
    opts.num_classes = 10;
    opts.min_spacing = 0.0;
    cands = find_exit_candidates(g, opts);
  }

  PlanModel make(SurgeryPlan plan) const {
    return PlanModel(g, cands, std::move(plan), acc, device, server, link);
  }
};

TEST(PlanModel, DeviceOnlyNeverOffloads) {
  Fixture f;
  SurgeryPlan plan;
  plan.device_only = true;
  const auto pm = f.make(plan);
  EXPECT_EQ(pm.breakdown().offload_prob, 0.0);
  EXPECT_EQ(pm.breakdown().expected_server_time, 0.0);
  EXPECT_EQ(pm.breakdown().upload_bytes, 0);
  EXPECT_NEAR(pm.breakdown().expected_device_time,
              LatencyModel::graph_latency(f.g, f.device), 1e-9);
  EXPECT_NEAR(pm.breakdown().expected_accuracy, f.acc.a_max, 1e-12);
}

TEST(PlanModel, OffloadAllAlwaysOffloads) {
  Fixture f;
  SurgeryPlan plan;
  plan.partition_after = 0;
  const auto pm = f.make(plan);
  EXPECT_NEAR(pm.breakdown().offload_prob, 1.0, 1e-12);
  EXPECT_EQ(pm.breakdown().upload_bytes, f.g.node(0).out_shape.bytes());
  EXPECT_NEAR(pm.breakdown().expected_device_time, 0.0, 1e-12);
}

TEST(PlanModel, RejectsNonCleanCut) {
  // Use resnet18 where block interiors are not clean cuts.
  Graph g = models::resnet18(10, 32);
  ExitCandidateOptions copts;
  copts.num_classes = 10;
  const auto cands = find_exit_candidates(g, copts);
  const auto acc = AccuracyModel::for_model("resnet18");
  SurgeryPlan plan;
  plan.partition_after = *g.find("b1_conv1");
  EXPECT_THROW(PlanModel(g, cands, plan, acc, profiles::smartphone(),
                         profiles::edge_cpu(), LinkSpec{mbps(10.0), 0.0}),
               ContractViolation);
}

TEST(PlanModel, BreakdownMatchesPhaseIntegration) {
  Fixture f;
  ASSERT_GE(f.cands.size(), 2u);
  SurgeryPlan plan;
  plan.policy.exits = {{0, 0.2}, {1, 0.4}};
  plan.partition_after = f.cands[1].attach;
  const auto pm = f.make(plan);
  const auto& b = pm.breakdown();

  const int grid = 200000;
  double device_time = 0.0;
  double server_time = 0.0;
  double off = 0.0;
  double acc_sum = 0.0;
  for (int i = 0; i < grid; ++i) {
    const double x = (i + 0.5) / grid;
    const auto ph = pm.phases_for(x);
    device_time += ph.device_time;
    server_time += ph.server_time;
    off += ph.offloaded ? 1.0 : 0.0;
    acc_sum += ph.correct_prob;
  }
  EXPECT_NEAR(device_time / grid, b.expected_device_time,
              b.expected_device_time * 1e-3 + 1e-9);
  EXPECT_NEAR(server_time / grid, b.expected_server_time,
              b.expected_server_time * 1e-3 + 1e-9);
  EXPECT_NEAR(off / grid, b.offload_prob, 1e-3);
  EXPECT_NEAR(acc_sum / grid, b.expected_accuracy, 1e-3);
}

TEST(PlanModel, SecondMomentsDominateSquaredMeans) {
  Fixture f;
  SurgeryPlan plan;
  plan.policy.exits = {{0, 0.1}};
  plan.partition_after = 0;
  const auto pm = f.make(plan);
  const auto& b = pm.breakdown();
  EXPECT_GE(b.device_time_m2 + 1e-15,
            b.expected_device_time * b.expected_device_time);
  EXPECT_GE(b.server_time_cond_m2 + 1e-15,
            b.server_time_cond_m1 * b.server_time_cond_m1);
}

TEST(PlanModel, ExitBeforeCutStaysLocal) {
  Fixture f;
  ASSERT_GE(f.cands.size(), 2u);
  SurgeryPlan plan;
  plan.policy.exits = {{0, 0.0}};  // aggressive early exit
  plan.partition_after = f.cands[1].attach;  // cut after candidate 1
  const auto pm = f.make(plan);
  // Tasks firing at exit 0 must not be offloaded.
  const auto early = pm.phases_for(0.01);
  EXPECT_EQ(early.exit_index, 0);
  EXPECT_FALSE(early.offloaded);
  EXPECT_EQ(early.upload_bytes, 0);
  // Hard tasks continue past the cut.
  const auto hard = pm.phases_for(0.99);
  EXPECT_EQ(hard.exit_index, -1);
  EXPECT_TRUE(hard.offloaded);
  EXPECT_GT(hard.server_time, 0.0);
}

TEST(PlanModel, ExitAfterCutRunsHeadOnServer) {
  Fixture f;
  ASSERT_GE(f.cands.size(), 2u);
  SurgeryPlan plan;
  plan.policy.exits = {{1, 0.0}};
  plan.partition_after = 0;  // offload before the exit
  const auto pm = f.make(plan);
  const auto ph = pm.phases_for(0.01);
  // The early-exiting task still crossed the network.
  EXPECT_TRUE(ph.offloaded);
  EXPECT_EQ(ph.exit_index, 0);
  EXPECT_GT(ph.server_time, 0.0);
  EXPECT_NEAR(ph.device_time, 0.0, 1e-12);
}

TEST(PlanModel, MoreExitsReduceExpectedLatencyOnWeakDevice) {
  Fixture f;
  f.device = profiles::iot_camera();
  SurgeryPlan vanilla;
  vanilla.device_only = true;
  SurgeryPlan with_exits;
  with_exits.device_only = true;
  with_exits.policy.exits = {{0, 0.0}};
  const auto a = f.make(vanilla);
  const auto b = f.make(with_exits);
  EXPECT_LT(b.breakdown().expected_latency, a.breakdown().expected_latency);
}

TEST(PlanModel, UploadTimeScalesWithBandwidth) {
  Fixture fast;
  Fixture slow;
  slow.link.bandwidth = mbps(1.0);
  SurgeryPlan plan;
  plan.partition_after = 0;
  const auto pf = fast.make(plan);
  const auto ps = slow.make(plan);
  // Every task crosses a cut at the input, so the slower link adds exactly
  // the difference in transfer time of the same payload.
  const std::int64_t bytes = pf.breakdown().upload_bytes;
  ASSERT_GT(bytes, 0);
  EXPECT_EQ(ps.breakdown().upload_bytes, bytes);
  const double extra =
      transfer_latency(bytes, slow.link.bandwidth, slow.link.rtt) -
      transfer_latency(bytes, fast.link.bandwidth, fast.link.rtt);
  EXPECT_GT(extra, 0.0);
  EXPECT_NEAR(ps.breakdown().expected_latency -
                  pf.breakdown().expected_latency,
              extra, extra * 1e-9);
}

TEST(PlanModel, PhasesRejectOutOfRangeDifficulty) {
  Fixture f;
  SurgeryPlan plan;
  plan.device_only = true;
  const auto pm = f.make(plan);
  EXPECT_THROW(pm.phases_for(1.0), ContractViolation);
  EXPECT_THROW(pm.phases_for(-0.1), ContractViolation);
}

}  // namespace
}  // namespace scalpel
