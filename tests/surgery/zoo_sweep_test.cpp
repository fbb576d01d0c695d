// Zoo-wide property sweeps: every model in the zoo — chains, residual
// blocks, fire modules, inception modules — must satisfy the same surgery
// invariants. These catch graph-topology edge cases that single-model tests
// miss.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/models.hpp"
#include "profile/latency_model.hpp"
#include "surgery/exit_setting.hpp"
#include "surgery/partition.hpp"
#include "surgery/plan.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

class ZooSweepTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    g_ = models::by_name(GetParam());
    acc_ = AccuracyModel::for_model(GetParam());
    ExitCandidateOptions opts;
    opts.num_classes = 10;
    cands_ = find_exit_candidates(g_, opts);
  }
  Graph g_;
  std::vector<ExitCandidate> cands_;
  AccuracyModel acc_;
};

TEST_P(ZooSweepTest, PlanModelMassesIntegrateToOne) {
  if (cands_.empty()) GTEST_SKIP() << "no exit candidates";
  const auto cuts = g_.clean_cuts();
  ASSERT_FALSE(cuts.empty());
  // Mid-depth cut with one mid exit enabled.
  SurgeryPlan plan;
  plan.partition_after = cuts[cuts.size() / 2].after;
  plan.policy.exits = {{cands_.size() / 2, 0.3}};
  const PlanModel pm(g_, cands_, plan, acc_, profiles::raspberry_pi4(),
                     profiles::edge_gpu_t4(), LinkSpec{mbps(30.0), ms(1.0)});
  const auto& b = pm.breakdown();
  EXPECT_GE(b.offload_prob, 0.0);
  EXPECT_LE(b.offload_prob, 1.0 + 1e-12);
  EXPECT_GT(b.expected_latency, 0.0);
  EXPECT_GT(b.expected_accuracy, 0.0);
  EXPECT_LE(b.expected_accuracy, 1.0);
  // Sampled phases agree with the analytic expectations.
  Rng rng(11);
  const int n = 20000;
  double lat = 0.0;
  double off = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto ph = pm.phases_for(rng.uniform());
    const double upload =
        ph.offloaded
            ? transfer_latency(ph.upload_bytes, mbps(30.0), ms(1.0))
            : 0.0;
    lat += ph.device_time + upload + ph.server_time;
    off += ph.offloaded ? 1.0 : 0.0;
  }
  EXPECT_NEAR(lat / n, b.expected_latency, b.expected_latency * 0.02);
  EXPECT_NEAR(off / n, b.offload_prob, 0.02);
}

TEST_P(ZooSweepTest, PartitionOptimalityHoldsOnEveryTopology) {
  const auto device = profiles::smartphone();
  const auto server = profiles::edge_gpu_t4();
  const LinkSpec link{mbps(25.0), ms(2.0)};
  const auto best = optimal_partition(g_, device, server, link);
  for (const auto& c : partition_curve(g_, device, server, link)) {
    ASSERT_LE(best.total(), c.total() + 1e-9);
  }
}

TEST_P(ZooSweepTest, DpExitSettingFeasibleAtRelaxedFloor) {
  if (cands_.empty()) GTEST_SKIP() << "no exit candidates";
  ExitSettingOptions opts;
  opts.min_accuracy = acc_.a_max * 0.9;
  opts.theta_grid = {0.0, 0.3, 0.6};
  opts.coverage_bins = 60;
  const auto r = dp_exit_setting(g_, cands_, acc_, profiles::raspberry_pi4(),
                                 opts);
  ASSERT_TRUE(r.feasible) << GetParam();
  EXPECT_GE(r.stats.expected_accuracy, opts.min_accuracy - 1e-9);
  // Exits must never make the expected latency worse than vanilla.
  const auto vanilla = evaluate_policy(cands_, {}, acc_);
  const ProfileCosts costs =
      profile_costs(g_, cands_, profiles::raspberry_pi4());
  const double vanilla_latency = policy_cost(
      cands_, {}, vanilla, build_cost_table(g_, cands_, -1, 0.0, costs, costs));
  EXPECT_LE(r.expected_latency, vanilla_latency + 1e-9) << GetParam();
}

TEST_P(ZooSweepTest, SegmentLatenciesTileTheWholeGraph) {
  // Sum of inter-candidate segments + tail equals the whole-graph latency
  // regardless of graph topology.
  if (cands_.empty()) GTEST_SKIP() << "no exit candidates";
  const auto profile = profiles::edge_cpu();
  double total = 0.0;
  NodeId prev = 0;
  for (const auto& c : cands_) {
    total += LatencyModel::range_latency(g_, prev, c.attach, profile);
    prev = c.attach;
  }
  total += LatencyModel::range_latency(g_, prev, g_.output(), profile);
  EXPECT_NEAR(total, LatencyModel::graph_latency(g_, profile),
              LatencyModel::graph_latency(g_, profile) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSweepTest,
                         ::testing::Values("lenet5", "alexnet", "vgg16",
                                           "vgg19", "resnet18", "resnet34",
                                           "resnet50", "googlenet",
                                           "squeezenet", "mobilenet_v1",
                                           "tiny_yolo", "tiny_cnn"));

}  // namespace
}  // namespace scalpel
