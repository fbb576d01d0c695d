#include "core/joint.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "core/objective.hpp"
#include "edge/builders.hpp"

namespace scalpel {
namespace {

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 3;
  o.dp_coverage_bins = 50;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

TEST(Joint, ProducesCompleteValidatedDecision) {
  const ProblemInstance instance(clusters::small_lab());
  JointReport report;
  const auto d = JointOptimizer(fast_opts()).optimize(instance, &report);
  ASSERT_EQ(d.per_device.size(), 4u);
  ASSERT_EQ(d.predicted.size(), 4u);
  EXPECT_TRUE(std::isfinite(d.mean_latency));
  EXPECT_GE(report.iterations, 1u);
  EXPECT_GT(report.surgery_evaluations, 0u);
  EXPECT_EQ(report.objective_history.size(), report.iterations);
  for (const auto& dd : d.per_device) {
    if (!dd.plan.device_only) {
      EXPECT_GE(dd.server, 0);
      EXPECT_GT(dd.bandwidth, 0.0);
      EXPECT_GT(dd.compute_share, 0.0);
      EXPECT_LE(dd.compute_share, 1.0);
    }
  }
}

TEST(Joint, Deterministic) {
  const ProblemInstance instance(clusters::small_lab());
  const auto a = JointOptimizer(fast_opts()).optimize(instance);
  const auto b = JointOptimizer(fast_opts()).optimize(instance);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    EXPECT_EQ(a.per_device[i].plan.device_only,
              b.per_device[i].plan.device_only);
    EXPECT_EQ(a.per_device[i].plan.partition_after,
              b.per_device[i].plan.partition_after);
    EXPECT_EQ(a.per_device[i].server, b.per_device[i].server);
  }
}

TEST(Joint, RespectsAccuracyFloors) {
  const ProblemInstance instance(clusters::small_lab());
  const auto d = JointOptimizer(fast_opts()).optimize(instance);
  for (std::size_t i = 0; i < d.predicted.size(); ++i) {
    EXPECT_TRUE(d.predicted[i].meets_accuracy) << "device " << i;
  }
}

class JointVsBaselineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JointVsBaselineTest, JointNeverLosesOnSmallLab) {
  const ProblemInstance instance(clusters::small_lab());
  const auto joint = JointOptimizer(fast_opts()).optimize(instance);
  const auto base = baselines::by_name(instance, GetParam());
  ASSERT_TRUE(std::isfinite(joint.mean_latency));
  if (std::isfinite(base.mean_latency)) {
    // Small slack: baselines get the same allocation machinery, and the
    // alternation is a heuristic, but it should win or tie.
    EXPECT_LE(joint.mean_latency, base.mean_latency * 1.02)
        << GetParam() << " beat joint";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, JointVsBaselineTest,
                         ::testing::Values("device_only", "edge_only",
                                           "neurosurgeon", "local_multi_exit",
                                           "random"));

TEST(Joint, BeatsBaselinesOnCampusSeeds) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    clusters::CampusOptions copts;
    copts.num_devices = 10;
    copts.num_servers = 3;
    copts.seed = seed;
    const ProblemInstance instance(clusters::campus(copts));
    const auto joint = JointOptimizer(fast_opts()).optimize(instance);
    ASSERT_TRUE(std::isfinite(joint.mean_latency)) << "seed " << seed;
    for (const auto& name : baselines::names()) {
      const auto base = baselines::by_name(instance, name);
      if (std::isfinite(base.mean_latency)) {
        EXPECT_LE(joint.mean_latency, base.mean_latency * 1.05)
            << name << " seed " << seed;
      }
    }
  }
}

TEST(Joint, AblationsCoverSpectrum) {
  const ProblemInstance instance(clusters::small_lab());
  JointOptions full = fast_opts();
  JointOptions no_surgery = fast_opts();
  no_surgery.enable_surgery = false;
  JointOptions no_alloc = fast_opts();
  no_alloc.enable_allocation = false;
  JointOptions no_exits = fast_opts();
  no_exits.enable_exits = false;

  const auto d_full = JointOptimizer(full).optimize(instance);
  const auto d_ns = JointOptimizer(no_surgery).optimize(instance);
  const auto d_na = JointOptimizer(no_alloc).optimize(instance);
  const auto d_ne = JointOptimizer(no_exits).optimize(instance);

  ASSERT_TRUE(std::isfinite(d_full.mean_latency));
  // Joint with everything on must not lose to its own ablations.
  if (std::isfinite(d_ns.mean_latency)) {
    EXPECT_LE(d_full.mean_latency, d_ns.mean_latency * 1.05);
  }
  if (std::isfinite(d_na.mean_latency)) {
    EXPECT_LE(d_full.mean_latency, d_na.mean_latency * 1.05);
  }
  if (std::isfinite(d_ne.mean_latency)) {
    EXPECT_LE(d_full.mean_latency, d_ne.mean_latency * 1.05);
  }
  // Ablated runs must still produce complete decisions.
  EXPECT_EQ(d_ns.per_device.size(), 4u);
  EXPECT_EQ(d_na.per_device.size(), 4u);
  // The no-exits ablation must not enable any exits.
  for (const auto& dd : d_ne.per_device) {
    EXPECT_TRUE(dd.plan.policy.exits.empty());
  }
  // The frozen-surgery ablation must not enable exits either.
  for (const auto& dd : d_ns.per_device) {
    EXPECT_TRUE(dd.plan.policy.exits.empty());
  }
}

TEST(Joint, ObjectiveHistoryImproves) {
  const ProblemInstance instance(clusters::small_lab());
  JointReport report;
  JointOptions o = fast_opts();
  o.max_iterations = 5;
  JointOptimizer(o).optimize(instance, &report);
  // The kept objective is the minimum of the history.
  double best = report.objective_history.front();
  for (double v : report.objective_history) best = std::min(best, v);
  EXPECT_TRUE(std::isfinite(best));
}

TEST(Joint, HandlesOverloadByKeepingWorkLocalOrShedding) {
  // Crank arrival rates so offloading everything is impossible; the joint
  // optimizer must still return a finite (possibly partially local) plan or
  // at worst a complete decision.
  clusters::CampusOptions copts;
  copts.num_devices = 8;
  copts.num_servers = 1;
  copts.mean_arrival_rate = 12.0;
  copts.seed = 5;
  const ProblemInstance instance(clusters::campus(copts));
  const auto d = JointOptimizer(fast_opts()).optimize(instance);
  EXPECT_EQ(d.per_device.size(), 8u);
  // Every stable prediction should be positive; unstable ones are permitted
  // under genuine overload but the decision must remain well-formed.
  for (const auto& p : d.predicted) {
    if (p.stable) {
      EXPECT_GT(p.expected_latency, 0.0);
    }
  }
}

TEST(Joint, ReportSolveTimePositive) {
  const ProblemInstance instance(clusters::small_lab());
  JointReport report;
  JointOptimizer(fast_opts()).optimize(instance, &report);
  EXPECT_GT(report.solve_seconds, 0.0);
  EXPECT_LT(report.solve_seconds, 30.0);
}

}  // namespace
}  // namespace scalpel
