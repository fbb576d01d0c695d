// Determinism of the replication fan-out: a ScenarioRunner aggregate is
// bit-identical for any fan-out thread count. The engine-level outputs of
// the F4/F16/F17-shaped scenarios are pinned in sim_golden_test.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "core/joint.hpp"
#include "edge/builders.hpp"
#include "sim/runner.hpp"

namespace scalpel {
namespace {

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

// Replication fan-out: per-replication counters must be identical across
// fan-out thread counts.
TEST(PerfEquivalence, ReplicatedMatrixBitIdentical) {
  clusters::CampusOptions copts;
  copts.seed = 11;
  copts.num_devices = 5;
  copts.num_servers = 2;
  copts.mean_arrival_rate = 2.0;
  const ProblemInstance instance(clusters::campus(copts));
  const auto d = JointOptimizer(fast_opts()).optimize(instance);

  ScenarioRunner::Options ropts;
  ropts.replications = 4;
  ropts.sim.horizon = 12.0;
  ropts.sim.warmup = 1.0;
  ropts.sim.seed = 11;
  ropts.sim.faults.schedule = FaultSchedule::server_crash(0, 4.0, 7.0);

  std::vector<ReplicatedMetrics> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ropts.threads = threads;
    runs.push_back(ScenarioRunner(instance, d, ropts).run());
  }
  const auto& ref = runs.front();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const auto& other = runs[k];
    EXPECT_EQ(ref.arrived, other.arrived) << "run " << k;
    EXPECT_EQ(ref.completed, other.completed) << "run " << k;
    ASSERT_EQ(ref.replications.size(), other.replications.size());
    for (std::size_t r = 0; r < ref.replications.size(); ++r) {
      const auto& a = ref.replications[r];
      const auto& b = other.replications[r];
      EXPECT_EQ(a.arrived, b.arrived) << "run " << k << " rep " << r;
      EXPECT_EQ(a.completed, b.completed) << "run " << k << " rep " << r;
      EXPECT_EQ(a.failed, b.failed) << "run " << k << " rep " << r;
      EXPECT_EQ(a.events_processed, b.events_processed)
          << "run " << k << " rep " << r;
      if (!a.latency.empty()) {
        EXPECT_EQ(a.latency.mean(), b.latency.mean())
            << "run " << k << " rep " << r;
      }
    }
  }
}

}  // namespace
}  // namespace scalpel
