#include "surgery/exit_policy.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "profile/compute_profile.hpp"
#include "profile/latency_model.hpp"
#include "surgery/cost_table.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

struct Fixture {
  Graph g = models::tiny_cnn();
  std::vector<ExitCandidate> cands;
  AccuracyModel acc = AccuracyModel::for_model("tiny_cnn");
  Fixture() {
    ExitCandidateOptions opts;
    opts.num_classes = 10;
    opts.min_spacing = 0.0;
    cands = find_exit_candidates(g, opts);
  }
};

TEST(Policy, EmptyPolicyIsVanillaModel) {
  Fixture f;
  const ExitPolicy p;
  const auto stats = evaluate_policy(f.cands, p, f.acc);
  EXPECT_EQ(stats.final_prob, 1.0);
  EXPECT_NEAR(stats.expected_accuracy, f.acc.a_max, 1e-12);
  EXPECT_TRUE(stats.fire_prob.empty());
}

TEST(Policy, ValidationCatchesBadPolicies) {
  Fixture f;
  ASSERT_GE(f.cands.size(), 2u);
  ExitPolicy bad_order;
  bad_order.exits = {{1, 0.1}, {0, 0.1}};
  EXPECT_THROW(validate_policy(bad_order, f.cands), ContractViolation);
  ExitPolicy dup;
  dup.exits = {{0, 0.1}, {0, 0.2}};
  EXPECT_THROW(validate_policy(dup, f.cands), ContractViolation);
  ExitPolicy out_of_range;
  out_of_range.exits = {{f.cands.size(), 0.1}};
  EXPECT_THROW(validate_policy(out_of_range, f.cands), ContractViolation);
  ExitPolicy bad_theta;
  bad_theta.exits = {{0, 1.0}};
  EXPECT_THROW(validate_policy(bad_theta, f.cands), ContractViolation);
}

TEST(Policy, ProbabilitiesFormDistribution) {
  Fixture f;
  ExitPolicy p;
  for (std::size_t i = 0; i < f.cands.size(); ++i) {
    p.exits.push_back({i, 0.2});
  }
  const auto stats = evaluate_policy(f.cands, p, f.acc);
  double total = stats.final_prob;
  for (double fp : stats.fire_prob) {
    EXPECT_GE(fp, 0.0);
    total += fp;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Policy, HigherThetaFiresLess) {
  Fixture f;
  ExitPolicy aggressive;
  aggressive.exits = {{0, 0.0}};
  ExitPolicy conservative;
  conservative.exits = {{0, 0.8}};
  const auto a = evaluate_policy(f.cands, aggressive, f.acc);
  const auto c = evaluate_policy(f.cands, conservative, f.acc);
  EXPECT_GT(a.fire_prob[0], c.fire_prob[0]);
  EXPECT_LT(a.final_prob, c.final_prob);
}

TEST(Policy, ExitsMayReduceAccuracy) {
  Fixture f;
  ExitPolicy p;
  p.exits = {{0, 0.0}};
  const auto with = evaluate_policy(f.cands, p, f.acc);
  const auto without = evaluate_policy(f.cands, {}, f.acc);
  EXPECT_LE(with.expected_accuracy, without.expected_accuracy + 1e-12);
  EXPECT_GT(with.expected_accuracy, 0.0);
}

TEST(Policy, LaterExitCoveredByEarlierFiresOnlyIncrement) {
  Fixture f;
  ASSERT_GE(f.cands.size(), 2u);
  // If the earlier exit is maximally aggressive, the later exit only takes
  // the incremental coverage between the two capabilities.
  ExitPolicy p;
  p.exits = {{0, 0.0}, {1, 0.0}};
  const auto stats = evaluate_policy(f.cands, p, f.acc);
  const double cap0 = f.acc.capability(f.cands[0].depth_fraction);
  const double cap1 = f.acc.capability(f.cands[1].depth_fraction);
  EXPECT_NEAR(stats.fire_prob[0], cap0, 1e-12);
  EXPECT_NEAR(stats.fire_prob[1], cap1 - cap0, 1e-12);
}

TEST(Policy, LatencyMatchesManualComputation) {
  Fixture f;
  const auto profile = profiles::smartphone();
  ExitPolicy p;
  p.exits = {{0, 0.3}};
  const auto stats = evaluate_policy(f.cands, p, f.acc);
  const ProfileCosts costs = profile_costs(f.g, f.cands, profile);
  const double latency = policy_cost(
      f.cands, p, stats, build_cost_table(f.g, f.cands, -1, 0.0, costs, costs));
  const auto& cand = f.cands[0];
  const double seg1 =
      LatencyModel::range_latency(f.g, 0, cand.attach, profile);
  const double head = LatencyModel::graph_latency(cand.head, profile);
  const double seg2 =
      LatencyModel::range_latency(f.g, cand.attach, f.g.output(), profile);
  const double manual = (seg1 + head) + stats.final_prob * seg2;
  EXPECT_NEAR(latency, manual, 1e-12);
}

}  // namespace
}  // namespace scalpel
