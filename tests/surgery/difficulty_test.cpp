#include "surgery/difficulty.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "surgery/exit_policy.hpp"
#include "surgery/exit_setting.hpp"
#include "surgery/plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

TEST(Difficulty, UniformIsIdentity) {
  const DifficultyModel u;
  EXPECT_TRUE(u.is_uniform());
  for (double x : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(u.cdf(x), x);
  }
  EXPECT_DOUBLE_EQ(u.quantile(0.3), 0.3);
}

TEST(Difficulty, CdfIsMonotoneAndNormalized) {
  for (const char* preset : {"easy_heavy", "hard_heavy", "bimodal_easy"}) {
    const auto m = DifficultyModel::preset(preset);
    double prev = -1.0;
    for (double x = 0.0; x <= 1.0; x += 0.01) {
      const double f = m.cdf(x);
      ASSERT_GE(f, prev) << preset;
      ASSERT_GE(f, 0.0);
      ASSERT_LE(f, 1.0);
      prev = f;
    }
    EXPECT_NEAR(m.cdf(0.0), 0.0, 1e-12);
    EXPECT_NEAR(m.cdf(1.0), 1.0, 1e-12);
  }
}

TEST(Difficulty, QuantileInvertsCdf) {
  const auto m = DifficultyModel::preset("easy_heavy");
  for (double u = 0.05; u < 1.0; u += 0.05) {
    EXPECT_NEAR(m.cdf(m.quantile(u)), u, 1e-9);
  }
}

TEST(Difficulty, EasyHeavyPutsMassLow) {
  const auto easy = DifficultyModel::preset("easy_heavy");
  const auto hard = DifficultyModel::preset("hard_heavy");
  EXPECT_GT(easy.cdf(0.3), 0.3);   // more than uniform mass below 0.3
  EXPECT_LT(hard.cdf(0.3), 0.3);
}

TEST(Difficulty, SamplesFollowCdf) {
  const auto m = DifficultyModel::preset("easy_heavy");
  Rng rng(3);
  const int n = 100000;
  int below = 0;
  for (int i = 0; i < n; ++i) {
    const double x = m.sample(rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    if (x <= 0.4) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, m.cdf(0.4), 0.01);
}

TEST(Difficulty, ValidatesInputs) {
  EXPECT_THROW(DifficultyModel(0.0, 1.0), ContractViolation);
  EXPECT_THROW(DifficultyModel(1.0, -2.0), ContractViolation);
  EXPECT_THROW(DifficultyModel::preset("nope"), ContractViolation);
  const DifficultyModel m;
  EXPECT_THROW(m.cdf(1.5), ContractViolation);
  EXPECT_THROW(m.quantile(1.0), ContractViolation);
}

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

TEST(Difficulty, EasyWorkloadFiresExitsMore) {
  Fixture f;
  ExitPolicy p;
  p.exits = {{0, 0.2}};
  const auto uniform = evaluate_policy(f.cands, p, f.acc);
  const auto easy = evaluate_policy(f.cands, p, f.acc,
                                    DifficultyModel::preset("easy_heavy"));
  const auto hard = evaluate_policy(f.cands, p, f.acc,
                                    DifficultyModel::preset("hard_heavy"));
  EXPECT_GT(easy.fire_prob[0], uniform.fire_prob[0]);
  EXPECT_LT(hard.fire_prob[0], uniform.fire_prob[0]);
  // Probabilities still form a distribution.
  EXPECT_NEAR(easy.fire_prob[0] + easy.final_prob, 1.0, 1e-12);
}

TEST(Difficulty, PlanModelMassesMatchSampledPhases) {
  Fixture f;
  SurgeryPlan plan;
  plan.policy.exits = {{0, 0.2}};
  plan.partition_after = f.cands[0].attach;
  const auto diff = DifficultyModel::preset("easy_heavy");
  const PlanModel pm(f.g, f.cands, plan, f.acc, profiles::raspberry_pi4(),
                     profiles::edge_gpu_t4(), LinkSpec{mbps(20.0), ms(1.0)},
                     diff);
  // Monte Carlo through quantile sampling must match the analytic masses.
  Rng rng(9);
  const int n = 200000;
  double off = 0.0;
  double acc_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto ph = pm.phases_for(diff.sample(rng));
    off += ph.offloaded ? 1.0 : 0.0;
    acc_sum += ph.correct_prob;
  }
  EXPECT_NEAR(off / n, pm.breakdown().offload_prob, 0.005);
  EXPECT_NEAR(acc_sum / n, pm.breakdown().expected_accuracy, 0.005);
}

TEST(Difficulty, ExitSettingAdaptsToWorkloadMix) {
  Fixture f;
  ExitSettingOptions easy_opts;
  easy_opts.min_accuracy = 0.70;
  easy_opts.difficulty = DifficultyModel::preset("easy_heavy");
  ExitSettingOptions hard_opts = easy_opts;
  hard_opts.difficulty = DifficultyModel::preset("hard_heavy");
  const auto device = profiles::raspberry_pi4();
  const auto easy = dp_exit_setting(f.g, f.cands, f.acc, device, easy_opts);
  const auto hard = dp_exit_setting(f.g, f.cands, f.acc, device, hard_opts);
  ASSERT_TRUE(easy.feasible && hard.feasible);
  // Easy-dominated traffic benefits more from exits: lower expected latency
  // at the same accuracy floor.
  EXPECT_LT(easy.expected_latency, hard.expected_latency);
}

}  // namespace
}  // namespace scalpel
