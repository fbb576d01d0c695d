#include "sched/shares.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

TEST(Shares, SqrtRuleSumsToCapacity) {
  const auto s = shares::sqrt_rule({1.0, 4.0, 9.0}, 12.0);
  EXPECT_NEAR(s[0] + s[1] + s[2], 12.0, 1e-12);
  // sqrt(1):sqrt(4):sqrt(9) = 1:2:3
  EXPECT_NEAR(s[0], 2.0, 1e-12);
  EXPECT_NEAR(s[1], 4.0, 1e-12);
  EXPECT_NEAR(s[2], 6.0, 1e-12);
}

TEST(Shares, SqrtRuleZeroDemandGetsZero) {
  const auto s = shares::sqrt_rule({0.0, 4.0}, 10.0);
  EXPECT_EQ(s[0], 0.0);
  EXPECT_NEAR(s[1], 10.0, 1e-12);
}

TEST(Shares, InputValidation) {
  EXPECT_THROW(shares::sqrt_rule({}, 1.0), ContractViolation);
  EXPECT_THROW(shares::sqrt_rule({1.0}, 0.0), ContractViolation);
  EXPECT_THROW(shares::sqrt_rule({-1.0, 1.0}, 1.0), ContractViolation);
  EXPECT_THROW(shares::sqrt_rule({0.0, 0.0}, 1.0), ContractViolation);
}

TEST(Shares, ProportionalMatchesWeights) {
  const auto s = shares::proportional({1.0, 3.0}, 8.0);
  EXPECT_NEAR(s[0], 2.0, 1e-12);
  EXPECT_NEAR(s[1], 6.0, 1e-12);
}

TEST(Shares, InverseCostComputes) {
  const double c = shares::inverse_cost({2.0, 8.0}, {1.0, 4.0});
  EXPECT_NEAR(c, 2.0 + 2.0, 1e-12);
  EXPECT_TRUE(std::isinf(shares::inverse_cost({1.0}, {0.0})));
  EXPECT_EQ(shares::inverse_cost({0.0}, {0.0}), 0.0);
}

/// The square-root rule is the exact minimizer of sum w_i / c_i subject to
/// sum c_i = C — verify against dense grid search on random instances.
TEST(Shares, SqrtRuleOptimalityProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w = {rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)};
    const double cap = rng.uniform(1.0, 20.0);
    const auto opt = shares::sqrt_rule(w, cap);
    const double opt_cost = shares::inverse_cost(w, opt);
    for (int g = 1; g < 200; ++g) {
      const double c0 = cap * g / 200.0;
      const double cost = shares::inverse_cost(w, {c0, cap - c0});
      ASSERT_GE(cost, opt_cost - 1e-9)
          << "trial " << trial << " grid point " << g;
    }
  }
}

TEST(Shares, SqrtRuleBeatsEqualAndProportionalOnSkewedDemands) {
  const std::vector<double> w = {1.0, 100.0};
  const double cap = 10.0;
  const double sqrt_cost = shares::inverse_cost(w, shares::sqrt_rule(w, cap));
  const double equal_cost = shares::inverse_cost(w, {cap / 2.0, cap / 2.0});
  const double prop_cost =
      shares::inverse_cost(w, shares::proportional(w, cap));
  EXPECT_LT(sqrt_cost, equal_cost);
  EXPECT_LT(sqrt_cost, prop_cost);
}

}  // namespace
}  // namespace scalpel
