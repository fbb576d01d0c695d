#include "sched/queueing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

TEST(Mm1, SojournFormula) {
  // lambda=2, mu=5: W = 1/(5-2).
  EXPECT_NEAR(queueing::mm1_sojourn(2.0, 5.0), 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(std::isinf(queueing::mm1_sojourn(5.0, 5.0)));
  EXPECT_TRUE(std::isinf(queueing::mm1_sojourn(6.0, 5.0)));
}

TEST(Mm1, WaitPlusServiceEqualsSojourn) {
  const double lambda = 3.0;
  const double mu = 7.0;
  EXPECT_NEAR(queueing::mm1_wait(lambda, mu) + 1.0 / mu,
              queueing::mm1_sojourn(lambda, mu), 1e-12);
}

TEST(Mg1, ReducesToMm1ForExponentialService) {
  // Exponential service: m1 = 1/mu, m2 = 2/mu^2.
  const double lambda = 2.0;
  const double mu = 5.0;
  EXPECT_NEAR(queueing::mg1_sojourn(lambda, 1.0 / mu, 2.0 / (mu * mu)),
              queueing::mm1_sojourn(lambda, mu), 1e-12);
}

TEST(Mg1, DeterministicServiceHalvesWait) {
  // M/D/1 waiting time is half of M/M/1's at the same rate.
  const double lambda = 4.0;
  const double s = 0.2;  // rho = 0.8
  const double md1_wait = queueing::md1_sojourn(lambda, s) - s;
  const double mm1_wait = queueing::mm1_wait(lambda, 1.0 / s);
  EXPECT_NEAR(md1_wait, 0.5 * mm1_wait, 1e-12);
}

TEST(Mg1, UnstableIsInf) {
  EXPECT_TRUE(std::isinf(queueing::mg1_sojourn(10.0, 0.1, 0.01)));
  EXPECT_TRUE(std::isinf(queueing::md1_sojourn(10.0, 0.1)));
}

TEST(Mg1, ZeroServiceIsZero) {
  EXPECT_EQ(queueing::mg1_sojourn(5.0, 0.0, 0.0), 0.0);
}

TEST(Mg1, RejectsInvalidMoments) {
  EXPECT_THROW(queueing::mg1_sojourn(-1.0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(queueing::mg1_sojourn(1.0, -1.0, 1.0), ContractViolation);
}

TEST(Mg1, ClampsSubDeterministicVariance) {
  // m2 < m1^2 is physically impossible; fp scaling can produce it, so the
  // implementation clamps to deterministic service rather than rejecting.
  const double got = queueing::mg1_sojourn(1.0, 0.2, 0.2 * 0.2 * 0.999999);
  EXPECT_NEAR(got, queueing::md1_sojourn(1.0, 0.2), 1e-9);
}

TEST(Kleinrock, SplitsSumToCapacity) {
  const auto c = queueing::kleinrock({1.0, 2.0}, {0.5, 0.25}, 3.0);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0] + c[1], 3.0, 1e-12);
  // Every class is stable: c_i / w_i > lambda_i.
  EXPECT_GT(c[0] / 0.5, 1.0);
  EXPECT_GT(c[1] / 0.25, 2.0);
}

TEST(Kleinrock, InfeasibleLoadReturnsEmpty) {
  EXPECT_TRUE(queueing::kleinrock({10.0}, {1.0}, 5.0).empty());
  EXPECT_TRUE(queueing::kleinrock({1.0, 1.0}, {1.0, 1.0}, 2.0).empty());
}

TEST(Kleinrock, ZeroRateClassGetsNothing) {
  const auto c = queueing::kleinrock({0.0, 2.0}, {0.0, 0.5}, 4.0);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 0.0);
  EXPECT_NEAR(c[1], 4.0, 1e-12);
}

/// Kleinrock's closed form is the exact minimizer of the rate-weighted mean
/// sojourn; verify against a dense grid on two-class instances.
TEST(Kleinrock, OptimalityProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> lambda = {rng.uniform(0.5, 3.0),
                                        rng.uniform(0.5, 3.0)};
    const std::vector<double> work = {rng.uniform(0.05, 0.3),
                                      rng.uniform(0.05, 0.3)};
    const double cap =
        (lambda[0] * work[0] + lambda[1] * work[1]) * rng.uniform(1.3, 3.0);
    const auto opt = queueing::kleinrock(lambda, work, cap);
    ASSERT_FALSE(opt.empty());
    const double opt_cost = queueing::mean_sojourn(lambda, work, opt);
    for (int g = 1; g < 300; ++g) {
      const double c0 = cap * g / 300.0;
      const double cost =
          queueing::mean_sojourn(lambda, work, {c0, cap - c0});
      ASSERT_GE(cost, opt_cost - 1e-9) << "trial " << trial;
    }
  }
}

TEST(Kleinrock, MeanSojournInfForUnderProvisionedClass) {
  // Give class 0 less capacity than stability requires.
  const std::vector<double> lambda = {2.0, 1.0};
  const std::vector<double> work = {0.5, 0.1};
  const double cost = queueing::mean_sojourn(lambda, work, {0.9, 1.0});
  EXPECT_TRUE(std::isinf(cost));
}

TEST(Kleinrock, MeanSojournZeroWhenNoTraffic) {
  EXPECT_EQ(queueing::mean_sojourn({0.0}, {1.0}, {0.0}), 0.0);
}

}  // namespace
}  // namespace scalpel
