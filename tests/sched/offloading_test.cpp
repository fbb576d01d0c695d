#include "sched/offloading.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/oracles.hpp"
#include "sched/queueing.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

/// Random feasible instance: total load comfortably below total capacity.
OffloadingProblem random_problem(std::size_t n, std::size_t m, Rng& rng) {
  OffloadingProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    p.rate.push_back(rng.uniform(0.5, 2.0));
    std::vector<double> base;
    std::vector<double> work;
    for (std::size_t j = 0; j < m; ++j) {
      base.push_back(rng.uniform(0.005, 0.05));
      work.push_back(rng.uniform(0.01, 0.08));
    }
    p.base_latency.push_back(std::move(base));
    p.work.push_back(std::move(work));
  }
  return p;
}

TEST(Offloading, ValidateCatchesArityErrors) {
  OffloadingProblem p;
  EXPECT_THROW(p.validate(), ContractViolation);
  p.rate = {1.0};
  p.base_latency = {{0.1, 0.2}};  // two servers but work has one
  p.work = {{0.1}};
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(Offloading, EvaluateSingleDeviceMatchesClosedForm) {
  OffloadingProblem p;
  p.rate = {2.0};
  p.base_latency = {{0.01}};
  p.work = {{0.1}};  // mu = 1/0.1 = 10 with full capacity
  std::vector<double> lat;
  const double cost = evaluate_assignment(p, {0}, &lat);
  const double expect = 0.01 + queueing::mm1_sojourn(2.0, 10.0);
  EXPECT_NEAR(cost, expect, 1e-9);
  EXPECT_NEAR(lat[0], expect, 1e-9);
}

TEST(Offloading, EvaluateDetectsOverload) {
  OffloadingProblem p;
  p.rate = {20.0};
  p.base_latency = {{0.01}};
  p.work = {{0.1}};  // load 2.0 > 1
  const double cost = evaluate_assignment(p, {0}, nullptr);
  EXPECT_TRUE(std::isinf(cost));
}

TEST(Offloading, EvaluateRejectsForbiddenPair) {
  OffloadingProblem p;
  p.rate = {1.0};
  p.base_latency = {
      {std::numeric_limits<double>::infinity(), 0.01}};
  p.work = {{0.1, 0.1}};
  EXPECT_TRUE(std::isinf(evaluate_assignment(p, {0}, nullptr)));
  EXPECT_FALSE(std::isinf(evaluate_assignment(p, {1}, nullptr)));
}

TEST(Offloading, GreedyProducesFeasibleSolutions) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = random_problem(6, 3, rng);
    const auto s = greedy_offloading(p);
    EXPECT_TRUE(s.feasible) << trial;
    EXPECT_EQ(s.server_of.size(), 6u);
    EXPECT_TRUE(std::isfinite(s.social_cost));
  }
}

TEST(Offloading, BestResponseConvergesAndImprovesOnGreedy) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = random_problem(5, 3, rng);
    const auto greedy = greedy_offloading(p);
    const auto br = best_response_offloading(p);
    EXPECT_TRUE(br.converged) << trial;
    EXPECT_TRUE(br.feasible) << trial;
    // Best-response starts from greedy; each move strictly improves the
    // mover, and with the Kleinrock-shared latency this improves the
    // potential, so social cost should rarely regress. Allow slack for the
    // pathological cases game theory permits.
    EXPECT_LE(br.social_cost, greedy.social_cost * 1.25 + 1e-9) << trial;
  }
}

TEST(Offloading, BestResponseIsNashEquilibrium) {
  Rng rng(7);
  const auto p = random_problem(4, 3, rng);
  const auto br = best_response_offloading(p);
  ASSERT_TRUE(br.converged);
  // No unilateral move may improve the mover by more than epsilon.
  for (std::size_t i = 0; i < p.num_devices(); ++i) {
    std::vector<double> lat;
    evaluate_assignment(p, br.server_of, &lat);
    for (std::size_t j = 0; j < p.num_servers(); ++j) {
      if (static_cast<int>(j) == br.server_of[i]) continue;
      auto trial_assign = br.server_of;
      trial_assign[i] = static_cast<int>(j);
      std::vector<double> trial_lat;
      const double c = evaluate_assignment(p, trial_assign, &trial_lat);
      if (!std::isfinite(c)) continue;
      EXPECT_GE(trial_lat[i], lat[i] * (1.0 - 1e-5))
          << "device " << i << " would move to " << j;
    }
  }
}

TEST(Offloading, BestResponseNearOptimalOnSmallInstances) {
  Rng rng(8);
  for (int trial = 0; trial < 8; ++trial) {
    const auto p = random_problem(4, 2, rng);
    const auto opt = exhaustive_offloading(p);
    const auto br = best_response_offloading(p);
    ASSERT_TRUE(opt.feasible);
    ASSERT_TRUE(br.feasible);
    EXPECT_LE(br.social_cost, opt.social_cost * 1.6 + 1e-9)
        << "trial " << trial;
    EXPECT_GE(br.social_cost, opt.social_cost - 1e-9);
  }
}

TEST(Offloading, ExhaustiveGuardsAgainstExplosion) {
  Rng rng(9);
  const auto p = random_problem(20, 10, rng);
  EXPECT_THROW(exhaustive_offloading(p), ContractViolation);
}

TEST(Offloading, KleinrockSharesSumWithinServerCapacity) {
  Rng rng(10);
  const auto p = random_problem(8, 3, rng);
  const auto s = best_response_offloading(p);
  const auto shares = kleinrock_shares(p, s.server_of);
  std::vector<double> per_server(p.num_servers(), 0.0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    EXPECT_GT(shares[i], 0.0);
    per_server[static_cast<std::size_t>(s.server_of[i])] += shares[i];
  }
  for (double total : per_server) {
    EXPECT_LE(total, 1.0 + 1e-9);
  }
}

TEST(Offloading, KleinrockSharesZeroOnOverload) {
  OffloadingProblem p;
  p.rate = {20.0};
  p.base_latency = {{0.0}};
  p.work = {{0.1}};
  const auto shares = kleinrock_shares(p, {0});
  EXPECT_EQ(shares[0], 0.0);
}

TEST(Offloading, HeavyDeviceGetsFasterServerUnderContention) {
  // Two servers, one 4x as fast, so every task needs a quarter of the
  // full-speed time there; the heavy class should end up on the fast one
  // after best-response.
  OffloadingProblem p;
  p.rate = {10.0, 0.5};
  p.base_latency = {{0.001, 0.001}, {0.001, 0.001}};
  p.work = {{0.3 / 4.0, 0.3}, {0.05 / 4.0, 0.05}};
  const auto s = best_response_offloading(p);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.server_of[0], 0);  // heavy -> big server
}

}  // namespace
}  // namespace scalpel
