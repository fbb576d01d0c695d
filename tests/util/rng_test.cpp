#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/assert.hpp"

namespace scalpel {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const double lambda = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.exponential(0.5), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.exponential(-1.0), ContractViolation);
}

TEST(Rng, NormalMoments) {
  Rng rng(31);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, LognormalMeanAndCov) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.lognormal_mean_cov(5.0, 0.4);
    ASSERT_GT(v, 0.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double cov = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(cov, 0.4, 0.02);
}

TEST(Rng, LognormalZeroCovIsDeterministic) {
  Rng rng(41);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cov(3.0, 0.0), 3.0);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(53);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerateInput) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), ContractViolation);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), ContractViolation);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), ContractViolation);
}

// Golden values pin the cross-platform bit-identical contract documented in
// rng.hpp: any change to the generator, the seeding procedure, or the
// substream derivation invalidates every recorded simulation result and must
// be made deliberately (regenerate with a throwaway main()).
TEST(Rng, GoldenNextU64DefaultSeed) {
  Rng rng;
  const std::uint64_t expected[] = {
      0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
      0x01334ef8ed3cc2bdULL, 0xe45cbd6a2d9e96dbULL};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.next_u64(), e);
}

TEST(Rng, GoldenNextU64Seed123) {
  Rng rng(123);
  const std::uint64_t expected[] = {
      0x325a8fa1d1a069f9ULL, 0xf835e3c7656d4d5eULL, 0x77aa2b46c3f2a62fULL,
      0x20820299aacf8206ULL, 0x5678d8b3959d78deULL};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.next_u64(), e);
}

TEST(Rng, GoldenSubstreamSeeds) {
  EXPECT_EQ(Rng::substream_seed(1, 0), 0x215e73fdcd7e7f20ULL);
  EXPECT_EQ(Rng::substream_seed(1, 1), 0xaafc5bb17b9c470bULL);
  EXPECT_EQ(Rng::substream_seed(1, 2), 0x720769ed6fa476e1ULL);
  EXPECT_EQ(Rng::substream_seed(7, 0), 0xd18cc42759cabfdeULL);
  EXPECT_EQ(Rng::substream_seed(7, 1000000), 0x942ffe8144b26942ULL);
}

TEST(Rng, GoldenSubstreamDraws) {
  Rng sub = Rng(42).substream(3);
  const std::uint64_t expected[] = {
      0x65feeef7f195f0cfULL, 0xe391a3b27f30c0d8ULL, 0x4fd5b71b2f0ad514ULL};
  for (std::uint64_t e : expected) EXPECT_EQ(sub.next_u64(), e);
}

TEST(Rng, SubstreamIgnoresDrawHistory) {
  // The substream is keyed on the construction seed, not the current state:
  // the fan-out must hand replication r the same stream no matter how much
  // of the parent was consumed first.
  Rng fresh(77);
  Rng used(77);
  for (int i = 0; i < 1000; ++i) used.next_u64();
  Rng a = fresh.substream(5);
  Rng b = used.substream(5);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SubstreamsDistinctPerId) {
  Rng parent(7);
  Rng s0 = parent.substream(0);
  Rng s1 = parent.substream(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SubstreamZeroDiffersFromRoot) {
  Rng root(7);
  Rng s0 = root.substream(0);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (root.next_u64() == s0.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SubstreamSeedsCollisionFreeOverManyIds) {
  Rng parent(13);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    seeds.insert(Rng::substream_seed(13, id));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Rng, SeedAccessorReturnsConstructionSeed) {
  Rng rng(1234);
  rng.next_u64();
  EXPECT_EQ(rng.seed(), 1234u);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(61);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace scalpel
