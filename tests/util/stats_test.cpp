#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"

namespace scalpel {
namespace {

TEST(Samples, QuantilesExactSmallSet) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.p50(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(Samples, QuantileInterpolates) {
  Samples s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 3.0);
}

TEST(Samples, QuantileAfterMoreAdds) {
  // Adding after a quantile query must re-sort correctly.
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.p50(), 3.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(Samples, QuantileAfterAddSeesNewSample) {
  // A sample added after a quantile read must count in the next one.
  Samples s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.p50(), 2.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 1.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Samples, RejectsEmptyQueries) {
  Samples s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.quantile(0.5), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
}

TEST(Samples, RejectsBadQuantile) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), ContractViolation);
  EXPECT_THROW(s.quantile(1.1), ContractViolation);
}

TEST(Samples, MeanAndStddev) {
  Samples s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Samples, MergeConcatenatesAndResorts) {
  Samples a;
  a.add(3.0);
  a.add(1.0);
  EXPECT_DOUBLE_EQ(a.p50(), 2.0);  // forces the sorted state
  Samples b;
  b.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.p50(), 2.5);
  Samples empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Samples, VarianceMatchesStddev) {
  Samples s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev() * s.stddev(), s.variance(), 1e-12);
  Samples single;
  single.add(1.0);
  EXPECT_EQ(single.variance(), 0.0);
}

TEST(StudentT, CriticalValues) {
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-9);
  EXPECT_NEAR(t_critical_975(7), 2.365, 1e-9);   // 8 replications
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-9);
  EXPECT_NEAR(t_critical_975(1000), 1.95996, 1e-4);
  EXPECT_THROW(t_critical_975(0), ContractViolation);
}

TEST(Samples, Ci95UsesStudentT) {
  // n=8 -> df=7 -> t=2.365; stddev of {1..8} is sqrt(6).
  Samples s;
  for (int i = 1; i <= 8; ++i) s.add(static_cast<double>(i));
  const double expected = 2.365 * std::sqrt(6.0) / std::sqrt(8.0);
  EXPECT_NEAR(s.ci95_halfwidth(), expected, 1e-9);
  Samples single;
  single.add(5.0);
  EXPECT_EQ(single.ci95_halfwidth(), 0.0);
}

TEST(Summary, SummarizeAndCovers) {
  const Summary s = summarize(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.ci95, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_TRUE(s.covers(3.0));
  EXPECT_TRUE(s.covers(3.0 + s.ci95));
  EXPECT_FALSE(s.covers(3.0 + s.ci95 * 1.01));
  EXPECT_FALSE(s.covers(-10.0));
  const Summary empty = summarize(Samples{});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-5.0);   // clamped to bin 0
  h.add(50.0);   // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(5.0, 5.0, 3), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

}  // namespace
}  // namespace scalpel
