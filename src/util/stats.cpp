#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace scalpel {

double t_critical_975(std::size_t df) {
  SCALPEL_REQUIRE(df >= 1, "t critical value needs df >= 1");
  // Two-sided 95% (upper-tail 0.975) quantiles of Student's t.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  constexpr std::size_t kTableSize = sizeof(kTable) / sizeof(kTable[0]);
  if (df <= kTableSize) return kTable[df - 1];
  return 1.959963984540054;  // normal limit
}

void Samples::merge(const Samples& other) {
  xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
  sorted_ = false;
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  SCALPEL_REQUIRE(!xs_.empty(), "mean of empty sample set");
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::variance() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return s / static_cast<double>(xs_.size() - 1);
}

double Samples::stddev() const { return std::sqrt(variance()); }

double Samples::ci95_halfwidth() const {
  if (xs_.size() < 2) return 0.0;
  return t_critical_975(xs_.size() - 1) * stddev() /
         std::sqrt(static_cast<double>(xs_.size()));
}

double Samples::min() const {
  SCALPEL_REQUIRE(!xs_.empty(), "min of empty sample set");
  return *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  SCALPEL_REQUIRE(!xs_.empty(), "max of empty sample set");
  return *std::max_element(xs_.begin(), xs_.end());
}

double Samples::quantile(double q) const {
  SCALPEL_REQUIRE(!xs_.empty(), "quantile of empty sample set");
  SCALPEL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  ensure_sorted();
  if (xs_.size() == 1) return xs_[0];
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

bool Summary::covers(double value) const {
  return value >= mean - ci95 && value <= mean + ci95;
}

Summary summarize(const Samples& samples) {
  Summary s;
  s.n = samples.count();
  if (s.n == 0) return s;
  s.mean = samples.mean();
  s.stddev = samples.stddev();
  s.ci95 = samples.ci95_halfwidth();
  return s;
}

Summary summarize(const std::vector<double>& xs) {
  Samples s;
  s.reserve(xs.size());
  for (double x : xs) s.add(x);
  return summarize(s);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  SCALPEL_REQUIRE(hi > lo, "histogram needs hi > lo");
  SCALPEL_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor(t));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

}  // namespace scalpel
