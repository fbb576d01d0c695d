#pragma once

#include <cstddef>
#include <vector>

namespace scalpel {

/// Sample reservoir with exact quantiles. Suited to the sample counts in this
/// repo (up to a few million latency samples per run).
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { xs_.reserve(n); }
  /// Append every sample of `other` (replication and per-device fan-in).
  /// Merge order does not affect any statistic except the raw values()
  /// ordering.
  void merge(const Samples& other);

  std::size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Half-width of the 95% Student-t confidence interval on the mean; 0 for
  /// fewer than two samples. Uses the t distribution (not the normal
  /// approximation) because replication counts are small (often 8-30).
  double ci95_halfwidth() const;
  double min() const;
  double max() const;
  /// Exact quantile with linear interpolation; q in [0, 1]. Requires data.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// The samples in arrival order until a quantile is read: quantile()
  /// and the pNN() readers sort the values in place, and the order stays
  /// sorted until the next add() or merge() appends in arrival order.
  const std::vector<double>& values() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Point summary of a set of per-replication scalars: what a reconstructed
/// figure cell reports ("mean ± 95% CI over n replications").
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  // half-width, Student-t

  /// True when `value` lies inside [mean - ci95, mean + ci95].
  bool covers(double value) const;
};

Summary summarize(const Samples& samples);
Summary summarize(const std::vector<double>& xs);

/// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
/// (exact table through df=30, normal limit beyond). Exposed so tests and
/// documentation can state the CI formula precisely.
double t_critical_975(std::size_t df);

/// Fixed-bin histogram over [lo, hi); under/overflow captured at the edges.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace scalpel
