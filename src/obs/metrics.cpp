#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace scalpel {

namespace {

/// Value of the j-th sample (0-indexed) of a histogram under the midpoint
/// convention: the c samples in a bin sit at evenly spaced positions strictly
/// inside it, so the first and last samples of the population land inside
/// their bins rather than on the outer boundaries.
double sample_value(const Histogram& hist, double j) {
  double cumulative = 0.0;
  for (std::size_t i = 0; i < hist.bins(); ++i) {
    const auto c = static_cast<double>(hist.bin_count(i));
    if (c > 0.0 && j < cumulative + c) {
      const double within = ((j - cumulative) + 0.5) / c;
      return hist.bin_low(i) +
             (hist.bin_high(i) - hist.bin_low(i)) * within;
    }
    cumulative += c;
  }
  return hist.bin_high(hist.bins() - 1);
}

}  // namespace

double HistogramMetric::quantile(double q) const {
  SCALPEL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const std::size_t n = hist_.total();
  if (n == 0) return 0.0;
  // Continuous rank over the n samples (0-indexed), interpolating between
  // the two straddling samples. q=0 and q=1 resolve to the first/last
  // sample's in-bin midpoint position — previously they snapped to the raw
  // bin boundary, biasing extreme percentiles outward by half a bin step.
  const double rank = q * static_cast<double>(n - 1);
  const double lo_j = std::floor(rank);
  const double hi_j = std::ceil(rank);
  const double lo_v = sample_value(hist_, lo_j);
  if (hi_j == lo_j) return lo_v;
  const double hi_v = sample_value(hist_, hi_j);
  return lo_v + (hi_v - lo_v) * (rank - lo_j);
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramMetric(lo, hi, bins)).first;
  }
  return it->second;
}

Json MetricsRegistry::to_json() const {
  // Each section is filled before it is inserted: a ref returned by set()
  // would dangle at the next insert into `doc`.
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name, Json::number(static_cast<double>(c.value())));
  }
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, Json::number(g.value()));
  }
  Json hists = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry.set("count", Json::number(static_cast<double>(h.total())));
    entry.set("p50", Json::number(h.p50()));
    entry.set("p95", Json::number(h.p95()));
    entry.set("p99", Json::number(h.p99()));
    Json bins = Json::array();
    for (std::size_t i = 0; i < h.histogram().bins(); ++i) {
      Json bin = Json::array();
      bin.push_back(Json::number(h.histogram().bin_low(i)));
      bin.push_back(Json::number(h.histogram().bin_high(i)));
      bin.push_back(
          Json::number(static_cast<double>(h.histogram().bin_count(i))));
      bins.push_back(std::move(bin));
    }
    entry.set("bins", std::move(bins));
    hists.set(name, std::move(entry));
  }
  Json doc = Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(hists));
  return doc;
}

}  // namespace scalpel
