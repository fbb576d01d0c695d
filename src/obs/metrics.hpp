#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/stats.hpp"

namespace scalpel {
class Json;

/// Monotonic event counter. Obtain once from the registry, then inc() on the
/// hot path — no name lookup per event.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, availability, rung, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bin latency histogram with quantile estimates. Backed by the
/// bounded stats::Histogram so recording is O(1) and allocation-free;
/// quantiles interpolate linearly inside the hit bin (the underflow/overflow
/// edge bins clamp to the configured range, so choose [lo, hi) to cover the
/// latencies of interest).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : hist_(lo, hi, bins) {}

  void add(double x) { hist_.add(x); }
  const Histogram& histogram() const { return hist_; }
  std::size_t total() const { return hist_.total(); }
  /// Approximate quantile; q in [0, 1]. Returns 0 with no samples.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  Histogram hist_;
};

/// Name-keyed registry the simulator, admission gate, and fault machinery
/// publish into. Names are dot-separated, lowercase, unit-suffixed where a
/// unit applies (e.g. "sim.task.latency_seconds"); see README
/// "Observability" for the scheme. Lookup happens once at wiring time (the
/// returned references stay valid for the registry's lifetime — std::map
/// never moves its nodes); export iterates in sorted name order so emitted
/// documents are deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramMetric>& histograms() const {
    return histograms_;
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// p50, p95, p99, bins: [[lo, hi, count], ...]}}} with sorted keys.
  Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace scalpel
