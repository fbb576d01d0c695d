#pragma once

// In-memory span recorder for the traced benchmark run. Spans are opened
// around calls into a layer's public API from the benchmark's own code
// (never inside the library), held in a vector, and written out once the
// pipeline has finished. A disabled recorder costs one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct Span {
  std::string name;   // layer-qualified, e.g. "core.joint.optimize"
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     // index into the span vector, -1 = top level
  std::uint64_t pipeline = 0;  // spans of one pipeline share this id
  std::uint64_t allocs = 0;    // operator-new calls inside the span
};

/// Per-name totals derived from the closed spans.
struct LayerTotals {
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // durations minus the time child spans cover
  std::uint64_t self_allocs = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::uint64_t pipeline);

  bool enabled() const { return enabled_; }
  /// Opens a span as a child of the innermost open span; -1 when disabled.
  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Totals keyed by span name. Children of one span never overlap (the
  /// recorder is used from one thread), so a span's self time is its
  /// duration minus the summed durations of its direct children.
  std::map<std::string, LayerTotals> totals() const;
  /// Summed duration of the top-level spans.
  double top_level_seconds() const;
  scalpel::Json to_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  std::uint64_t pipeline_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::uint64_t> open_allocs_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.open(name)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench
