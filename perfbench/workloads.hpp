#pragma once

// The benchmark's pinned pipelines. Each workload is one batch pipeline in
// one process: build the instance, solve a cold plan, simulate (with a
// controller where the workload has one), export. Every stochastic input is
// derived from the seed; the cluster itself is pinned (cluster seed 7).

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct PipelineConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Identifies this pipeline among those of one run; its spans carry it.
  std::uint64_t pipeline = 0;
  /// Traced runs wrap every call into a layer's public API in a span, route
  /// the solver seams through a reporting wrapper, and replay the exit DP
  /// after the pipeline. Timed runs leave all of that off.
  bool traced = false;
  /// Simulated seconds; 0 selects the workload's pinned horizon.
  double horizon = 0.0;
  /// Directory the export step writes into.
  std::string out_dir = ".";
};

const std::vector<std::string>& workload_names();

/// Runs one pipeline and returns its result: host timings, simulated
/// statistics, correctness checks and, when traced, per-layer figures and
/// the span list.
scalpel::Json run_pipeline(const PipelineConfig& config);

}  // namespace perfbench
