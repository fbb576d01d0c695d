#pragma once

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "surgery/exit_setting.hpp"

namespace scalpel {

/// Options for the joint optimizer. The two enable_* switches implement the
/// ablations reported in the evaluation (surgery-only / allocation-only).
struct JointOptions {
  /// Alternating (surgery <-> allocation) rounds.
  std::size_t max_iterations = 6;

  /// Ablation: optimize model surgery (partition + exits). When false the
  /// plan is frozen to the Neurosurgeon partition computed under the initial
  /// equal allocation, with no exits.
  bool enable_surgery = true;
  /// Within surgery, allow early exits (false = partition-only surgery).
  bool enable_exits = true;
  /// Extension: allow INT8-quantized uploads as a surgery dimension (1/4 of
  /// the activation bytes for a small accuracy penalty). Off by default to
  /// stay faithful to the base reproduction; bench_f13 studies it.
  bool enable_quantized_upload = false;
  /// Ablation: optimize resource allocation. When false the initial
  /// equal-split bandwidth / round-robin servers / equal shares stay fixed.
  bool enable_allocation = true;

  /// Exit-threshold grid and exit count bound used by the surgery DP.
  std::vector<double> theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60, 0.75};
  static constexpr std::size_t max_exits = 3;
  std::size_t dp_coverage_bins = 60;
};

/// The exit-setting DP settings `opts` gives `device`: its accuracy floor
/// and input difficulty, the threshold grid, the coverage bins, and
/// max_exits, or 0 when exits are disabled. The surgery step and the
/// degradation ladder both take their DP settings from here.
ExitSettingOptions exit_setting_options(const JointOptions& opts,
                                        const Device& device);

/// Diagnostics from a solve (drives the scalability/convergence benches).
struct JointReport {
  std::size_t iterations = 0;
  std::vector<double> objective_history;  // mean latency after each round
  double solve_seconds = 0.0;
  /// Exit-setting DP configurations examined: a logical count, as if each
  /// cut's DP ran from scratch in every round, so it includes the
  /// device-only prefix the forked DP shares across cuts and the searches
  /// a round reuses from the last one.
  std::size_t surgery_evaluations = 0;
  /// Frontier labels the exit-setting DPs folded (ExitSettingResult::labels
  /// summed over every device and round): the exact work count of the
  /// surgery step's inner loop, with each shared DP prefix counted once and
  /// a search reused on a bit-equal grant counted not at all.
  std::size_t dp_labels = 0;
};

/// The paper's contribution: jointly choose, for every device, its model
/// surgery (early-exit setting + partition point) and its resource
/// allocation (edge server, compute share, uplink bandwidth), minimizing the
/// rate-weighted expected latency subject to per-device accuracy floors.
///
/// Structure: alternating optimization. The surgery step solves, per device,
/// a generalized exit-setting DP over every clean cut, pricing backbone
/// segments on the side of the cut they execute and charging the upload to
/// tasks crossing it; the cuts share one DP run over their device-side
/// prefix, and a device whose grant did not move since its last search
/// reuses that search. The allocation step re-splits cell bandwidth by the
/// square-root rule, re-assigns servers by best-response dynamics over a
/// Kleinrock-shared queueing model, and re-derives compute shares. Rounds
/// repeat until the objective stalls.
///
/// Threading: each round's per-device surgery step runs across
/// ThreadPool::shared(). The Decision and the JointReport counters are
/// bit-identical for any pool size, and optimize() may be called from
/// several threads, or from another pool's workers, at once.
class JointOptimizer {
 public:
  explicit JointOptimizer(JointOptions opts = {});

  Decision optimize(const ProblemInstance& instance) const;
  Decision optimize(const ProblemInstance& instance, JointReport* report) const;

  const JointOptions& options() const { return opts_; }

 private:
  JointOptions opts_;
};

}  // namespace scalpel
