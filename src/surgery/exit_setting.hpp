#pragma once

#include <vector>

#include "surgery/exit_policy.hpp"

namespace scalpel {

/// Configuration for exit-setting optimization: choose which candidate exits
/// to enable and each exit's threshold so that expected latency is minimized
/// subject to an expected-accuracy floor.
struct ExitSettingOptions {
  double min_accuracy = 0.0;  // constraint: E[accuracy] >= min_accuracy
  /// Threshold grid searched per enabled exit.
  std::vector<double> theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60, 0.75};
  std::size_t max_exits = 4;  // at most this many enabled exits
  /// Coverage discretization for the DP (bins across [0, 1]).
  std::size_t coverage_bins = 100;
  /// Input-difficulty distribution the policy will face.
  DifficultyModel difficulty;
};

struct ExitSettingResult {
  ExitPolicy policy;
  ExitStats stats;
  double expected_latency = 0.0;
  bool feasible = false;  // false if no setting meets the accuracy floor
  /// Configurations examined (for scalability plots). A logical count: a
  /// result forked off a shared DP prefix (dp_exit_setting_forked) includes
  /// the prefix's evaluations, exactly as a run from scratch would.
  std::size_t evaluations = 0;
};

/// Coverage-discretized dynamic program (the paper-style "exit setting
/// algorithm with lower time complexity"). Exploits that once the covered
/// difficulty mass entering a candidate is known, the candidate's latency and
/// accuracy contributions are independent of earlier choices. Maintains a
/// Pareto frontier over (accuracy, latency) per (candidate, coverage bin);
/// near-optimal up to coverage discretization.
ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Pre-priced per-candidate costs for the generalized DP. The joint
/// optimizer uses this to price backbone segments on whichever side of the
/// partition cut they execute, and to charge the upload across the cut to
/// every task still running there.
struct ExitCostTable {
  /// segment[i]: cost of the backbone stretch (candidate i-1, candidate i],
  /// paid by every task reaching candidate i (includes any upload crossing).
  std::vector<double> segment;
  /// head[i]: candidate i's head cost, paid by every task reaching it when
  /// the exit is enabled.
  std::vector<double> head;
  /// Cost of the stretch after the last candidate to the final exit.
  double tail = 0.0;
};

/// Expected cost of a policy under a cost table (same integration as
/// evaluate_policy's latency but with externally supplied prices).
double policy_cost(const std::vector<ExitCandidate>& candidates,
                   const ExitPolicy& policy, const ExitStats& stats,
                   const ExitCostTable& costs);

/// Generalized DP over an explicit cost table. `expected_latency` in the
/// result is the table cost of the chosen policy (exact, recomputed).
ExitSettingResult dp_exit_setting_costs(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& costs,
    const ExitSettingOptions& opts);

/// The generalized DP over several cost tables that agree on a prefix.
/// Candidate i's DP step reads only segment[i] and head[i], so the DP runs
/// once under `shared` and, on reaching candidate prefix[j], forks a copy
/// of its state that finishes under forks[j]. forks[j] must be bit-equal to
/// `shared` on candidates [0, prefix[j]) (segments and heads; its tail is
/// free). Returns forks.size() + 1 results: [0] for `shared`, [j + 1] for
/// forks[j], each exactly what dp_exit_setting_costs returns for that table.
std::vector<ExitSettingResult> dp_exit_setting_forked(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& shared,
    const std::vector<ExitCostTable>& forks,
    const std::vector<std::size_t>& prefix, const ExitSettingOptions& opts);

}  // namespace scalpel
