#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "surgery/cost_table.hpp"
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
  /// The policy's price under the table the DP ran on (policy_cost).
  double expected_latency = 0.0;
  bool feasible = false;  // false if no setting meets the accuracy floor
  /// Configurations examined (for scalability plots). A logical count: a
  /// result forked off a shared DP prefix (dp_exit_setting_forked), or
  /// finished off a shared frontier (dp_exit_setting_floors), includes the
  /// shared evaluations, exactly as a run from scratch would.
  std::size_t evaluations = 0;
  /// Frontier labels the DP folded, summed over its candidate steps: the
  /// work count of its inner loop. Unlike `evaluations` it counts only the
  /// steps this result ran itself, so a result forked off a shared prefix
  /// (dp_exit_setting_forked) leaves the prefix to the shared result, and
  /// the results of one call add up to the call's work.
  std::size_t labels = 0;
};

/// Coverage-discretized dynamic program (the paper-style "exit setting
/// algorithm with lower time complexity"). Exploits that once the covered
/// difficulty mass entering a candidate is known, the candidate's latency and
/// accuracy contributions are independent of earlier choices. Maintains a
/// Pareto frontier over (accuracy, latency) per (candidate, coverage bin),
/// each bin's set a latency-sorted staircase (staircase_insert);
/// near-optimal up to coverage discretization. Prices every stretch on
/// `profile` (build_cost_table's device-only table).
ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// dp_exit_setting at several accuracy floors. The DP's frontier never
/// reads the floor (only the final selection, repair and polish do), so it
/// is built once and finished once per floor; `opts.min_accuracy` is
/// ignored. Returns floors.size() results: [j] is exactly what
/// dp_exit_setting returns with min_accuracy = floors[j], `evaluations`
/// included. The frontier's labels go to [0], so the results' labels add up
/// to the call's work. dp_exit_setting is the one-floor case.
std::vector<ExitSettingResult> dp_exit_setting_floors(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts, const std::vector<double>& floors);

/// The DP's dominance insert into one coverage bin's Pareto set. A point l
/// dominates p when l.accuracy >= p.accuracy - 1e-12 and l.latency <=
/// p.latency + 1e-12. `cand` is rejected if a member dominates it; otherwise
/// the members it dominates are evicted and it is inserted. Returns whether
/// it was inserted. Latencies must not be NaN.
///
/// `set` is kept sorted by latency, and then both coordinates strictly
/// increase along it. Proof: every insert checks `cand` against every member
/// and evicts the ones it dominates, so no member dominates another. Take x
/// before y, so x.latency <= y.latency + 1e-12; as x does not dominate y,
/// x.accuracy < y.accuracy - 1e-12 <= y.accuracy. Then y.accuracy >=
/// x.accuracy - 1e-12, so as y does not dominate x, y.latency > x.latency +
/// 1e-12 >= x.latency. Hence the members that may dominate `cand` are the
/// prefix with latency <= cand.latency + 1e-12, whose last member has the
/// most accuracy, and the members `cand` dominates are one contiguous run.
/// The set after every insert holds exactly the members a linear scan with
/// the same comparisons leaves.
template <class Point>
bool staircase_insert(std::vector<Point>& set, const Point& cand) {
  const auto below = std::upper_bound(
      set.begin(), set.end(), cand.latency + 1e-12,
      [](double latency, const Point& l) { return latency < l.latency; });
  if (below != set.begin() &&
      std::prev(below)->accuracy >= cand.accuracy - 1e-12) {
    return false;  // dominated
  }
  const auto first = std::partition_point(
      set.begin(), below,
      [&](const Point& l) { return !(cand.latency <= l.latency + 1e-12); });
  const auto last = std::partition_point(first, set.end(), [&](const Point& l) {
    return cand.accuracy >= l.accuracy - 1e-12;
  });
  if (first == last) {
    set.insert(first, cand);
  } else {
    *first = cand;
    set.erase(first + 1, last);
  }
  return true;
}

/// The generalized DP over explicit cost tables that agree on a prefix.
/// Candidate i's DP step reads only segment[i] and head[i], so the DP runs
/// once under `shared` and, on reaching candidate prefix[j], forks a copy
/// of its state that finishes under forks[j]. forks[j] must be bit-equal to
/// `shared` on candidates [0, prefix[j]) (segments and heads; its tail is
/// free). Returns forks.size() + 1 results: [0] for `shared`, [j + 1] for
/// forks[j], each exactly what a call with that table as `shared` and no
/// forks returns.
std::vector<ExitSettingResult> dp_exit_setting_forked(
    const std::vector<ExitCandidate>& candidates, const AccuracyModel& acc,
    const ExitCostTable& shared, const std::vector<ExitCostTable>& forks,
    const std::vector<std::size_t>& prefix, const ExitSettingOptions& opts);

}  // namespace scalpel
