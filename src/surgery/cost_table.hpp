#pragma once

#include <vector>

#include "nn/graph.hpp"
#include "profile/compute_profile.hpp"
#include "surgery/exit_policy.hpp"

namespace scalpel {

/// Pre-priced per-candidate costs for the exit-setting DP: backbone
/// segments priced on whichever side of the partition cut they execute,
/// with the upload across the cut charged to every task still running
/// there (build_cost_table).
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

/// Expected cost of a policy under a cost table: the one price of an exit
/// policy, for the DP, its repair and polish steps and the test oracles.
double policy_cost(const std::vector<ExitCandidate>& candidates,
                   const ExitPolicy& policy, const ExitStats& stats,
                   const ExitCostTable& costs);

/// One graph's per-node latencies and its exit heads' whole-graph
/// latencies on one compute profile, computed once and shared by every cut
/// priced on that profile. range() sums the cached values in the same node
/// order as LatencyModel::range_latency, so a table built from them is
/// bit-identical to one priced node by node.
struct ProfileCosts {
  std::vector<double> layer;  // index = node id
  std::vector<double> head;   // index = exit candidate

  /// Time for nodes (after .. upto].
  double range(NodeId after, NodeId upto) const;
};

ProfileCosts profile_costs(const Graph& graph,
                           const std::vector<ExitCandidate>& candidates,
                           const ComputeProfile& profile);

/// The cost table for partition cut `cut`: segments and heads at or before
/// the cut priced on `device`, the rest on `server`, and `upload` (the
/// caller's price of shipping the cut's activation) charged once, to the
/// first stretch that crosses the cut. cut < 0 means device-only: every
/// price comes from `device`, and `upload` and `server` are unused.
ExitCostTable build_cost_table(const Graph& graph,
                               const std::vector<ExitCandidate>& candidates,
                               NodeId cut, double upload,
                               const ProfileCosts& device,
                               const ProfileCosts& server);

}  // namespace scalpel
