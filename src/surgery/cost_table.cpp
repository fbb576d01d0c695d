#include "surgery/cost_table.hpp"

#include <algorithm>

#include "profile/latency_model.hpp"
#include "util/assert.hpp"

namespace scalpel {

double policy_cost(const std::vector<ExitCandidate>& candidates,
                   const ExitPolicy& policy, const ExitStats& stats,
                   const ExitCostTable& costs) {
  SCALPEL_REQUIRE(costs.segment.size() == candidates.size() &&
                      costs.head.size() == candidates.size(),
                  "cost table arity mismatch");
  // reach(candidate c) for candidates between enabled exits equals the reach
  // of the next enabled exit, so walk candidates accumulating reach.
  double cost = 0.0;
  double reach = 1.0;
  std::size_t enabled_pos = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    cost += reach * costs.segment[c];
    if (enabled_pos < policy.exits.size() &&
        policy.exits[enabled_pos].candidate == c) {
      cost += reach * costs.head[c];
      reach -= stats.fire_prob[enabled_pos];
      ++enabled_pos;
    }
  }
  cost += reach * costs.tail;
  return cost;
}

double ProfileCosts::range(NodeId after, NodeId upto) const {
  double total = 0.0;
  for (NodeId v = after + 1; v <= upto; ++v) {
    total += layer[static_cast<std::size_t>(v)];
  }
  return total;
}

ProfileCosts profile_costs(const Graph& graph,
                           const std::vector<ExitCandidate>& candidates,
                           const ComputeProfile& profile) {
  ProfileCosts c;
  c.layer = LatencyModel::per_layer(graph, profile);
  c.head.reserve(candidates.size());
  for (const auto& cand : candidates) {
    c.head.push_back(LatencyModel::graph_latency(cand.head, profile));
  }
  return c;
}

ExitCostTable build_cost_table(const Graph& graph,
                               const std::vector<ExitCandidate>& candidates,
                               NodeId cut, double upload,
                               const ProfileCosts& device,
                               const ProfileCosts& server) {
  const bool device_only = cut < 0;
  ExitCostTable t;
  t.segment.resize(candidates.size(), 0.0);
  t.head.resize(candidates.size(), 0.0);

  bool crossed = false;
  auto stretch_cost = [&](NodeId from, NodeId to) {
    if (device_only || to <= cut) {
      return device.range(from, to);
    }
    // This stretch ends past the cut: charge the upload exactly once, on
    // the first crossing (including a cut at the stretch's start node).
    double cost = 0.0;
    if (from < cut) {
      cost += device.range(from, cut);
    }
    if (!crossed) {
      cost += upload;
      crossed = true;
    }
    cost += server.range(std::max(from, cut), to);
    return cost;
  };

  NodeId prev = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const NodeId attach = candidates[i].attach;
    t.segment[i] = stretch_cost(prev, attach);
    const bool head_on_server = !device_only && attach > cut;
    t.head[i] = head_on_server ? server.head[i] : device.head[i];
    prev = attach;
  }
  t.tail = stretch_cost(prev, graph.output());
  return t;
}

}  // namespace scalpel
