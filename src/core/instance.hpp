#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edge/cluster.hpp"
#include "nn/graph.hpp"
#include "surgery/accuracy_model.hpp"
#include "surgery/exit_candidates.hpp"

namespace scalpel {

/// Everything static the optimizer needs about one DNN workload.
struct ModelBundle {
  Graph graph;
  std::vector<ExitCandidate> candidates;
  AccuracyModel accuracy;
};

/// A fully materialized optimization problem: the cluster plus, for every
/// distinct model name referenced by a device, its backbone graph, exit
/// candidates, and accuracy model. Bundles are immutable and shared across
/// devices running the same model (graphs can be large), and across
/// instances built from a parent.
class ProblemInstance {
 public:
  /// Builds bundles from the model-zoo names referenced in `topology`.
  /// The topology is copied.
  explicit ProblemInstance(const ClusterTopology& topology);
  /// Same, but reuses `parent`'s bundle for every model it has, so a
  /// sub-problem (failover::reduce) rebuilds no graph or exit candidates.
  ProblemInstance(const ClusterTopology& topology,
                  const ProblemInstance& parent);

  const ClusterTopology& topology() const { return topology_; }
  /// For the conditions a controller adopts: rates and bandwidths. Adding
  /// devices through it is not supported (their bundles are resolved once,
  /// at construction).
  ClusterTopology& mutable_topology() { return topology_; }

  /// The device's bundle, resolved at construction: an index, not a lookup.
  const ModelBundle& bundle_for(DeviceId id) const;

 private:
  ProblemInstance(const ClusterTopology& topology,
                  const ProblemInstance* parent);

  ClusterTopology topology_;
  std::map<std::string, std::shared_ptr<const ModelBundle>> bundles_;
  std::vector<const ModelBundle*> device_bundle_;  // indexed by DeviceId
};

}  // namespace scalpel
