#pragma once

#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"

namespace scalpel {

/// What a decision's offloading devices take: the compute shares summed per
/// server and the bandwidth grants summed per cell, each added in device
/// order. Device-only devices take nothing.
struct ResourceUse {
  std::vector<double> server_share;  // indexed by server id
  std::vector<double> cell_grant;    // indexed by cell id
};

/// Sums `decision`'s grants over `topology`. Requires every offloading
/// device to name a server of the topology.
ResourceUse resource_use(const ClusterTopology& topology,
                         const Decision& decision);

/// Outcome of validate_plan: ok, or the first defect found (one line, used
/// verbatim as the plan_rejected audit detail).
struct PlanValidation {
  bool ok = true;
  std::string reason;
};

/// Safety gate between the solver and the live deployment: a plan is
/// rejected when it would strand work or oversubscribe hardware —
///   - wrong arity (not one DeviceDecision per device);
///   - an offloading device pointing at an invalid or dead server
///     (dispatching to a corpse strands every task routed there);
///   - a non-positive or > 1 compute share, or a non-positive bandwidth
///     grant, on an offloading device;
///   - per-server share sums or per-cell grant sums beyond capacity (plus
///     slack) — admitted work could then never drain.
/// Accuracy is advisory: the joint optimizer may legitimately trade an
/// unreachable floor for feasibility, and the degradation ladder lowers
/// floors on purpose, so a plan below a device's floor still passes.
/// `server_alive` is indexed by server id (empty = every server up).
PlanValidation validate_plan(const ProblemInstance& instance,
                             const Decision& decision,
                             const std::vector<bool>& server_alive);

}  // namespace scalpel
