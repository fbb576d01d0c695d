#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "sched/offloading.hpp"

namespace scalpel {

/// The canonical analytical objective shared by the joint optimizer, every
/// baseline, and the test suite. Each device's tasks traverse a three-stage
/// tandem queueing network, every stage approximated as an independent
/// queue on the device's granted capacity slice:
///
///   1. device stage  — M/G/1, service = on-device compute (mixture over
///      exits; moments from PlanModel), arrivals = the device's full rate;
///   2. upload stage  — M/D/1 on the granted bandwidth b (every offloaded
///      task ships the same activation payload), arrivals = rate * P_off,
///      plus the fixed path rtt;
///   3. server stage  — M/G/1 on the granted share x of the server (service
///      moments scale as m1/x, m2/x^2), arrivals = rate * P_off.
///
///   E[L_i] = W_dev + P_off * (W_up + rtt_ij + W_srv)
///
/// Any unstable stage (rho >= 1) marks the decision infeasible (+inf
/// latency) — this is what forces the joint optimizer to surger models
/// deeper (smaller uploads, less server work) under load instead of
/// oversubscribing resources. The DES (src/sim) validates the approximation.
DevicePrediction evaluate_device(const ProblemInstance& instance, DeviceId id,
                                 const DeviceDecision& decision);

/// The PlanModel the evaluator reasons with for one device decision
/// (full-speed server profile; shares enter via the queueing terms). Shared
/// with the simulator, the admission-control module and the allocation
/// statistics below.
PlanModel build_plan_model(const ProblemInstance& instance, DeviceId id,
                           const DeviceDecision& decision);

/// Value-keyed memoization of PlanModel compilation. A metro-scale topology
/// has many devices but only a handful of distinct (model, compute class,
/// plan, grant) combinations; sharing the compiled PlanModel turns
/// per-device construction into a hash lookup. The key serializes exactly
/// the values PlanModel construction reads (bundle identity, plan content,
/// both profiles' numbers, link, difficulty), so a hit is exact, never
/// heuristic. Not thread-safe: each evaluation and each engine owns one.
class PlanModelCache {
 public:
  std::shared_ptr<const PlanModel> get_or_compile(
      const ModelBundle& bundle, const SurgeryPlan& plan,
      const ComputeProfile& device, const ComputeProfile& server,
      const LinkSpec& link, const DifficultyModel& difficulty);
  /// build_plan_model(instance, id, decision), compiled once per distinct
  /// input; the same grant checks apply.
  std::shared_ptr<const PlanModel> get_or_compile(
      const ProblemInstance& instance, DeviceId id,
      const DeviceDecision& decision);

  /// Drops every entry nothing outside the cache still holds, so a run
  /// that replans many times keeps only the plans its devices use.
  void evict_unused();

  std::size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<std::string, std::shared_ptr<const PlanModel>> cache_;
  std::string key_;  // scratch buffer of get_or_compile
};

/// ---- The fixed-plan allocation path. Given each device's surgery plan,
/// these are the one copy of every allocation rule the joint optimizer's
/// allocation step, every baseline and baselines::small_exhaustive share.

/// A plan's allocation statistics, read from build_plan_model on every
/// server at full speed. None depends on the uplink or the compute share,
/// so they can be memoized on the plan. Device-only plans get zeros and no
/// per-server entries.
struct OffloadStats {
  double offload_prob = 0.0;
  std::int64_t upload_bytes = 0;
  /// Per server: expected full-speed server time given the task offloads.
  std::vector<double> server_time;
};
OffloadStats offload_stats(const ProblemInstance& instance, DeviceId id,
                           const SurgeryPlan& plan);

/// The uplink a plan that ships `upload_bytes` per task is scored under
/// while bandwidth is still negotiable: no less than its upload-stability
/// minimum (25% headroom over the device's full arrival rate), capped by
/// the device's cell.
double negotiated_bandwidth(const ProblemInstance& instance, DeviceId id,
                            double granted, std::int64_t upload_bytes);

/// Equal uplink split: each cell's bandwidth divided evenly among its
/// devices with offloads[i] set; 0 for the rest.
std::vector<double> equal_uplink_split(const ClusterTopology& topo,
                                       const std::vector<bool>& offloads);

/// The server-assignment problem over the devices `rows` (device ids, in
/// row order): per row the offloaded arrival rate, the transfer latency to
/// every server at the device's uplink, and the conditional server work
/// (floored at 1e-9) on unit-capacity servers. `stats` and `bandwidth` are
/// indexed by device.
OffloadingProblem offloading_problem(const ProblemInstance& instance,
                                     const std::vector<std::size_t>& rows,
                                     const std::vector<OffloadStats>& stats,
                                     const std::vector<double>& bandwidth);

/// Kleinrock compute shares of an assignment, clamped to [1e-9, 1]: the
/// floor keeps the evaluator from throwing on the zero shares an overloaded
/// server's devices get; they surface as unstable instead.
std::vector<double> clamped_shares(const OffloadingProblem& prob,
                                   const std::vector<int>& server_of);

/// Neurosurgeon partition: the latency-optimal clean cut (no exits) against
/// `server` scaled to `share` over an uplink of `bandwidth`, or device-only.
SurgeryPlan partition_plan(const ProblemInstance& instance, DeviceId id,
                           ServerId server, double share, double bandwidth);

/// Fills decision.predicted and decision.mean_latency. Also validates the
/// resource grants: per-cell bandwidth sums and per-server share sums must
/// not exceed capacity (tolerance 1e-6); violations throw. Devices with
/// equal inputs share one compiled PlanModel, so predicted[i] is bit-equal
/// to evaluate_device(instance, i, decision.per_device[i]).
void evaluate_decision(const ProblemInstance& instance, Decision& decision);

/// Rate-weighted deadline-satisfaction estimate for a decision, using the
/// exponential-tail approximation on the queueing part and deterministic
/// phases elsewhere. Devices with deadline 0 count as satisfied.
double predicted_deadline_satisfaction(const ProblemInstance& instance,
                                       const Decision& decision);

}  // namespace scalpel
