#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "sim/task_pool.hpp"
#include "surgery/plan.hpp"

namespace scalpel {

/// Per-device compiled state of the event engine: the PlanModel the tasks
/// sample from plus the decision's resource grants and the device-side
/// queue/stage state. Server-side (device, server) chains live with the
/// server's shard instead (see shard.cpp).
struct CompiledDevice {
  std::shared_ptr<const PlanModel> plan;
  /// Device-only variant of `plan` (same exit policy) used when a fault
  /// resteers a task back onto the device. Null when plan is device-only.
  std::shared_ptr<const PlanModel> fallback;
  bool device_only = true;
  ServerId server = -1;
  double share = 0.0;
  double bandwidth = 0.0;
  double rtt = 0.0;
  double busy_until = 0.0;  // FCFS device queue (deterministic service)
  /// Tasks waiting for or occupying the device compute stage (the stage is a
  /// deterministic schedule, not a deque, so the bound counts commitments).
  std::size_t device_backlog = 0;
  // MMPP arrival modulation state (used when options.burst_factor > 0).
  bool burst_high = false;
  double burst_state_until = 0.0;
  IndexDeque upload_queue;
  bool uploading = false;
  TaskIndex uploading_task = kNoTask;  // the job occupying the fluid slot
  /// Per-device arrival counter; task id = (device << 32) | arrival_seq, a
  /// scheme that is invariant to how devices are partitioned into shards.
  std::uint32_t arrival_seq = 0;
};

/// Task id scheme: high word = device, low word = per-device arrival
/// sequence. Shard-partition invariant by construction.
inline std::uint64_t make_task_id(DeviceId dev, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dev)) << 32) |
         seq;
}

/// Value-keyed memoization of PlanModel compilation. A metro-scale topology
/// has millions of devices but only a handful of distinct (model, compute
/// class, plan, grant) combinations; sharing the compiled PlanModel turns
/// construction from minutes of repeated work into a hash lookup per device.
/// The key serializes every input PlanModel construction reads (bundle
/// identity, plan content, both compute profiles, link, difficulty), so a
/// hit is semantically exact, never heuristic.
class PlanModelCache {
 public:
  std::shared_ptr<const PlanModel> get_or_compile(
      const ModelBundle& bundle, const SurgeryPlan& plan,
      const ComputeProfile& device, const ComputeProfile& server,
      const LinkSpec& link, const DifficultyModel& difficulty);

  /// Drops every entry nothing outside the cache still holds, so a run
  /// that replans many times keeps only the plans its devices use.
  void evict_unused();

  std::size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<std::string, std::shared_ptr<const PlanModel>> cache_;
  std::string key_;  // scratch buffer of get_or_compile
};

/// Compiles `dd` into `cd`: plan + device-only fallback, grants, rtt. The
/// PlanModels come from `cache`, shared across identical devices.
void compile_device_decision(const ProblemInstance& instance, DeviceId dev,
                             const DeviceDecision& dd, CompiledDevice& cd,
                             PlanModelCache& cache);

}  // namespace scalpel
