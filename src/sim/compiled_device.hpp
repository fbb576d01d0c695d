#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "core/objective.hpp"
#include "sim/task_pool.hpp"
#include "surgery/plan.hpp"

namespace scalpel {

/// A FIFO stage in front of a shared fluid resource: one stream's tasks wait
/// in `queue` while the stage is busy, so the stream holds at most one fluid
/// slot and a burst cannot multiply its granted weight. The cell uplink and
/// the server chains are both one of these.
struct QueuedStage {
  IndexDeque queue;
  bool busy = false;
  TaskIndex active = kNoTask;  // the task holding the fluid slot

  /// Tasks waiting in or holding the stage.
  std::size_t depth() const {
    return queue.size() + (active != kNoTask ? 1 : 0);
  }
  /// Empties the stage and returns its tasks: the one in service first, then
  /// the waiting ones in FIFO order (the order a fault handles them in).
  std::vector<TaskIndex> drain() {
    std::vector<TaskIndex> out;
    if (active != kNoTask) out.push_back(active);
    while (!queue.empty()) out.push_back(queue.pop_front());
    active = kNoTask;
    busy = false;
    return out;
  }
};

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
  QueuedStage upload;  // the device's stream on its cell uplink
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

/// Compiles `dd` into `cd`: plan + device-only fallback, grants, rtt. The
/// PlanModels are build_plan_model's, from `cache` (core/objective), shared
/// across identical devices.
void compile_device_decision(const ProblemInstance& instance, DeviceId dev,
                             const DeviceDecision& dd, CompiledDevice& cd,
                             PlanModelCache& cache);

}  // namespace scalpel
