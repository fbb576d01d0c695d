#pragma once

// Reference implementations the production code is checked against. None
// of these runs in the engine, the solver or the CLI: the event-queue tests
// and the integration fuzz hold the calendar queue's pop order to the heap,
// and the exit-setting and offloading tests (and benches F3, M1 and F11)
// measure the DP and the best-response dynamics against exhaustive search.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sched/offloading.hpp"
#include "sim/event_queue.hpp"
#include "surgery/exit_setting.hpp"

namespace scalpel {

/// Reference event queue: std::priority_queue over (time, seq).
class BinaryHeapEventQueue {
 public:
  /// Same interface and seq assignment as EventQueue::push, so an oracle
  /// fed the same pushes must pop the same sequence.
  void push(double time, std::uint32_t kind, std::int32_t a, std::uint64_t b) {
    heap_.push(SimEvent{time, seq_++, kind, a, b});
  }
  SimEvent pop_min();
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const SimEvent& x, const SimEvent& y) const {
      return sim_event_before(y, x);
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  std::uint64_t seq_ = 0;
};

/// Exhaustive search over subsets x theta grid — exponential; the optimality
/// reference for the exit-setting DP on small instances.
ExitSettingResult exhaustive_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Greedy marginal-improvement construction — fast, no optimality guarantee.
ExitSettingResult greedy_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Exact optimum of the server-selection problem by enumeration —
/// O(servers^devices).
OffloadingSolution exhaustive_offloading(const OffloadingProblem& p);

}  // namespace scalpel
