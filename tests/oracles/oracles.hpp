#pragma once

// Reference implementations the production code is checked against. None
// of these runs in the engine, the solver or the CLI: the event-queue tests
// and the integration fuzz hold the calendar queue's pop order to the heap,
// the exit-setting and offloading tests (and benches F3, M1 and F11)
// measure the DP and the best-response dynamics against exhaustive search,
// the staircase test holds the DP's Pareto insert to a linear scan,
// the recorder test holds the SLO monitor's cursor search to a binary
// search, and the sqrt-rule, Kleinrock and M/D/1 property tests compare
// against the allocators, objectives and closed forms at the end of this
// file. The goldens pin exported bytes through fnv1a.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "sched/offloading.hpp"
#include "sim/event_queue.hpp"
#include "surgery/exit_setting.hpp"

namespace scalpel {

/// 64-bit FNV-1a over the exact bytes of `s`: the hash every golden pins.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

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
/// reference for the exit-setting DP on small instances. Both searches price
/// a policy as dp_exit_setting does: policy_cost under the device-only cost
/// table on `profile`.
ExitSettingResult exhaustive_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Greedy marginal-improvement construction — fast, no optimality guarantee.
ExitSettingResult greedy_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// The exit-setting DP's Pareto insert by linear scan over an unordered set,
/// with the same dominance comparisons: rejects `cand` if a member
/// dominates it, else evicts the members it dominates and appends it. The
/// reference for staircase_insert.
template <class Point>
bool linear_pareto_insert(std::vector<Point>& set, const Point& cand) {
  for (const auto& l : set) {
    if (l.accuracy >= cand.accuracy - 1e-12 &&
        l.latency <= cand.latency + 1e-12) {
      return false;  // dominated
    }
  }
  std::erase_if(set, [&](const Point& l) {
    return cand.accuracy >= l.accuracy - 1e-12 &&
           cand.latency <= l.latency + 1e-12;
  });
  set.push_back(cand);
  return true;
}

/// Exact optimum of the server-selection problem by enumeration —
/// O(servers^devices).
OffloadingSolution exhaustive_offloading(const OffloadingProblem& p);

/// Baseline row of a trailing window by binary search over the sample
/// times: the newest retained row with time <= rec.last_time() - window, or
/// TimeSeriesRecorder::kNoBaseRow when the window reaches past the retained
/// series. The reference for TimeSeriesRecorder::window_base_row_from.
std::size_t window_base_row(const TimeSeriesRecorder& rec, double window);

namespace shares {

/// c_i ∝ w_i — the allocation the sqrt rule is compared against.
std::vector<double> proportional(const std::vector<double>& demands,
                                 double capacity);

/// Objective the sqrt rule minimizes: sum_i demands[i] / alloc[i]
/// (+inf if any positive-demand class has a zero share).
double inverse_cost(const std::vector<double>& demands,
                    const std::vector<double>& alloc);

}  // namespace shares

namespace queueing {

/// Mean waiting time (sojourn minus service) of an M/M/1 queue; +inf if
/// unstable (lambda >= mu).
double mm1_wait(double lambda, double mu);

/// Rate-weighted M/M/1 mean sojourn of a capacity split (+inf if any class
/// is unstable): the objective kleinrock minimizes.
double mean_sojourn(const std::vector<double>& lambda,
                    const std::vector<double>& work,
                    const std::vector<double>& capacity_split);

}  // namespace queueing
}  // namespace scalpel
