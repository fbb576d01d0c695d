#pragma once

#include <cstdint>
#include <vector>

namespace scalpel {

/// Receiver of fluid-job completions. complete_due() hands back the opaque
/// per-job tag instead of invoking a stored std::function — job records stay
/// POD, add_job never allocates in steady state, and the dispatch is one
/// virtual call on the (single) sink rather than a type-erased callable per
/// job. The simulator encodes (pipeline stage, task index) into the tag.
class FluidSink {
 public:
  virtual void fluid_job_done(std::uint64_t tag, double now) = 0;

 protected:
  // Virtual so concrete sinks (which are polymorphic via fluid_job_done)
  // satisfy -Wnon-virtual-dtor; still protected — sinks are never owned or
  // deleted through this interface.
  virtual ~FluidSink() = default;
};

/// Work-conserving generalized-processor-sharing resource in fluid
/// approximation: active jobs split the capacity in proportion to their
/// weights, so an idle grantee's capacity flows to the busy ones (this is
/// what the analytical model cannot see and the DES adds). Used for both
/// cell uplinks (demand = bytes) and edge servers (demand = busy-seconds).
class FluidResource {
 public:
  explicit FluidResource(double capacity);

  /// Change capacity at `now` (bandwidth traces); progress is settled first.
  void set_capacity(double now, double capacity);
  double capacity() const { return capacity_; }

  /// Add a job; its `tag` is handed to the sink when it finishes.
  void add_job(double now, double demand, double weight, std::uint64_t tag);

  bool idle() const { return jobs_.empty(); }

  /// Absolute time of the earliest completion; +inf when idle.
  double next_completion() const;

  /// Mutation counter; the simulator tags scheduled wake-ups with it and
  /// drops stale ones.
  std::uint64_t epoch() const { return epoch_; }

  /// Settle progress to `now` and fire sink.fluid_job_done for every job due
  /// (remaining ~ 0), in add order. The sink may add new jobs to this
  /// resource from inside the callback.
  void complete_due(double now, FluidSink& sink);

  /// Settle progress to `now` and drop every active job without firing its
  /// completion (fault injection: the resource crashed; callers fail or
  /// resteer the owning tasks themselves). Bumps the epoch so armed
  /// wake-ups go stale.
  void clear(double now);

  /// Total time the resource was non-idle (utilization accounting).
  double busy_time(double now) const;

 private:
  void advance(double now);

  struct Job {
    double remaining = 0.0;
    double weight = 0.0;
    std::uint64_t tag = 0;
  };

  double capacity_;
  double last_update_ = 0.0;
  double weight_sum_ = 0.0;
  std::vector<Job> jobs_;
  std::vector<std::uint64_t> due_scratch_;  // reused by complete_due
  std::uint64_t epoch_ = 0;
  double busy_accum_ = 0.0;
};

}  // namespace scalpel
