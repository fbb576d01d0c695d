#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "surgery/plan.hpp"
#include "util/assert.hpp"

namespace scalpel {

/// Index of a pooled in-flight task; stable for the task's whole lifetime
/// and recycled (LIFO) after its terminal event.
using TaskIndex = std::uint32_t;
constexpr TaskIndex kNoTask = 0xffffffffu;

/// One task's whole record, as one value: what a TaskEnvelope carries
/// across shards and what ShardedSimulator::migrate_task moves between
/// pools (TaskPool::take / TaskPool::put).
struct TaskRow {
  std::uint64_t id = 0;
  double arrival = 0.0;
  double difficulty = 0.0;
  double rtt = 0.0;
  double bw_weight = 0.0;
  double cpu_weight = 0.0;
  double device_done = 0.0;
  double upload_done = 0.0;
  TaskPhases phases;
  std::int32_t device = -1;
  std::int32_t server = -1;
  std::uint16_t retries = 0;
  std::uint8_t flags = 0;
};

/// Structure-of-arrays pool of in-flight task records. Replaces the former
/// per-arrival std::make_shared<Task>: acquiring a slot is a free-list pop
/// (amortized zero allocations in steady state), releasing recycles it, and
/// hot fields live in contiguous parallel arrays instead of scattered
/// control blocks — the same preallocate-and-reuse idiom the trace ring in
/// src/obs/trace.cpp established for the observability path.
///
/// All arrays are indexed by TaskIndex and grow in lockstep. A slot's fields
/// are only meaningful between acquire() and release(); the simulator owns
/// the discipline that no scheduled event outlives its task (terminal events
/// release, and nothing re-references a released index).
class TaskPool {
 public:
  std::vector<std::uint64_t> id;       // per-run trace id
  std::vector<double> arrival;         // sim seconds
  std::vector<double> difficulty;      // sampled once; reused by re-executions
  std::vector<double> rtt;
  std::vector<double> bw_weight;
  std::vector<double> cpu_weight;
  std::vector<double> device_done;     // phase timestamps (energy accounting)
  std::vector<double> upload_done;
  std::vector<TaskPhases> phases;
  std::vector<std::int32_t> device;
  std::vector<std::int32_t> server;    // -1 = device-only
  std::vector<std::uint16_t> retries;  // re-dispatch attempts so far
  std::vector<std::uint8_t> flags;

  enum : std::uint8_t {
    kCounted = 1,  // arrived after warmup -> contributes to metrics
    kFaulted = 2,  // lost a server/link at least once
  };

  bool counted(TaskIndex t) const { return (flags[t] & kCounted) != 0; }
  bool faulted(TaskIndex t) const { return (flags[t] & kFaulted) != 0; }

  TaskIndex acquire() {
    TaskIndex t;
    if (!free_.empty()) {
      t = free_.back();
      free_.pop_back();
    } else {
      t = static_cast<TaskIndex>(id.size());
      SCALPEL_REQUIRE(t != kNoTask, "task pool exhausted the index space");
      grow();
    }
    // Recycled slots carry the previous occupant's values; reset everything
    // the arrival path does not unconditionally overwrite.
    device_done[t] = 0.0;
    upload_done[t] = 0.0;
    retries[t] = 0;
    flags[t] = 0;
    ++live_;
    return t;
  }

  void release(TaskIndex t) {
    SCALPEL_REQUIRE(live_ > 0, "task pool release without a live task");
    free_.push_back(t);
    --live_;
  }

  /// Copies slot t's row out and releases the slot.
  TaskRow take(TaskIndex t) {
    const TaskRow row{id[t], arrival[t], difficulty[t], rtt[t],
                      bw_weight[t], cpu_weight[t], device_done[t],
                      upload_done[t], phases[t], device[t], server[t],
                      retries[t], flags[t]};
    release(t);
    return row;
  }

  /// Acquires a slot holding `row`.
  TaskIndex put(const TaskRow& row) {
    const TaskIndex t = acquire();
    id[t] = row.id;
    arrival[t] = row.arrival;
    difficulty[t] = row.difficulty;
    rtt[t] = row.rtt;
    bw_weight[t] = row.bw_weight;
    cpu_weight[t] = row.cpu_weight;
    device_done[t] = row.device_done;
    upload_done[t] = row.upload_done;
    phases[t] = row.phases;
    device[t] = row.device;
    server[t] = row.server;
    retries[t] = row.retries;
    flags[t] = row.flags;
    return t;
  }

  /// Live (acquired, unreleased) tasks.
  std::size_t live() const { return live_; }
  /// Slots ever created (live + free).
  std::size_t capacity() const { return id.size(); }

  void reserve(std::size_t n) {
    id.reserve(n);
    arrival.reserve(n);
    difficulty.reserve(n);
    rtt.reserve(n);
    bw_weight.reserve(n);
    cpu_weight.reserve(n);
    device_done.reserve(n);
    upload_done.reserve(n);
    phases.reserve(n);
    device.reserve(n);
    server.reserve(n);
    retries.reserve(n);
    flags.reserve(n);
  }

 private:
  void grow() {
    id.emplace_back();
    arrival.emplace_back();
    difficulty.emplace_back();
    rtt.emplace_back();
    bw_weight.emplace_back();
    cpu_weight.emplace_back();
    device_done.emplace_back();
    upload_done.emplace_back();
    phases.emplace_back();
    device.emplace_back(-1);
    server.emplace_back(-1);
    retries.emplace_back();
    flags.emplace_back();
  }

  std::vector<TaskIndex> free_;
  std::size_t live_ = 0;
};

/// FIFO of task indices backed by one flat vector with a head cursor —
/// push_back/pop_front are amortized O(1) with no per-node allocation
/// (std::deque allocates a chunk per block). erase() is O(n) but only runs
/// on the cold shed/fault paths.
class IndexDeque {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  void push_back(TaskIndex t) { buf_.push_back(t); }

  TaskIndex front() const {
    SCALPEL_REQUIRE(!empty(), "front of empty IndexDeque");
    return buf_[head_];
  }

  TaskIndex pop_front() {
    SCALPEL_REQUIRE(!empty(), "pop from empty IndexDeque");
    const TaskIndex t = buf_[head_++];
    // Compact once the dead prefix dominates, keeping memory bounded by the
    // high-water live size.
    if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return t;
  }

  /// Removes the element at live position `pos` (0 = front), preserving
  /// FIFO order of the rest. Cold path (shedding / fault victims).
  void erase_at(std::size_t pos) {
    SCALPEL_REQUIRE(pos < size(), "IndexDeque erase out of range");
    buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(head_ + pos));
  }

  TaskIndex at(std::size_t pos) const {
    SCALPEL_REQUIRE(pos < size(), "IndexDeque index out of range");
    return buf_[head_ + pos];
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

 private:
  std::vector<TaskIndex> buf_;
  std::size_t head_ = 0;
};

}  // namespace scalpel
