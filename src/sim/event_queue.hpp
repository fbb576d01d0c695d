#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scalpel {

/// One scheduled simulator event. POD on purpose: the inner loop moves these
/// by value, so scheduling never allocates and dispatch never goes through a
/// type-erased callable (the former std::function<void()> event payload cost
/// a heap allocation plus an indirect call per event — see BENCH_simcore).
/// `kind` is an opaque dispatch tag the simulator switches on; `a` and `b`
/// carry the operands (device / resource slot / task index / epoch).
struct SimEvent {
  double time = 0.0;
  std::uint64_t seq = 0;   // push order; total-order tiebreak at equal times
  std::uint32_t kind = 0;  // dispatch tag, opaque to the queue
  std::int32_t a = -1;     // small operand (device id, resource slot, cell)
  std::uint64_t b = 0;     // wide operand (task index, epoch, segment index)
};

/// Strict total order on (time, seq): seq is unique per queue, so two events
/// never compare equal and every queue implementation pops the exact same
/// sequence — the bit-identical-determinism bar for swapping implementations.
inline bool sim_event_before(const SimEvent& x, const SimEvent& y) {
  return x.time != y.time ? x.time < y.time : x.seq < y.seq;
}

/// The engine's event queue: a calendar queue (Brown 1988), a ring of time
/// buckets of width `width_` seconds, scanned in time order. push is O(1);
/// pop scans the current "day" bucket and, with the resize policy holding
/// mean occupancy near one event per bucket, is O(1) amortized — versus
/// O(log n) heap sift-downs with poor locality. push assigns the
/// monotonically increasing `seq` tiebreak, and pop order is exactly min
/// (time, seq) — the order of the binary-heap oracle that event_queue_test
/// and the integration fuzz hold it to.
///
/// The width is re-estimated at every resize from the sim-time gap between
/// recently popped events (the rate the event horizon actually advances at),
/// falling back to spreading the current contents evenly before any pops
/// have happened. Far-future events (e.g. committed finish times of a
/// saturated device queue) sit untouched in their buckets until the scan
/// reaches them; if a whole ring revolution finds nothing due, the queue
/// jumps straight to the global minimum instead of spinning over empty days.
class EventQueue {
 public:
  EventQueue() { init(kMinBuckets, 1.0); }

  void push(double time, std::uint32_t kind, std::int32_t a, std::uint64_t b) {
    push_raw(SimEvent{time, seq_++, kind, a, b});
  }
  /// Re-inserts an already-sequenced event unchanged. The engine bounds each
  /// epoch by popping the queue minimum and pushing it back when it lies
  /// at/past the barrier — keeping the original seq preserves the
  /// (time, seq) total order that the determinism bar rests on.
  void push_raw(const SimEvent& ev);
  SimEvent pop_min();
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  std::uint64_t day_of(double t) const {
    return static_cast<std::uint64_t>(t * inv_width_);
  }
  void init(std::size_t nbuckets, double width);
  /// Re-estimates the width and redistributes every event over `nbuckets`.
  void rebucket(std::size_t nbuckets);
  /// Finds the global minimum event (sparse-tail fallback and rebucket
  /// re-anchor); returns bucket and slot of the minimum.
  void find_global_min(std::size_t* bucket, std::size_t* slot) const;
  SimEvent take(std::size_t bucket, std::size_t slot);

  /// Sentinel for min_day_ entries of empty buckets: later than any day.
  static constexpr std::uint64_t kNoDay = ~std::uint64_t{0};

  std::vector<std::vector<SimEvent>> buckets_;
  /// Stale-low bound on the earliest day among each bucket's events (kNoDay
  /// when known empty): push_raw() tightens it downward exactly, take()
  /// leaves it stale, and a pop probe that finds nothing due repairs it from
  /// the scan it just did. The pop scan probes this flat array — one integer
  /// compare per day — instead of walking every bucket's contents;
  /// far-future events alias all over the ring, so without the cache each
  /// probed day costs a content scan. That dominated pop cost whenever
  /// sparse periodic events (telemetry samples, controller ticks) sat whole
  /// quiet zones ahead of the frontier. Purely an accelerator: a bucket
  /// whose bound is past the scan day cannot hold a due event, so pop order
  /// is unchanged.
  std::vector<std::uint64_t> min_day_;
  std::size_t mask_ = 0;        // buckets_.size() - 1 (power of two)
  double width_ = 1.0;          // seconds per bucket
  double inv_width_ = 1.0;
  std::uint64_t cur_day_ = 0;   // absolute day the scan pointer is on
  std::size_t size_ = 0;
  std::uint64_t seq_ = 0;       // next push's seq
  // Pop-rate stats since the last rebucket, feeding the width estimate.
  std::uint64_t pops_since_resize_ = 0;
  double first_pop_time_ = 0.0;
  double last_pop_time_ = 0.0;
};

}  // namespace scalpel
