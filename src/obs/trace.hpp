#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scalpel {
class JsonWriter;

/// Per-task lifecycle event kinds recorded by the TaskTracer. One simulated
/// task emits kArrive exactly once and exactly one terminal event (kComplete,
/// kFail, kShed or kExpire), so a complete trace reconciles with the
/// simulator's conservation counters:
///   #kArrive == #kComplete + #kFail + #kShed + #kExpire + in_flight_end.
enum class TraceEventType : std::uint8_t {
  kArrive = 0,    // task created at its device
  kEnqueue,       // admitted into a stage queue (arg = TraceStage)
  kDispatch,      // popped from a queue into a service slot (arg = TraceStage)
  kExecStart,     // compute begins (arg = TraceStage: device or server)
  kExecEnd,       // compute ends (arg = TraceStage)
  kUploadStart,   // uplink transfer begins occupying the fluid slot
  kUploadEnd,     // uplink transfer drained (before the RTT)
  kRetry,         // fault-policy re-dispatch scheduled (arg = attempt number)
  kResteer,       // fault-policy device-fallback re-execution
  kShed,          // dropped by the overload policy or admission gate
  kExpire,        // dropped because the deadline is provably unreachable
  kFail,          // dropped by the fault policy
  kComplete,      // finished; result delivered
};

/// Pipeline stage tag carried in TraceEvent::arg for stage-shaped events.
enum class TraceStage : std::uint8_t { kDevice = 0, kUpload = 1, kServer = 2 };

/// Short stable names ("arrive", "exec_start", ...) used by every exporter.
const char* trace_event_name(TraceEventType type);
const char* trace_stage_name(TraceStage stage);

/// One fixed-size trace record. POD on purpose: recording is a struct copy
/// into a preallocated ring, never an allocation.
struct TraceEvent {
  double time = 0.0;        // sim seconds (may differ from recording order
                            // only for scheduled exec-start stamps)
  std::uint64_t task = 0;   // per-run task id, assigned at arrival
  std::int32_t device = -1;
  std::int32_t server = -1;  // -1 when the event has no server side
  TraceEventType type = TraceEventType::kArrive;
  std::uint8_t arg = 0;      // TraceStage or retry attempt, by event type

  bool operator==(const TraceEvent& other) const {
    return time == other.time && task == other.task &&
           device == other.device && server == other.server &&
           type == other.type && arg == other.arg;
  }
};

/// Bounded recorder of one POD record type, shared by the task and the
/// control-plane tracers. Disabled (capacity 0) it is a single predictable
/// branch per record() call — cheap enough to leave the instrumentation
/// hooks compiled into the hot paths. Enabled, it writes into a ring
/// buffer preallocated at reset: recording never allocates, and once full
/// the oldest records are overwritten (dropped() reports how many were
/// lost, so exporters can flag truncated traces).
template <class Record>
class EventRing {
 public:
  EventRing() = default;  // disabled
  explicit EventRing(std::size_t capacity) { reset(capacity); }

  /// Re-arms the ring with a new capacity (0 disables); clears all records.
  void reset(std::size_t capacity) {
    capacity_ = capacity;
    ring_.assign(capacity, Record{});
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }
  /// Records currently held (<= capacity).
  std::size_t size() const { return size_; }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }
  /// Total record() calls accepted (size() + dropped()).
  std::uint64_t recorded() const { return size_ + dropped_; }

  void record(const Record& r) {
    if (capacity_ == 0) return;  // disabled: the whole hot path is this branch
    ring_[head_] = r;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    if (size_ < capacity_) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  /// Records in recording order, oldest first (allocates; not for hot
  /// paths).
  std::vector<Record> snapshot() const {
    std::vector<Record> out;
    out.reserve(size_);
    // Oldest record first: once wrapped, it sits at head_ (the next
    // overwrite).
    const std::size_t start = size_ < capacity_ ? 0 : head_;
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[(start + i) % capacity_]);
    }
    return out;
  }

 private:
  std::vector<Record> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Per-run task lifecycle recorder: the shared ring over TraceEvent, plus
/// the field-wise record() the simulator's hooks call.
class TaskTracer : public EventRing<TraceEvent> {
 public:
  using EventRing::EventRing;
  using EventRing::record;

  void record(double time, std::uint64_t task, std::int32_t device,
              std::int32_t server, TraceEventType type, std::uint8_t arg = 0) {
    record(TraceEvent{time, task, device, server, type, arg});
  }
};

/// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format):
/// device compute, upload, and server compute phases become B/E duration
/// pairs on pid=device / tid=task tracks; everything else is an instant
/// event. Timestamps are microseconds of sim time. `droppedEvents` carries
/// how many events the recording rings overwrote, so a truncated trace is
/// detectable (ShardedSimulator::trace_dropped() for a merged trace).
/// This is the one writer of the document: write_trace streams it to a
/// file, and Json::parse of its text gives the DOM.
void write_task_doc(JsonWriter& w, const std::vector<TraceEvent>& events,
                    std::uint64_t dropped);

/// Streams one task event as its Chrome trace-event object; the task-only
/// and the merged trace documents both list their task events through it.
void write_chrome_event(JsonWriter& w, const TraceEvent& ev);

/// Streams the Chrome trace JSON (pretty-printed) to `path`; returns false
/// (and logs) on I/O failure. A ".csv" suffix switches to a flat CSV table
/// instead: header time_s,task,device,server,event,arg, then one row per
/// event, oldest first.
bool write_trace(const TaskTracer& tracer, const std::string& path);

/// Per-type event counts of a trace (index by TraceEventType).
std::vector<std::size_t> trace_event_counts(
    const std::vector<TraceEvent>& events);

/// Canonical order for comparing traces of equivalent runs that recorded
/// events in different orders (e.g. the same run at different shard
/// counts, whose per-shard rings interleave differently): stable sort
/// by (time, task, type, arg, device, server). Two runs are trace-equivalent
/// iff their reconciled streams compare equal element-wise.
std::vector<TraceEvent> reconcile_trace(std::vector<TraceEvent> events);

}  // namespace scalpel
