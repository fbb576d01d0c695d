#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/task_pool.hpp"

namespace scalpel {

/// A task migrating from its device's shard to its target server's shard at
/// an epoch barrier: the task's whole row, plus the absolute time its
/// kServerArrive fires in the receiving shard. POD so the outbox/inbox
/// exchange is a memcpy-class operation.
///
/// Envelopes exist because the upload drain happens where the device lives
/// while the server stage happens where the server lives. Conservative
/// lookahead makes the handoff safe: a cross-shard task always travels for
/// its path RTT, and epochs are never longer than the minimum cross-shard
/// RTT, so an envelope created inside epoch k can only fire at or after the
/// barrier ending epoch k — by which time it has been delivered.
struct TaskEnvelope {
  double arrive_time = 0.0;  // upload drain + rtt (absolute sim seconds)
  TaskRow row;
};

/// Kind of one order-sensitive accounting record. Integer counters merge by
/// addition across shards, but Samples vectors and energy/accuracy sums are
/// sensitive to the order floating-point accumulation happens in. Every
/// shard therefore logs the terminals of its counted (post-warmup) tasks as
/// MetricRecords and the coordinator replays the deterministically merged
/// log through one accumulation routine — bit-identical for any shard or
/// thread count.
enum class MetricRecordKind : std::uint8_t {
  kComplete = 0,
  kFail,
  kShed,
  kExpire,
};

/// Sort key position of records the serial reduction phase emits. Serial
/// records carry the global serial counter (they replay in exactly the order
/// the serial phase executed). Mid-epoch records carry kMidEpochSeq, sorting
/// after every serial record at an equal timestamp — the engine's ordering
/// rule: at a barrier instant, scripted events precede task events.
constexpr std::uint64_t kMidEpochSeq =
    std::numeric_limits<std::uint64_t>::max();

struct MetricRecord {
  double time = 0.0;
  std::uint64_t serial_seq = kMidEpochSeq;
  std::uint64_t id = 0;            // task id; tiebreak at equal times
  double latency = 0.0;            // kComplete only
  double correct_prob = 0.0;       // kComplete only
  double energy = 0.0;             // kComplete only (device-side joules)
  std::int32_t device = -1;
  std::int32_t exit_slot = 0;      // kComplete only: exit histogram slot
  MetricRecordKind kind = MetricRecordKind::kComplete;
  std::uint8_t flags = 0;

  enum : std::uint8_t {
    kOutageOrFaulted = 1,  // completion during an outage or after a fault
    kOffloaded = 2,
  };
};

/// Partial order matching one-shard processing order: time, then
/// serial-phase order. Deliberately NOT refined further — one event's
/// cascade can emit several records at the identical timestamp (an upload
/// drain advancing the queue can shed multiple expired tasks at one `now`),
/// and those fold in cascade order, which is exactly the per-shard log
/// order. The merge is therefore *stable*: ties keep the earliest input log
/// and preserve each log's internal order. Equal-time mid-epoch records
/// from different shards have continuous random times, so they coincide
/// with probability zero.
inline bool metric_record_before(const MetricRecord& a,
                                 const MetricRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.serial_seq < b.serial_seq;
}

/// K-way merge of per-shard record logs (each already nondecreasing in the
/// sort key, because shards log in processing order) into one globally
/// ordered stream.
std::vector<MetricRecord> merge_metric_records(
    const std::vector<const std::vector<MetricRecord>*>& logs);

/// One synchronization point of the sharded run. Scripted global events
/// (fault transitions, bandwidth change-points, controller and obs ticks)
/// happen here, in the serial reduction phase, in exactly this order:
/// envelope delivery, faults, bandwidth, controller, obs sample.
struct EpochBarrier {
  double time = 0.0;
  bool controller = false;
  /// Observability sample due at `time` (runs last in the serial phase,
  /// after the controller tick).
  bool obs = false;
  /// Indices into the fault schedule's event list due exactly at `time`.
  std::vector<std::size_t> fault_events;
  /// (cell, segment) bandwidth change-points due exactly at `time`.
  std::vector<std::pair<std::int32_t, std::size_t>> bandwidth_changes;
};

/// Builds the barrier agenda: every scripted event time (ticks advance by
/// the same floating-point recurrence t += interval), the horizon as the
/// final barrier, and filler barriers so no two
/// consecutive barriers are more than `lookahead` apart. An infinite
/// lookahead (no cross-shard pairs) inserts no fillers.
std::vector<EpochBarrier> build_epoch_barriers(
    double horizon, double lookahead, double control_interval,
    bool has_controller, const std::vector<double>& fault_times,
    const std::vector<std::vector<double>>& bandwidth_times,
    double obs_interval = 0.0);

}  // namespace scalpel
