#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

namespace scalpel {
class Json;
class Table;

/// Why a controller changed (or confirmed) its deployment.
enum class AuditCause {
  kInitialSolve = 0,  // first decision() access
  kResolve,           // bandwidth drift crossed the hysteresis band
  kFailover,          // server/link liveness flipped
  kRungDown,          // degradation ladder stepped down (cheaper surgery)
  kRungUp,            // ladder stepped back up on recovery
  kThrottleOn,        // bottom-rung admission gate engaged from open
  kThrottleAdjust,    // gate retuned while already engaged
  kThrottleOff,       // gate released
  kTelemetryRejected, // sanitizer held/rejected part of an observation
  kSolverTimeout,     // re-solve exceeded its budget or threw
  kPlanRejected,      // validate_plan refused a solver/fallback output
  kFallbackApplied,   // fallback chain adopted a survival plan
  kCoordinatorLost,   // heartbeat timeout: cell lost the global coordinator
  kLocalAutonomy,     // cell adopted a validated local plan while partitioned
  kRejoin,            // first coordinator message after a loss
  kStalePrice,        // grant/price aged past freshness; discount applied
  kEpochRejected,     // plan/grant carried an epoch <= last adopted
  kSloBurnStart,      // SloMonitor: every burn window crossed its threshold
  kSloBurnStop,       // SloMonitor: burn receded below the alerting point
};

const char* audit_cause_name(AuditCause cause);

/// One controller decision, with enough before/after context to attribute a
/// simulated outcome (an F16 failover dip, an F17 rung walk) to the exact
/// observation that caused it. Plan summaries are strings on purpose: the
/// log is a flight recorder, not a decision store, and keeping it decoupled
/// from core's Decision lets obs sit below every other library.
struct AuditRecord {
  double time = 0.0;  // sim seconds fed via DecisionAuditLog::advance_time
  AuditCause cause = AuditCause::kInitialSolve;
  std::string detail;        // trigger, e.g. "cell 2 bandwidth -41%"
  std::string plan_before;   // summary, e.g. "joint rung=0 offload=3/4"
  std::string plan_after;
  std::size_t rung_before = 0;
  std::size_t rung_after = 0;
  double accuracy_before = 0.0;  // predicted, rate-weighted
  double accuracy_after = 0.0;
  double admit_before = 1.0;  // mean admission fraction (1 = gate open)
  double admit_after = 1.0;
};

/// Append-only, bounded decision log. Controllers stamp records with the
/// last advance_time() value, so a simulator callback wires the clock with
/// one call per tick; records beyond `max_records` evict the oldest.
class DecisionAuditLog {
 public:
  explicit DecisionAuditLog(std::size_t max_records = 4096)
      : max_records_(max_records) {}

  void advance_time(double now) { now_ = now; }
  double time() const { return now_; }

  /// Stamps `record.time` with the current clock and appends.
  void append(AuditRecord record);

  const std::deque<AuditRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  /// Records evicted because the log was full.
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Array of record objects (sorted field order) for machine consumption.
  Json to_json() const;
  /// Console/CSV view: time, cause, detail, rung, accuracy, admit columns.
  Table to_table() const;
  /// Writes JSON (or CSV with a ".csv" suffix); false + log on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::deque<AuditRecord> records_;
  std::size_t max_records_;
  std::uint64_t dropped_ = 0;
  double now_ = 0.0;
};

}  // namespace scalpel
