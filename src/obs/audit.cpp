#include "obs/audit.hpp"

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace scalpel {

const char* audit_cause_name(AuditCause cause) {
  switch (cause) {
    case AuditCause::kInitialSolve: return "initial_solve";
    case AuditCause::kResolve: return "resolve";
    case AuditCause::kFailover: return "failover";
    case AuditCause::kRungDown: return "rung_down";
    case AuditCause::kRungUp: return "rung_up";
    case AuditCause::kThrottleOn: return "throttle_on";
    case AuditCause::kThrottleAdjust: return "throttle_adjust";
    case AuditCause::kThrottleOff: return "throttle_off";
    case AuditCause::kTelemetryRejected: return "telemetry_rejected";
    case AuditCause::kSolverTimeout: return "solver_timeout";
    case AuditCause::kPlanRejected: return "plan_rejected";
    case AuditCause::kFallbackApplied: return "fallback_applied";
    case AuditCause::kCoordinatorLost: return "coordinator_lost";
    case AuditCause::kLocalAutonomy: return "local_autonomy";
    case AuditCause::kRejoin: return "rejoin";
    case AuditCause::kStalePrice: return "stale_price";
    case AuditCause::kEpochRejected: return "epoch_rejected";
    case AuditCause::kSloBurnStart: return "slo_burn_start";
    case AuditCause::kSloBurnStop: return "slo_burn_stop";
  }
  return "unknown";
}

void DecisionAuditLog::append(AuditRecord record) {
  record.time = now_;
  if (max_records_ > 0 && records_.size() >= max_records_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

void DecisionAuditLog::clear() {
  records_.clear();
  dropped_ = 0;
}

Json DecisionAuditLog::to_json() const {
  Json arr = Json::array();
  for (const auto& r : records_) {
    Json o = Json::object();
    o.set("time", Json::number(r.time));
    o.set("cause", Json::string(audit_cause_name(r.cause)));
    o.set("detail", Json::string(r.detail));
    o.set("plan_before", Json::string(r.plan_before));
    o.set("plan_after", Json::string(r.plan_after));
    o.set("rung_before", Json::number(static_cast<double>(r.rung_before)));
    o.set("rung_after", Json::number(static_cast<double>(r.rung_after)));
    o.set("accuracy_before", Json::number(r.accuracy_before));
    o.set("accuracy_after", Json::number(r.accuracy_after));
    o.set("admit_before", Json::number(r.admit_before));
    o.set("admit_after", Json::number(r.admit_after));
    arr.push_back(std::move(o));
  }
  return arr;
}

Table DecisionAuditLog::to_table() const {
  Table t({"time s", "cause", "detail", "rung", "accuracy", "admit"});
  for (const auto& r : records_) {
    t.add_row({Table::num(r.time, 2), audit_cause_name(r.cause), r.detail,
               Table::num(static_cast<std::int64_t>(r.rung_before)) + "->" +
                   Table::num(static_cast<std::int64_t>(r.rung_after)),
               Table::num(r.accuracy_before, 3) + "->" +
                   Table::num(r.accuracy_after, 3),
               Table::num(r.admit_before, 2) + "->" +
                   Table::num(r.admit_after, 2)});
  }
  return t;
}

bool DecisionAuditLog::write(const std::string& path) const {
  if (path.ends_with(".csv")) return write_csv(to_table(), path);
  return write_json_file(path, [&](JsonWriter& w) { w.value(to_json()); });
}

}  // namespace scalpel
