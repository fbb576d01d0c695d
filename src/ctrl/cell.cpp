#include "ctrl/cell.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/failover.hpp"
#include "core/objective.hpp"
#include "util/assert.hpp"

namespace scalpel {

namespace {

/// Seconds without any coordinator message before the cell declares the
/// coordinator lost and enters validated local autonomy.
constexpr double kHeartbeatTimeout = 3.0;
/// Seconds between load reports to the coordinator.
constexpr double kReportInterval = 1.0;
/// A slice grant older than this is stale (the cell then trusts only
/// CellController::kStaleDiscount of it). Heartbeats carrying the adopted
/// epoch re-anchor freshness, so a live converged coordinator keeps its
/// cells permanently fresh.
constexpr double kFreshFor = 5.0;
/// Wall-clock budget of a local solve: none (the watchdog still catches
/// throws and validates the plan on the cell's sub-instance).
constexpr double kSolveBudgetSeconds = std::numeric_limits<double>::infinity();

/// A plan that runs all `n` members on their devices.
std::vector<DeviceDecision> all_device_only(std::size_t n) {
  std::vector<DeviceDecision> plan(n);
  for (auto& dd : plan) dd.plan.device_only = true;
  return plan;
}

}  // namespace

CellController::CellController(const ProblemInstance& global, CellId cell,
                               CellControllerOptions opts,
                               DecisionAuditLog* audit)
    : global_(&global), cell_(cell), opts_(std::move(opts)), audit_(audit) {
  const auto& topo = global_->topology();
  SCALPEL_REQUIRE(cell >= 0 &&
                      static_cast<std::size_t>(cell) < topo.cells().size(),
                  "cell controller references missing cell");
  members_ = topo.devices_in_cell(cell_);
  num_servers_ = topo.servers().size();
  const double equal = 1.0 / static_cast<double>(topo.cells().size());
  slice_.assign(num_servers_, equal);
  observed_bw_ = topo.cell(cell_).bandwidth;
}

std::string CellController::tag() const {
  return "cell " + std::to_string(cell_) + ": ";
}

double CellController::slice_mean() const {
  if (slice_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : slice_) sum += v;
  return sum / static_cast<double>(slice_.size());
}

void CellController::receive(const CtrlMessage& msg, double now) {
  if (msg.from != 0) return;
  last_coord_seen_ = now;
  if (autonomous_) {
    autonomous_ = false;
    ++rejoins_;
    note(AuditCause::kRejoin, std::string("coordinator back (") +
                                  ctrl_msg_name(msg.type) + ", epoch " +
                                  std::to_string(msg.epoch) + ")");
  }
  if (msg.type != CtrlMsgType::kSliceGrant) {
    // A heartbeat carrying the adopted epoch confirms the slice matrix has
    // not moved since our grant: re-anchor price freshness to it. A
    // converged coordinator stops granting, so without this every cell
    // would drift into permanent staleness on a perfectly healthy fabric.
    // A heartbeat with a *newer* epoch means we missed a grant — the view
    // really is stale, and the coordinator's anti-entropy re-grant (keyed
    // off our load-report epoch echo) is what repairs it.
    if (msg.epoch == adopted_epoch_) {
      granted_at_ = std::max(granted_at_, msg.sent_at);
      if (stale_ && now - granted_at_ <= kFreshFor) {
        stale_ = false;
        pending_solve_ = true;  // restore the undiscounted slice
      }
    }
    return;
  }
  if (msg.epoch <= adopted_epoch_) {
    // Split-brain / reorder guard: a grant that doesn't outrank the adopted
    // one is discarded — a delayed pre-crash grant can never roll the cell
    // back behind a post-restart coordinator.
    ++epochs_rejected_;
    if (tracer_ != nullptr) {
      tracer_->record(ctrl_span_of(msg, now, CtrlSpanEvent::kRejectedStale));
    }
    note(AuditCause::kEpochRejected,
         "grant epoch " + std::to_string(msg.epoch) + " <= adopted " +
             std::to_string(adopted_epoch_));
    return;
  }
  SCALPEL_REQUIRE(msg.payload.size() == num_servers_,
                  "slice grant arity mismatch");
  double max_delta = 0.0;
  for (std::size_t s = 0; s < num_servers_; ++s) {
    max_delta = std::max(max_delta, std::abs(msg.payload[s] - slice_[s]));
  }
  slice_ = msg.payload;
  adopted_epoch_ = msg.epoch;
  ++adoptions_;
  if (tracer_ != nullptr) {
    tracer_->record(ctrl_span_of(msg, now, CtrlSpanEvent::kAdopted));
  }
  // Price age counts from when the coordinator computed the grant, so
  // fabric delay eats into freshness — a slow fabric degrades gracefully
  // into the stale-discount regime instead of pretending to be current.
  granted_at_ = msg.sent_at;
  const bool was_stale = stale_;
  stale_ = false;
  if (was_stale || max_delta > kSliceHysteresis) pending_solve_ = true;
  append_log();
}

bool CellController::repair(std::vector<DeviceDecision>& plan,
                            const std::vector<bool>& server_alive) const {
  bool changed = false;
  for (auto& dd : plan) {
    if (dd.plan.device_only) continue;
    const bool usable =
        dd.server >= 0 && static_cast<std::size_t>(dd.server) < num_servers_ &&
        server_alive[static_cast<std::size_t>(dd.server)] &&
        slice_[static_cast<std::size_t>(dd.server)] > 1e-9;
    if (usable) continue;
    dd.plan.device_only = true;
    dd.server = -1;
    dd.compute_share = 0.0;
    dd.bandwidth = 0.0;
    changed = true;
  }
  return changed;
}

void CellController::hold(AuditCause cause, std::string detail) {
  if (audit_ == nullptr) return;
  AuditRecord r;
  r.cause = cause;
  r.detail = tag() + std::move(detail);
  held_.push_back(std::move(r));
}

void CellController::note(AuditCause cause, std::string detail) {
  if (audit_ == nullptr) return;
  AuditRecord r;
  r.cause = cause;
  r.detail = tag() + std::move(detail);
  audit_->append(std::move(r));
}

bool CellController::tick(double now, double cell_bandwidth,
                          const std::vector<bool>& server_alive,
                          ControlFabric& fabric) {
  begin_tick(now, cell_bandwidth, server_alive);
  solve_pending();
  return finish_tick(now, fabric);
}

bool CellController::begin_tick(double now, double cell_bandwidth,
                                const std::vector<bool>& server_alive) {
  observed_bw_ = cell_bandwidth;

  if (!autonomous_ && now - last_coord_seen_ > kHeartbeatTimeout) {
    autonomous_ = true;
    ++coordinator_losses_;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "no coordinator message for %.1fs (timeout %.1fs)",
                  now - last_coord_seen_, kHeartbeatTimeout);
    hold(AuditCause::kCoordinatorLost, buf);
  }
  if (!stale_ && now - granted_at_ > kFreshFor) {
    stale_ = true;
    ++stale_transitions_;
    pending_solve_ = true;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "grant epoch %llu age %.1fs > %.1fs; usable slice x%.2f",
                  static_cast<unsigned long long>(adopted_epoch_),
                  now - granted_at_, kFreshFor, kStaleDiscount);
    hold(AuditCause::kStalePrice, buf);
  }

  const bool liveness_flip =
      !solved_alive_.empty() && server_alive != solved_alive_;
  std::string detail;
  if (liveness_flip) {
    pending_solve_ = true;
    failover::append_liveness_flips(detail, solved_alive_, server_alive);
  } else if (has_plan_ && solved_bw_ > 0.0 &&
             std::abs(observed_bw_ / solved_bw_ - 1.0) >
                 failover::kBandwidthHysteresis) {
    pending_solve_ = true;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "uplink %+.0f%%",
                  (observed_bw_ / solved_bw_ - 1.0) * 100.0);
    detail = buf;
  }
  if (!has_plan_) pending_solve_ = true;
  solved_alive_ = server_alive;
  if (!pending_solve_) return false;

  pending_solve_ = false;
  PendingSolve& solve = solve_.emplace();
  solve.cause = !has_plan_      ? AuditCause::kInitialSolve
                : liveness_flip ? AuditCause::kFailover
                : autonomous_   ? AuditCause::kLocalAutonomy
                                : AuditCause::kResolve;
  if (detail.empty()) {
    detail = !has_plan_    ? "first local solve"
             : autonomous_ ? "validated local plan while partitioned"
             : stale_      ? "discounted stale slice"
                           : "slice/conditions moved";
  }
  solve.detail = std::move(detail);
  return true;
}

void CellController::solve_pending() {
  if (!solve_) return;
  PendingSolve& solve = *solve_;
  ++local_solves_;
  // Per server, the capacity share the sub-problem gets: the trusted slice,
  // at most the whole server; 0 leaves a dead or sliceless server out.
  const double discount = stale_ ? kStaleDiscount : 1.0;
  solve.scale.assign(num_servers_, 0.0);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    const double usable = slice_[s] * discount;
    if ((!solved_alive_.empty() && !solved_alive_[s]) || usable <= 1e-9) {
      continue;
    }
    solve.scale[s] = std::min(1.0, usable);
    solve.any_server = true;
  }
  if (!solve.any_server) return;

  Cell uplink = global_->topology().cell(cell_);
  uplink.bandwidth = observed_bw_;
  const ProblemInstance sub =
      failover::reduce(*global_, {uplink}, solve.scale);
  solve.outcome = failover::guarded_attempt(
      sub, /*alive=*/{}, kSolveBudgetSeconds,
      [&] { return failover::solve(opts_.solver, sub, opts_.joint); });
}

bool CellController::finish_tick(double now, ControlFabric& fabric) {
  for (AuditRecord& r : held_) audit_->append(std::move(r));  // none if null
  held_.clear();

  bool changed = false;
  if (solve_) {
    changed = adopt_solve(std::move(*solve_));
    solve_.reset();
  }

  if (now >= next_report_) {
    next_report_ = now + kReportInterval;
    CtrlMessage m;
    m.type = CtrlMsgType::kLoadReport;
    m.from = 1 + static_cast<int>(cell_);
    m.to = 0;
    m.corr = (static_cast<std::uint64_t>(1 + cell_) << 48) | ++corr_counter_;
    m.epoch = adopted_epoch_;
    m.payload.assign(num_servers_, 0.0);
    for (const auto& dd : local_) {
      if (dd.plan.device_only) continue;
      m.payload[static_cast<std::size_t>(dd.server)] += dd.compute_share;
    }
    fabric.send(std::move(m), now);
  }
  return changed;
}

bool CellController::adopt(std::vector<DeviceDecision> fresh, AuditCause why,
                           std::string why_detail) {
  const bool changed = !has_plan_ || fresh != local_;
  local_ = std::move(fresh);
  has_plan_ = true;
  solved_bw_ = observed_bw_;
  append_log();
  if (audit_ != nullptr && changed) {
    std::size_t offload = 0;
    for (const auto& dd : local_) {
      if (!dd.plan.device_only) ++offload;
    }
    AuditRecord r;
    r.cause = why;
    r.detail = tag() + std::move(why_detail);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "offload=%zu/%zu epoch=%llu", offload,
                  local_.size(),
                  static_cast<unsigned long long>(adopted_epoch_));
    r.plan_after = buf;
    audit_->append(std::move(r));
  }
  return changed;
}

bool CellController::adopt_solve(PendingSolve solve) {
  if (!solve.any_server) {
    // No live server with a usable slice: the whole cell runs device-only.
    return adopt(all_device_only(members_.size()), solve.cause,
                 solve.detail + "; no usable server");
  }

  if (solve.outcome.ok) {
    // Map the sub-space decision back to global ids and global share space.
    // Local share sums are clamped to exactly 1 (validation allows a few
    // percent of slack that the global evaluator does not), and bandwidth
    // sums to the observed uplink, so the merged plan can never trip the
    // global capacity checks.
    Decision& decision = solve.outcome.decision;
    const std::vector<double>& scale = solve.scale;
    failover::lift(decision, scale);
    std::vector<double> share_sum(num_servers_, 0.0);
    double bw_sum = 0.0;
    for (const auto& dd : decision.per_device) {
      if (dd.plan.device_only) continue;
      share_sum[static_cast<std::size_t>(dd.server)] += dd.compute_share;
      bw_sum += dd.bandwidth;
    }
    const double bw_scale =
        bw_sum > observed_bw_ ? observed_bw_ / bw_sum : 1.0;
    std::vector<DeviceDecision> fresh(members_.size());
    for (std::size_t j = 0; j < members_.size(); ++j) {
      DeviceDecision dd = decision.per_device[j];
      if (dd.plan.device_only) {
        fresh[j].plan = dd.plan;
        continue;
      }
      const auto s = static_cast<std::size_t>(dd.server);
      const double sigma_scale =
          share_sum[s] > 1.0 ? 1.0 / share_sum[s] : 1.0;
      dd.compute_share = dd.compute_share * sigma_scale * scale[s];
      dd.bandwidth *= bw_scale;
      fresh[j] = std::move(dd);
    }
    return adopt(std::move(fresh), solve.cause, std::move(solve.detail));
  }

  // Per-cell fallback chain: audit the failure, then keep the last-good
  // local plan (repaired so no member points at a dead or sliceless
  // server), else degrade the cell to device-only. Either way the cell's
  // devices stay routable.
  ++fallbacks_;
  note(solve.outcome.fail_cause, std::move(solve.outcome.fail_detail));
  if (has_plan_) {
    std::vector<DeviceDecision> kept = local_;
    const bool repaired = repair(
        kept, solved_alive_.empty() ? std::vector<bool>(num_servers_, true)
                                    : solved_alive_);
    return adopt(std::move(kept), AuditCause::kFallbackApplied,
                 repaired ? "kept last-good plan, dead targets device-only"
                          : "kept last-good plan");
  }
  adopt(all_device_only(members_.size()), AuditCause::kFallbackApplied,
        "degraded cell to device-only");
  return true;
}

void CellController::append_log() {
  LogEntry e;
  e.epoch = adopted_epoch_;
  e.slice = slice_;
  e.granted_at = granted_at_;
  e.local = local_;
  e.has_plan = has_plan_;
  log_.push_back(std::move(e));
}

void CellController::crash() {
  const double equal =
      1.0 / static_cast<double>(global_->topology().cells().size());
  slice_.assign(num_servers_, equal);
  adopted_epoch_ = 0;
  granted_at_ = 0.0;
  last_coord_seen_ = 0.0;
  autonomous_ = false;
  stale_ = false;
  has_plan_ = false;
  local_.clear();
  solved_bw_ = 0.0;
  solved_alive_.clear();
  next_report_ = 0.0;
  pending_solve_ = false;
}

void CellController::restart(double now) {
  ++restarts_;
  if (!log_.empty()) {
    const LogEntry& e = log_.back();
    adopted_epoch_ = e.epoch;
    slice_ = e.slice;
    granted_at_ = e.granted_at;
    local_ = e.local;
    has_plan_ = e.has_plan;
  }
  // Fresh grace windows: a restarted controller must re-observe silence for
  // a full timeout before declaring the coordinator lost, and re-anchors
  // its report cadence at the restart time.
  last_coord_seen_ = now;
  next_report_ = now;
  pending_solve_ = !has_plan_;
  note(AuditCause::kFailover, "controller restart, replayed epoch " +
                                  std::to_string(adopted_epoch_) + " from " +
                                  std::to_string(log_.size()) +
                                  " log entries");
}

}  // namespace scalpel
