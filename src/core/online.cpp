#include "core/online.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/failover.hpp"
#include "core/objective.hpp"
#include "obs/timeseries.hpp"
#include "surgery/exit_setting.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {

namespace {

/// Rungs the degradation ladder generates below the base plan.
constexpr std::size_t kLadderRungs = 4;
/// Per rung, each device's accuracy floor drops by this much below its base
/// plan's expected accuracy.
constexpr double kAccuracyStep = 0.05;
/// Enable INT8-quantized uploads from this ladder rung down (offloading
/// plans).
constexpr std::size_t kQuantizeFrom = 2;
/// A device is overloaded when its offered rate exceeds this multiple of
/// the current rung's sustainable rate, or its queue depth exceeds
/// kQueueTrigger.
constexpr double kOverloadMargin = 1.0;
/// Queue depth (tasks buffered at the device across all stages) that flags
/// overload regardless of the rate estimate.
constexpr double kQueueTrigger = 16.0;
/// Headroom for the bottom-rung admission gate (load shedding is the last
/// resort once the ladder is exhausted).
constexpr double kThrottleHeadroom = 0.9;

}  // namespace

std::vector<LadderRung> build_degradation_ladder(
    const ProblemInstance& instance, const Decision& base,
    const JointOptions& joint) {
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  SCALPEL_REQUIRE(base.per_device.size() == n,
                  "ladder base must cover every device");

  std::vector<LadderRung> ladder;
  std::vector<double> prev_acc(n);

  double rate_total = 0.0;
  for (const auto& d : topo.devices()) rate_total += d.arrival_rate;

  LadderRung r0;
  r0.accuracy_floor = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<DeviceId>(i);
    const PlanModel pm = build_plan_model(instance, id, base.per_device[i]);
    prev_acc[i] = pm.expected_accuracy();
    r0.plans.push_back(base.per_device[i].plan);
    r0.sustainable.push_back(
        admission::max_sustainable_rate(instance, id, base.per_device[i], 1.0));
    r0.predicted_accuracy +=
        topo.device(id).arrival_rate / rate_total * prev_acc[i];
    r0.accuracy_floor = std::min(r0.accuracy_floor, prev_acc[i]);
  }
  const std::vector<double> base_acc = prev_acc;
  ladder.push_back(std::move(r0));

  // Rung k re-runs device i's device-only exit-setting DP at floor
  // base_acc[i] - k * kAccuracyStep. The floor is read only when the DP's
  // frontier is finished, so each device's frontier is built once and
  // finished at all its rung floors. Devices are independent, so they run
  // across the shared pool, each thread claiming the next device.
  const auto rung_floor = [&](std::size_t i, std::size_t k) {
    return std::max(0.0, base_acc[i] - static_cast<double>(k) * kAccuracyStep);
  };
  std::vector<std::vector<ExitSettingResult>> rung_dp(n);
  std::atomic<std::size_t> next_device{0};
  auto solve_rungs = [&](std::size_t, std::size_t) {
    for (std::size_t i; (i = next_device.fetch_add(1)) < n;) {
      const auto id = static_cast<DeviceId>(i);
      const auto& device = topo.device(id);
      const auto& bundle = instance.bundle_for(id);
      std::vector<double> floors(kLadderRungs);
      for (std::size_t k = 1; k <= kLadderRungs; ++k) {
        floors[k - 1] = rung_floor(i, k);
      }
      rung_dp[i] = dp_exit_setting_floors(
          bundle.graph, bundle.candidates, bundle.accuracy, device.compute,
          exit_setting_options(joint, device), floors);
    }
  };
  ThreadPool& pool = ThreadPool::shared();
  pool.parallel_for(0, pool.size(), solve_rungs);

  for (std::size_t k = 1; k <= kLadderRungs; ++k) {
    const LadderRung& prev = ladder.back();
    LadderRung rung;
    rung.accuracy_floor = 1.0;
    std::vector<double> rung_acc(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<DeviceId>(i);
      const auto& device = topo.device(id);
      const double floor_k = rung_floor(i, k);
      SurgeryPlan plan = prev.plans[i];
      const ExitSettingResult& res = rung_dp[i][k - 1];
      if (res.feasible) plan.policy = res.policy;
      if (!plan.device_only && k >= kQuantizeFrom) {
        plan.quantize_upload = true;
      }
      DeviceDecision dd = base.per_device[i];
      dd.plan = plan;
      double acc = build_plan_model(instance, id, dd).expected_accuracy();
      double sustainable =
          admission::max_sustainable_rate(instance, id, dd, 1.0);
      // The DP only promises the floor, not ordering between rungs: reject a
      // candidate that would raise accuracy or shrink capacity relative to
      // the rung above, keeping the ladder monotone in both.
      if (acc > prev_acc[i] + 1e-9 ||
          sustainable < prev.sustainable[i] - 1e-9) {
        plan = prev.plans[i];
        acc = prev_acc[i];
        sustainable = prev.sustainable[i];
      }
      rung.plans.push_back(plan);
      rung.sustainable.push_back(sustainable);
      rung_acc[i] = acc;
      rung.predicted_accuracy += device.arrival_rate / rate_total * acc;
      rung.accuracy_floor = std::min(rung.accuracy_floor, floor_k);
    }
    bool distinct = false;
    for (std::size_t i = 0; i < n && !distinct; ++i) {
      distinct = rung.plans[i] != prev.plans[i];
    }
    // A duplicate rung is skipped, but deeper floors may still unlock new
    // plans, so keep descending.
    if (distinct) {
      prev_acc = rung_acc;
      ladder.push_back(std::move(rung));
    }
  }
  return ladder;
}

std::string OnlineController::plan_summary() const {
  if (!solved_) return "unsolved";
  std::size_t offload = 0;
  std::size_t quantized = 0;
  for (const auto& dd : decision_.per_device) {
    if (!dd.plan.device_only) ++offload;
    if (dd.plan.quantize_upload) ++quantized;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%s rung=%zu offload=%zu/%zu quant=%zu acc=%.3f",
                decision_.scheme.empty() ? "plan" : decision_.scheme.c_str(),
                rung_, offload, decision_.per_device.size(), quantized,
                predicted_accuracy());
  return buf;
}

double OnlineController::predicted_accuracy() const {
  if (decision_.predicted.empty()) return 0.0;
  const auto& devices = instance_.topology().devices();
  double rate_total = 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < decision_.predicted.size(); ++i) {
    const double rate = i < devices.size() ? devices[i].arrival_rate : 1.0;
    rate_total += rate;
    acc += rate * decision_.predicted[i].expected_accuracy;
  }
  return rate_total > 0.0 ? acc / rate_total : 0.0;
}

double OnlineController::mean_admit() const {
  if (admit_fraction_.empty()) return 1.0;
  double sum = 0.0;
  for (double f : admit_fraction_) sum += f;
  return sum / static_cast<double>(admit_fraction_.size());
}

void OnlineController::register_sources(TimeSeriesRecorder& recorder) {
  recorder.register_gauge("online.rung", [this] {
    return static_cast<double>(rung_);
  });
  recorder.register_gauge("online.admit_fraction",
                          [this] { return mean_admit(); });
  recorder.register_counter("online.degradations", [this] {
    return static_cast<double>(degradations_);
  });
  recorder.register_counter("online.recoveries", [this] {
    return static_cast<double>(recoveries_);
  });
  recorder.register_counter("online.reoptimizations", [this] {
    return static_cast<double>(reoptimizations_);
  });
}

AuditRecord OnlineController::audit_open(AuditCause cause,
                                         std::string detail) const {
  AuditRecord r;
  r.cause = cause;
  r.detail = std::move(detail);
  r.plan_before = plan_summary();
  r.rung_before = rung_;
  r.accuracy_before = predicted_accuracy();
  r.admit_before = mean_admit();
  return r;
}

void OnlineController::audit_commit(AuditRecord record) {
  record.plan_after = plan_summary();
  record.rung_after = rung_;
  record.accuracy_after = predicted_accuracy();
  record.admit_after = mean_admit();
  audit_.append(std::move(record));
}

OnlineController::OnlineController(const ClusterTopology& topology)
    : OnlineController(topology, Options{}) {}

OnlineController::OnlineController(const ClusterTopology& topology,
                                   Options opts)
    : opts_(std::move(opts)), instance_(topology) {
  SCALPEL_REQUIRE(opts_.hysteresis >= 0.0, "hysteresis must be non-negative");
  SCALPEL_REQUIRE(opts_.robustness.solve_budget_seconds > 0.0,
                  "solve budget must be positive");
  for (const auto& c : instance_.topology().cells()) {
    solved_bandwidth_.push_back(c.bandwidth);
  }
  alive_.assign(instance_.topology().servers().size(), true);
  solved_alive_ = alive_;
  sanitizer_ = TelemetrySanitizer(opts_.robustness.sanitizer,
                                  instance_.topology().cells().size(),
                                  alive_.size());
}

bool OnlineController::guarded_solve(bool liveness_changed) {
  // The solve closure never touches controller state, so a failed attempt
  // needs no restore — decision_ and the solved-state anchors only advance
  // when the watchdog accepts the output.
  failover::GuardedOutcome outcome = failover::guarded_attempt(
      instance_, alive_, opts_.robustness.solve_budget_seconds,
      [&]() -> Decision {
        if (std::find(alive_.begin(), alive_.end(), true) == alive_.end()) {
          return failover::device_only_fallback(instance_);
        }
        if (std::find(alive_.begin(), alive_.end(), false) == alive_.end()) {
          return failover::solve(opts_.solver, instance_, opts_.joint);
        }
        // Dead servers drop out of the sub-problem; the lifted plan is
        // re-evaluated on the full instance under the real server ids.
        const std::vector<double> scale(alive_.begin(), alive_.end());
        Decision d = failover::solve(
            opts_.solver,
            failover::reduce(instance_, instance_.topology().cells(), scale),
            opts_.joint);
        failover::lift(d, scale);
        evaluate_decision(instance_, d);
        return d;
      });
  if (outcome.ok) {
    decision_ = std::move(outcome.decision);
    for (const auto& c : instance_.topology().cells()) {
      solved_bandwidth_[static_cast<std::size_t>(c.id)] = c.bandwidth;
    }
    solved_alive_ = alive_;
    solved_ = true;
    return true;
  }

  if (outcome.fail_cause == AuditCause::kPlanRejected) {
    ++plans_rejected_;
  } else {
    ++solver_timeouts_;
  }
  audit_commit(audit_open(outcome.fail_cause, outcome.fail_detail));

  ++fallbacks_;
  AuditRecord fb = audit_open(AuditCause::kFallbackApplied, "");
  failover::FallbackOutcome fallen = failover::fallback_chain(
      instance_, alive_, solved_ ? &decision_ : nullptr);
  if (fallen.remap_rejected) ++plans_rejected_;
  fb.detail = fallen.detail;
  const bool changed = !fallen.kept_previous;
  if (!fallen.kept_previous) decision_ = std::move(fallen.decision);
  solved_ = true;
  // A handled failover must not re-trigger every window; stale bandwidth
  // anchors stay, so the next drift window re-attempts a real solve.
  if (liveness_changed) solved_alive_ = alive_;
  audit_commit(std::move(fb));
  return changed;
}

const Decision& OnlineController::decision() {
  if (!solved_) {
    AuditRecord r = audit_open(AuditCause::kInitialSolve, "first solve");
    guarded_solve(false);
    audit_commit(std::move(r));
  }
  return decision_;
}

bool OnlineController::observe(const Observation& raw) {
  const auto& topo = instance_.topology();
  const std::size_t num_devices = topo.devices().size();
  const bool has_load = !raw.offered_rate.empty() || !raw.queue_depth.empty();
  SCALPEL_REQUIRE(!has_load || (raw.offered_rate.size() == num_devices &&
                                raw.queue_depth.size() == num_devices),
                  "overload observation must cover every device");
  SCALPEL_REQUIRE(raw.cell_bandwidth.size() == topo.cells().size(),
                  "observation must cover every cell");
  SCALPEL_REQUIRE(raw.server_alive.size() == topo.servers().size(),
                  "observation must cover every server");
  if (raw.time > audit_.time()) audit_.advance_time(raw.time);

  Observation o = raw;
  const SanitizeReport rep = sanitizer_.apply(o);
  if (rep.any()) {
    ++telemetry_rejections_;
    audit_commit(audit_open(AuditCause::kTelemetryRejected, rep.summary()));
  }

  if (!solved_) {
    AuditRecord r = audit_open(AuditCause::kInitialSolve, "first solve");
    guarded_solve(false);
    audit_commit(std::move(r));
  }
  bool changed = false;
  bool drifted = false;
  std::string detail;
  for (std::size_t c = 0; c < o.cell_bandwidth.size(); ++c) {
    SCALPEL_REQUIRE(o.cell_bandwidth[c] > 0.0,
                    "observed bandwidth must be positive");
    const double ratio = o.cell_bandwidth[c] / solved_bandwidth_[c];
    if (std::abs(ratio - 1.0) > opts_.hysteresis) {
      drifted = true;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "cell %zu bandwidth %+.0f%%", c,
                    (ratio - 1.0) * 100.0);
      detail = buf;
      break;
    }
  }
  const bool liveness_changed = o.server_alive != solved_alive_;
  if (!drifted && !liveness_changed) {
    alive_ = o.server_alive;
  } else {
    failover::append_liveness_flips(detail, solved_alive_, o.server_alive);
    // Adopt the believed conditions and re-solve under the watchdog.
    auto& mutable_topo = instance_.mutable_topology();
    for (std::size_t c = 0; c < o.cell_bandwidth.size(); ++c) {
      mutable_topo.set_cell_bandwidth(static_cast<CellId>(c),
                                      o.cell_bandwidth[c]);
    }
    alive_ = o.server_alive;
    AuditRecord r = audit_open(
        liveness_changed ? AuditCause::kFailover : AuditCause::kResolve,
        std::move(detail));
    changed = guarded_solve(liveness_changed);
    ++reoptimizations_;
    if (liveness_changed) ++failovers_;
    if (!ladder_.empty()) rebuild_ladder();
    audit_commit(std::move(r));
  }
  if (!has_load) return changed;
  return observe_load(o, changed);
}

ObservingController OnlineController::callback() {
  return [this](const Observation& o) {
    ControlAction a;
    if (observe(o)) {
      a.decision = decision();
      a.admit_fraction = admit_fraction();
    }
    return a;
  };
}

void OnlineController::rebuild_ladder() {
  ladder_ = build_degradation_ladder(instance_, decision_, opts_.joint);
  if (rung_ >= ladder_.size()) rung_ = ladder_.size() - 1;
  if (rung_ > 0) apply_rung();
}

void OnlineController::apply_rung() {
  for (std::size_t i = 0; i < decision_.per_device.size(); ++i) {
    decision_.per_device[i].plan = ladder_[rung_].plans[i];
  }
  evaluate_decision(instance_, decision_);
}

bool OnlineController::observe_load(const Observation& obs, bool changed) {
  const std::size_t n = instance_.topology().devices().size();
  const std::vector<double>& offered_rate = obs.offered_rate;
  const std::vector<double>& queue_depth = obs.queue_depth;
  // The base observation rebuilds the ladder itself when it re-solves (the
  // ladder is anchored to the solved plans); first call builds it here.
  if (ladder_.empty()) rebuild_ladder();

  const LadderRung& cur = ladder_[rung_];
  const bool gated = !admit_fraction_.empty();
  // Recovery unwinds in reverse order of escalation — the gate clears
  // before any rung climbs — so calm is judged against what the next
  // recovery step must sustain.
  const LadderRung& target = gated ? cur : ladder_[rung_ > 0 ? rung_ - 1 : 0];
  bool overloaded = false;
  bool calm = true;
  std::string trigger;
  for (std::size_t i = 0; i < n; ++i) {
    SCALPEL_REQUIRE(offered_rate[i] >= 0.0 && queue_depth[i] >= 0.0,
                    "offered rate and queue depth must be non-negative");
    if (offered_rate[i] > kOverloadMargin * cur.sustainable[i] + 1e-12 ||
        queue_depth[i] > kQueueTrigger) {
      if (!overloaded) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "device %zu rate %.2f/%.2f tasks/s queue %.0f", i,
                      offered_rate[i], cur.sustainable[i], queue_depth[i]);
        trigger = buf;
      }
      overloaded = true;
    }
    if (offered_rate[i] >
            opts_.overload.recover_margin * target.sustainable[i] ||
        queue_depth[i] > 0.5 * kQueueTrigger) {
      calm = false;
    }
  }

  if (overloaded) {
    calm_streak_ = 0;
    if (++overload_streak_ >= kTriggerWindows) {
      overload_streak_ = 0;
      if (rung_ + 1 < ladder_.size()) {
        AuditRecord r = audit_open(AuditCause::kRungDown, std::move(trigger));
        ++rung_;
        ++degradations_;
        apply_rung();
        changed = true;
        audit_commit(std::move(r));
      } else {
        // Ladder exhausted: shed load at the door, scaled so admitted
        // traffic fits under the bottom rung's capacity.
        std::vector<double> gate(n, 1.0);
        for (std::size_t i = 0; i < n; ++i) {
          if (offered_rate[i] <= 0.0) continue;
          const double cap = kThrottleHeadroom * cur.sustainable[i];
          gate[i] = std::clamp(cap / offered_rate[i], 0.0, 1.0);
        }
        if (gate != admit_fraction_) {
          AuditRecord r = audit_open(
              gated ? AuditCause::kThrottleAdjust : AuditCause::kThrottleOn,
              std::move(trigger));
          if (!gated) ++throttle_activations_;
          admit_fraction_ = std::move(gate);
          changed = true;
          audit_commit(std::move(r));
        }
      }
    }
  } else if (calm) {
    overload_streak_ = 0;
    if (++calm_streak_ >= kRecoveryWindows) {
      calm_streak_ = 0;
      const std::string calm_detail =
          "calm for " + std::to_string(kRecoveryWindows) + " windows";
      if (gated) {
        AuditRecord r = audit_open(AuditCause::kThrottleOff, calm_detail);
        admit_fraction_.clear();
        changed = true;
        audit_commit(std::move(r));
      } else if (rung_ > 0) {
        AuditRecord r = audit_open(AuditCause::kRungUp, calm_detail);
        --rung_;
        ++recoveries_;
        apply_rung();
        changed = true;
        audit_commit(std::move(r));
      }
    }
  } else {
    overload_streak_ = 0;
    calm_streak_ = 0;
  }
  return changed;
}

}  // namespace scalpel
