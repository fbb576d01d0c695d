#pragma once

#include <limits>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/failover.hpp"
#include "core/joint.hpp"
#include "core/observation.hpp"
#include "core/telemetry.hpp"
#include "core/validate.hpp"
#include "obs/audit.hpp"

namespace scalpel {

class TimeSeriesRecorder;

/// One rung of the surgery-based graceful-degradation ladder: per-device
/// SurgeryPlans that are (weakly) cheaper and less accurate than the rung
/// above, with precomputed per-device sustainable rates so overload can be
/// judged against the rung's capacity. Rung 0 is the undegraded base plan.
struct LadderRung {
  std::vector<SurgeryPlan> plans;   // per device, grants untouched
  std::vector<double> sustainable;  // per device max rate (headroom 1.0)
  double predicted_accuracy = 0.0;  // rate-weighted over devices
  double accuracy_floor = 0.0;      // min generation floor across devices
};

/// Precomputes the degradation ladder for a decision: per device and rung,
/// re-runs the exit-setting DP (surgery/exit_setting) with a progressively
/// lower accuracy floor — each rung drops it one fixed step further below
/// the device's base expected accuracy, deliberately trading the configured
/// floors for liveness under overload; lower thresholds and earlier
/// mandatory exits fall out of the DP — and, from rung 2 down, quantizes
/// uploads. Partition point, server, and resource grants stay fixed, so
/// every rung is feasible under the same allocation. Duplicate rungs are
/// skipped. Monotonicity is enforced: a rung never has higher predicted
/// accuracy or lower sustainable rate than the one above it.
///
/// Each device's DP frontier is built once and finished at every rung's
/// floor (dp_exit_setting_floors), with devices spread across
/// ThreadPool::shared(). The ladder is bit-identical for any pool size, and
/// the function may be called from several threads, or from another pool's
/// workers, at once.
std::vector<LadderRung> build_degradation_ladder(
    const ProblemInstance& instance, const Decision& base,
    const JointOptions& joint);

/// Online re-optimization under bandwidth dynamics and hard failures:
/// monitors the observed per-cell bandwidth and per-server liveness,
/// re-running the joint optimizer when conditions drift beyond a hysteresis
/// band (re-optimizing on every fluctuation would thrash plans that real
/// deployments cache on devices) or when any server's liveness flips (a
/// crash is a hard signal — no hysteresis). Dead servers are excluded from
/// the solve; with no server reachable the controller degrades to a
/// device-only deployment rather than failing.
class OnlineController {
 public:
  /// Consecutive overloaded observation windows before stepping down.
  static constexpr std::size_t kTriggerWindows = 2;
  /// Consecutive calm observation windows before stepping back up.
  static constexpr std::size_t kRecoveryWindows = 3;

  struct OverloadControlOptions {
    /// The cluster is calm (eligible for recovery) when every device's
    /// offered rate is below this multiple of the *next rung up*'s
    /// sustainable rate — the gap between it and the overload margin (1.0:
    /// offered rate above the current rung's sustainable rate) is the
    /// hysteresis band that prevents rung thrash.
    double recover_margin = 0.7;
  };

  /// Defenses against imperfect telemetry and a misbehaving solver. Every
  /// default is transparent: a controller fed perfect observations with a
  /// healthy solver behaves bit-identically to one without this layer.
  struct RobustnessOptions {
    /// Trust policy applied to every observation before it is believed
    /// (staleness holds, outlier rejection, liveness debounce/flap freeze).
    SanitizerOptions sanitizer;
    /// Wall-clock budget per re-solve. The joint optimizer has no
    /// cooperative cancellation, so the check is post-hoc: a solve that
    /// overran is discarded and the fallback chain engages. inf disables.
    double solve_budget_seconds = std::numeric_limits<double>::infinity();
  };

  struct Options {
    /// Re-optimize when any cell's bandwidth deviates from the value used at
    /// the last solve by more than this relative factor.
    double hysteresis = failover::kBandwidthHysteresis;
    JointOptions joint;
    OverloadControlOptions overload;
    RobustnessOptions robustness;
    /// Solver seam for every solve, reduced-topology failover solves
    /// included; tests drive the watchdog through it.
    failover::Solver solver;
  };

  explicit OnlineController(const ClusterTopology& topology);
  OnlineController(const ClusterTopology& topology, Options opts);

  /// Current decision (solves on first access if needed).
  const Decision& decision();

  /// Single observation entry point. The raw observation passes through the
  /// telemetry sanitizer (rejections audited as telemetry_rejected), then:
  /// bandwidth drift beyond the hysteresis band or a believed liveness flip
  /// triggers a re-solve, guarded by the solver watchdog — on budget
  /// overrun, a throw, or a plan validate_plan() refuses, the fallback
  /// chain (last-good plan -> reduced-topology remap -> device-only)
  /// guarantees tasks stay routable. Liveness changes always re-solve; dead
  /// servers receive no assignment; all-dead falls back to device-only
  /// execution. With offered_rate/queue_depth present, sustained overload
  /// walks down a precomputed degradation ladder of surgery plans (lower
  /// thresholds, earlier exits, quantized uploads) before resorting to
  /// admission-gate load shedding at the bottom rung; it walks back up —
  /// gate first, then rungs — with hysteresis once load subsides. Returns
  /// true when the active decision or gate changed.
  bool observe(const Observation& o);

  /// Adapter for ShardedSimulator::set_controller: observes every tick and
  /// returns decision() and admit_fraction() together when observe()
  /// reports a change, an empty action otherwise. Captures `this`, so the
  /// controller must outlive the run.
  ObservingController callback();

  std::size_t reoptimizations() const { return reoptimizations_; }
  /// Liveness-triggered re-optimizations (subset of reoptimizations()).
  std::size_t failovers() const { return failovers_; }
  /// Ladder step-downs / step-ups taken by the overload controller.
  std::size_t degradations() const { return degradations_; }
  std::size_t recoveries() const { return recoveries_; }
  /// Times the bottom-rung admission gate was engaged from a clear state.
  std::size_t throttle_activations() const { return throttle_activations_; }
  /// Observations the sanitizer altered (held, rejected, or suppressed).
  std::size_t telemetry_rejections() const { return telemetry_rejections_; }
  /// Watchdog trips: solves that threw or overran the budget.
  std::size_t solver_timeouts() const { return solver_timeouts_; }
  /// Solver outputs (or last-good candidates) validate_plan() refused.
  std::size_t plans_rejected() const { return plans_rejected_; }
  /// Times the fallback chain replaced a failed solve's output.
  std::size_t fallbacks() const { return fallbacks_; }
  /// Active ladder rung (0 = undegraded base plan).
  std::size_t current_rung() const { return rung_; }
  /// The precomputed ladder (empty until the first overload-aware observe).
  const std::vector<LadderRung>& ladder() const { return ladder_; }
  /// Per-device admission fractions in [0, 1]; empty when the gate is open.
  const std::vector<double>& admit_fraction() const { return admit_fraction_; }
  const std::vector<bool>& server_alive() const { return alive_; }
  const ProblemInstance& instance() const { return instance_; }

  /// Flight recorder of every decision change (solve, failover, rung walk,
  /// gate). observe() advances its clock to Observation::time, so records
  /// carry sim time; export with to_json()/to_table().
  DecisionAuditLog& audit_log() { return audit_; }
  const DecisionAuditLog& audit_log() const { return audit_; }

  /// Registers the controller's state as time-series sources (gauges
  /// online.rung / online.admit_fraction, counters online.degradations /
  /// online.recoveries / online.reoptimizations). The recorder must outlive
  /// no samples past this controller's lifetime.
  void register_sources(TimeSeriesRecorder& recorder);

 private:
  /// One watchdog-guarded solve via failover::guarded_attempt (try/catch,
  /// wall-clock budget, validate_plan); picks device-only / reduced-topology
  /// / full solve by liveness. On failure records the failure
  /// (solver_timeout / plan_rejected) and adopts the first valid fallback
  /// from failover::fallback_chain (fallback_applied). `liveness_changed`
  /// decides whether solved_alive_ advances on fallback (a handled failover
  /// must not re-trigger every window). Returns true when the adopted plan
  /// differs from the pre-solve one.
  bool guarded_solve(bool liveness_changed);
  /// Overload-ladder / admission-gate walk over the load signals (the old
  /// rich-observe tail). `changed` carries the re-solve section's result.
  bool observe_load(const Observation& o, bool changed);
  void rebuild_ladder();
  void apply_rung();
  /// One-line summary of the active decision for audit records.
  std::string plan_summary() const;
  double predicted_accuracy() const;
  double mean_admit() const;
  /// Snapshots the before-state, to be completed by audit_commit().
  AuditRecord audit_open(AuditCause cause, std::string detail) const;
  void audit_commit(AuditRecord record);

  Options opts_;
  ProblemInstance instance_;
  std::vector<double> solved_bandwidth_;  // per cell at last solve
  std::vector<bool> alive_;               // per server, latest observation
  std::vector<bool> solved_alive_;        // per server at last solve
  Decision decision_;
  bool solved_ = false;
  std::size_t reoptimizations_ = 0;
  std::size_t failovers_ = 0;

  // Robustness state.
  TelemetrySanitizer sanitizer_;
  std::size_t telemetry_rejections_ = 0;
  std::size_t solver_timeouts_ = 0;
  std::size_t plans_rejected_ = 0;
  std::size_t fallbacks_ = 0;

  // Overload-control state.
  std::vector<LadderRung> ladder_;
  std::vector<double> admit_fraction_;  // empty = gate open
  std::size_t rung_ = 0;
  std::size_t degradations_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t throttle_activations_ = 0;
  std::size_t overload_streak_ = 0;
  std::size_t calm_streak_ = 0;

  DecisionAuditLog audit_;
};

}  // namespace scalpel
