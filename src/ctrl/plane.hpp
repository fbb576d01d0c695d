#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/observation.hpp"
#include "ctrl/cell.hpp"
#include "ctrl/coordinator.hpp"
#include "ctrl/fabric.hpp"
#include "edge/dynamics.hpp"
#include "obs/audit.hpp"

namespace scalpel {
class MetricsRegistry;
class TimeSeriesRecorder;

struct DistributedPlaneOptions {
  ControlFabricOptions fabric;
  CellControllerOptions cell;
  /// Controller liveness script, reusing FaultSchedule with
  /// FaultTarget::Server ids as *endpoint* ids: 0 = the coordinator,
  /// 1 + k = cell k's controller. Independent of the data-plane fault
  /// script — servers and their controllers fail separately.
  FaultSchedule controller_faults;
  /// Seed for the fabric's per-link RNG substreams (dedicated stream tag;
  /// never collides with workload or telemetry substreams).
  std::uint64_t seed = 1;
  /// Control-plane span ring capacity; 0 disables span tracing. Recording
  /// is purely observational (no RNG draws), so a traced plane replays
  /// bit-identically to an untraced one.
  std::size_t span_capacity = 0;
};

/// The distributed control plane: per-cell controllers and a global
/// coordinator exchanging typed messages over a deterministic faulty
/// fabric, packaged behind the engine's ObservingController seam. The
/// engine invokes the callback in its serial phase at control ticks, so the
/// whole plane — message delays, drops, crashes, epochs — is bit-identical
/// across shard x thread configurations by construction.
///
/// Per tick: endpoint liveness transitions (crash wipes volatile state and
/// the victim's in-flight messages; restart replays the endpoint's own
/// state log), due-message delivery in deterministic (deliver_at, seq)
/// order, a coordinator round, then the cell rounds in three phases: every
/// cell's checks in index order, the local solves they schedule side by
/// side on ThreadPool::shared() (each solve touches only its own cell; a
/// custom solver seam runs them in index order on the tick's thread), then
/// every cell's adoption, audit records and load report in index order. So
/// the audit log, the spans and the fabric's draws do not depend on the
/// pool. Changed cell plans merge into one global Decision; the merge
/// clamps per-server global share sums to 1 and per-cell bandwidth sums to
/// observed capacity, so a split-brain mix of slice epochs can squeeze a
/// cell but never produce an unroutable or oversubscribed plan.
class DistributedControlPlane {
 public:
  DistributedControlPlane(const ClusterTopology& topology,
                          DistributedPlaneOptions opts);

  /// One control window. Returns the merged plan when any cell's local
  /// decisions changed (and on the first tick), nothing otherwise.
  ControlAction tick(const Observation& o);

  /// Adapter for ShardedSimulator::set_controller: tick() on every call.
  /// Captures `this`, so the plane must outlive the run.
  ObservingController callback();

  const Decision& merged() const { return merged_; }
  const ProblemInstance& instance() const { return instance_; }
  const ControlFabric& fabric() const { return fabric_; }
  const GlobalCoordinator& coordinator() const { return coord_; }
  const std::vector<CellController>& cells() const { return cells_; }

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t plan_changes() const { return plan_changes_; }
  std::uint64_t coordinator_crashes() const { return coordinator_crashes_; }
  std::uint64_t controller_crashes() const { return controller_crashes_; }
  /// Due messages discarded because their recipient was down.
  std::uint64_t dead_letters() const { return dead_letters_; }
  /// True once the coordinator's tatonnement settled and every live cell
  /// adopted the final epoch.
  bool converged() const;
  std::uint64_t coordinator_losses() const;
  std::uint64_t rejoins() const;
  std::uint64_t stale_events() const;
  std::uint64_t epochs_rejected() const;
  std::uint64_t local_solves() const;
  std::uint64_t cell_fallbacks() const;

  DecisionAuditLog& audit_log() { return audit_; }
  const DecisionAuditLog& audit_log() const { return audit_; }

  /// Span ring for the whole plane (fabric, coordinator, cells all record
  /// into it); empty when span_capacity was 0.
  const CtrlTracer& ctrl_trace() const { return ctrl_trace_; }

  /// Publishes the plane's counters into `registry` as ctrl.* metrics
  /// (absolute values via set_value). Call once, after the run — the
  /// registry then reconciles against the plane's own accessors exactly.
  void publish_metrics(MetricsRegistry& registry) const;

  /// Registers live gauges/counters (ctrl.epoch, per-cell slice + price,
  /// dead letters, fabric drops, re-grants) on a time-series recorder. Call
  /// before the run's first sample.
  void register_sources(TimeSeriesRecorder& recorder);

 private:
  void apply_liveness(double now);
  void route(const CtrlMessage& msg, double now);
  void merge();
  /// Runs the pending solves of the cells begin_tick scheduled.
  void solve_cells(const std::vector<CellController*>& solving);

  DistributedPlaneOptions opts_;
  ProblemInstance instance_;
  ControlFabric fabric_;
  GlobalCoordinator coord_;
  std::vector<CellController> cells_;
  std::vector<bool> endpoint_up_;  // [0] coordinator, [1 + k] cell k
  Decision merged_;
  bool merged_valid_ = false;
  std::uint64_t ticks_ = 0;
  std::uint64_t plan_changes_ = 0;
  std::uint64_t coordinator_crashes_ = 0;
  std::uint64_t controller_crashes_ = 0;
  std::uint64_t dead_letters_ = 0;
  DecisionAuditLog audit_;
  CtrlTracer ctrl_trace_;
};

}  // namespace scalpel
