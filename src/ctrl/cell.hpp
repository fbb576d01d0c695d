#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/failover.hpp"
#include "core/instance.hpp"
#include "core/joint.hpp"
#include "ctrl/fabric.hpp"
#include "obs/audit.hpp"

namespace scalpel {

struct CellControllerOptions {
  JointOptions joint;
  /// Solver seam for the cell's local solves. When set, the plane calls it
  /// on the tick's thread, one cell after another in cell order, so a seam
  /// may keep unsynchronized state; the default solver's solves run side by
  /// side across ThreadPool::shared().
  failover::Solver solver;
};

/// One cell's controller in the distributed plane: solves the joint
/// surgery+allocation problem on its own sub-topology — its cell, its
/// devices, and every live server scaled down to the capacity slice the
/// coordinator granted — and never needs a global view. Local shares map
/// back exactly: a share sigma of a server scaled by phi equals a global
/// share sigma*phi of the full server under GPS, so the merged global plan
/// is feasible whenever every cell's local plan is.
///
/// Robustness contract: every local solve runs under the failover watchdog
/// (failover::guarded_attempt) and a last-good -> device-only fallback
/// chain, so the cell's devices always have a routable plan; coordinator
/// silence beyond the heartbeat timeout flips the cell into audited local
/// autonomy; grant staleness discounts usable capacity instead of blocking;
/// grants carrying an epoch <= the last adopted one are rejected
/// (split-brain guard). Crash wipes volatile state; restart replays the
/// cell's own append-only state log.
class CellController {
 public:
  /// Fraction of the granted capacity a stale cell trusts: a slice grant
  /// older than the freshness window is stale, and the cell keeps operating
  /// (it never blocks on the coordinator) on this share of it — bounded
  /// staleness, priced conservatively.
  static constexpr double kStaleDiscount = 0.75;
  /// A newly adopted grant re-solves only when some server's slice moved by
  /// more than this (absolute) — the distributed analogue of the online
  /// controller's bandwidth hysteresis.
  static constexpr double kSliceHysteresis = 0.02;

  CellController(const ProblemInstance& global, CellId cell,
                 CellControllerOptions opts, DecisionAuditLog* audit);

  /// Ingests a delivered message. Any coordinator message is a sign of
  /// life; kSliceGrant additionally adopts the slice (epoch permitting).
  void receive(const CtrlMessage& msg, double now);

  /// One control window: begin_tick(), solve_pending() and finish_tick()
  /// back to back. Returns true when the cell's local decisions changed.
  bool tick(double now, double cell_bandwidth,
            const std::vector<bool>& server_alive, ControlFabric& fabric);

  /// The tick's three phases. The plane runs every cell's begin_tick in
  /// cell order, then the cells' solve_pending side by side, then every
  /// cell's finish_tick in cell order, so the audit log, the spans and the
  /// fabric's draws come out in the order tick() gives them.
  ///
  /// Phase 1: the coordinator-loss, staleness, liveness-flip and bandwidth
  /// hysteresis checks. Returns true when the cell solves this tick. Its
  /// audit records are held until finish_tick.
  bool begin_tick(double now, double cell_bandwidth,
                  const std::vector<bool>& server_alive);
  /// Phase 2: the pending guarded local solve, if any. It reads the global
  /// instance and writes only this cell's state, so different cells may run
  /// it concurrently (with the default solver; see CellControllerOptions).
  void solve_pending();
  /// Phase 3: the held audit records, then adoption of the solved plan or
  /// the fallback chain, then the load report on cadence. Returns true when
  /// the cell's local decisions changed.
  bool finish_tick(double now, ControlFabric& fabric);

  /// Crash: volatile state (plan, slice, epoch, anchors) is lost; the state
  /// log survives. While down the cell's devices keep executing the last
  /// plan the plane merged — the data plane outlives its controller.
  void crash();
  /// Restart at `now`: replays the state log, with a fresh heartbeat grace
  /// window so a restart doesn't instantly declare the coordinator lost.
  void restart(double now);

  bool has_plan() const { return has_plan_; }
  CellId cell() const { return cell_; }
  const std::vector<DeviceId>& members() const { return members_; }
  /// Adopted decisions for members(), same order, in *global* share space.
  const std::vector<DeviceDecision>& local() const { return local_; }

  bool autonomous() const { return autonomous_; }
  bool stale() const { return stale_; }
  std::uint64_t adopted_epoch() const { return adopted_epoch_; }
  std::uint64_t local_solves() const { return local_solves_; }
  std::uint64_t fallbacks() const { return fallbacks_; }
  std::uint64_t epochs_rejected() const { return epochs_rejected_; }
  std::uint64_t coordinator_losses() const { return coordinator_losses_; }
  std::uint64_t rejoins() const { return rejoins_; }
  std::uint64_t stale_transitions() const { return stale_transitions_; }
  std::uint64_t restarts() const { return restarts_; }
  /// Grants adopted past the epoch guard (each records a kAdopted span).
  std::uint64_t adoptions() const { return adoptions_; }

  /// Mean per-server capacity slice the cell currently holds — the "price"
  /// signal the coordinator's tatonnement converges.
  double slice_mean() const;
  /// Fraction of the granted slice the cell trusts right now (1 fresh,
  /// kStaleDiscount stale).
  double effective_price() const {
    return stale_ ? kStaleDiscount : 1.0;
  }

  /// Attaches a span recorder (nullptr detaches); purely observational.
  void set_tracer(CtrlTracer* tracer) { tracer_ = tracer; }

 private:
  struct LogEntry {
    std::uint64_t epoch = 0;
    std::vector<double> slice;
    double granted_at = 0.0;
    std::vector<DeviceDecision> local;
    bool has_plan = false;
  };

  /// A solve begin_tick scheduled: its audit cause and detail, then what
  /// solve_pending computed for finish_tick to adopt.
  struct PendingSolve {
    AuditCause cause = AuditCause::kResolve;
    std::string detail;
    std::vector<double> scale;  // per server; all 0 when none is usable
    bool any_server = false;
    failover::GuardedOutcome outcome;
  };

  /// Adopts the solved plan (lifted to global share space), or walks the
  /// per-cell fallback chain on failure. Returns true when local_ changed.
  bool adopt_solve(PendingSolve solve);
  /// Sets local_ to `fresh` and audits the change. Returns true when
  /// local_ changed.
  bool adopt(std::vector<DeviceDecision> fresh, AuditCause why,
             std::string why_detail);
  /// Holds a phase-1 audit record (prefixed with tag()) for finish_tick.
  void hold(AuditCause cause, std::string detail);
  /// Appends an audit record (prefixed with tag()) at once.
  void note(AuditCause cause, std::string detail);
  /// Members of `plan` pointing at dead or zero-slice servers drop to
  /// device-only (the kept-last-good repair step of the fallback chain).
  /// Returns true when any did.
  bool repair(std::vector<DeviceDecision>& plan,
              const std::vector<bool>& server_alive) const;
  void append_log();
  std::string tag() const;  // "cell k: " audit prefix

  const ProblemInstance* global_;
  CellId cell_;
  CellControllerOptions opts_;
  DecisionAuditLog* audit_;
  CtrlTracer* tracer_ = nullptr;
  std::vector<DeviceId> members_;
  std::size_t num_servers_ = 0;

  // Volatile state (cleared by crash()).
  std::vector<double> slice_;      // per server, as granted
  std::uint64_t adopted_epoch_ = 0;
  double granted_at_ = 0.0;        // the assumed t=0 split counts as granted
  double last_coord_seen_ = 0.0;
  bool autonomous_ = false;
  bool stale_ = false;
  bool has_plan_ = false;
  std::vector<DeviceDecision> local_;
  double observed_bw_ = 0.0;
  double solved_bw_ = 0.0;
  std::vector<bool> solved_alive_;
  double next_report_ = 0.0;
  bool pending_solve_ = false;
  // Between the tick's phases: phase 1's audit records and the scheduled
  // solve.
  std::vector<AuditRecord> held_;
  std::optional<PendingSolve> solve_;

  // Stable state + counters. The corr mint counter is stable on purpose:
  // ids survive crashes, so a post-restart report can never reuse a
  // pre-crash correlation id.
  std::vector<LogEntry> log_;
  std::uint64_t corr_counter_ = 0;
  std::uint64_t adoptions_ = 0;
  std::uint64_t local_solves_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t epochs_rejected_ = 0;
  std::uint64_t coordinator_losses_ = 0;
  std::uint64_t rejoins_ = 0;
  std::uint64_t stale_transitions_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace scalpel
