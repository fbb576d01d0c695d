#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/fabric.hpp"

namespace scalpel {

/// The slow global tier of the distributed control plane: aggregates the
/// cells' per-server demand reports and reallocates each server's capacity
/// across cells by damped proportional tatonnement. Epoch-numbered grants
/// make adoption split-brain-safe, and the epoch counter plus the slice
/// matrix live in an append-only state log that survives crashes — a
/// restarted coordinator resumes from its last logged epoch instead of
/// re-issuing epoch numbers it already used.
class GlobalCoordinator {
 public:
  /// Damping of the tatonnement: phi' = (1 - alpha) * phi + alpha * target.
  /// With static demand the per-round contraction factor is exactly
  /// (1 - alpha), so max|delta phi| decays geometrically — the convergence
  /// guarantee ConvergesGeometricallyOnStaticWorkload pins down.
  static constexpr double kAlpha = 0.5;
  /// Slice floor: a cell with no demand keeps this much of each server so
  /// it can re-enter later (a zero slice would lock it out of offloading
  /// forever — its local solver would never see server capacity again).
  /// Folded into the tatonnement target (reserve floor per cell, split the
  /// residual proportionally) so the fixed point respects the floor and the
  /// iteration actually converges instead of limit-cycling on the clamp.
  static constexpr double kMinSlice = 0.005;

  GlobalCoordinator(std::size_t num_cells, std::size_t num_servers);

  /// Ingests a delivered message (kLoadReport; everything else ignored).
  void receive(const CtrlMessage& msg);

  /// Runs reallocation/heartbeat cadences due at `now`, sending grants and
  /// heartbeats through `fabric`.
  void tick(double now, ControlFabric& fabric);

  /// Crash: volatile state (demand reports, cadence anchors) is lost.
  /// The state log is stable storage and survives.
  void crash();
  /// Restart at `now`: replays the state log (epoch + slice matrix).
  void restart(double now);

  std::uint64_t epoch() const { return epoch_; }
  /// Grant-issuing reallocation rounds so far (the convergence metric).
  std::uint64_t realloc_rounds() const { return realloc_rounds_; }
  bool converged() const { return converged_; }
  double last_max_delta() const { return last_max_delta_; }
  const std::vector<std::vector<double>>& slices() const { return phi_; }
  /// Targeted anti-entropy re-grants issued (lagging report echoes).
  std::uint64_t regrants() const { return regrants_; }

  /// Attaches a span recorder (nullptr detaches); purely observational.
  void set_tracer(CtrlTracer* tracer) { tracer_ = tracer; }

 private:
  struct LogEntry {
    std::uint64_t epoch = 0;
    std::vector<std::vector<double>> phi;
  };

  void send_grants(double now, ControlFabric& fabric);

  std::size_t num_cells_;
  std::size_t num_servers_;
  CtrlTracer* tracer_ = nullptr;

  // Volatile state (cleared by crash()).
  std::vector<std::vector<double>> phi_;  // [cell][server] capacity slice
  std::vector<std::vector<double>> demand_;  // last report per cell
  std::vector<bool> has_demand_;
  std::vector<bool> lagging_;  // report echoed an epoch behind: re-grant
  double next_realloc_ = 0.0;
  double next_heartbeat_ = 0.0;
  bool converged_ = false;
  double last_max_delta_ = 0.0;

  // Stable state. The corr mint counter and per-cell grant corrs survive
  // crashes: ids are never reused, and a post-restart anti-entropy re-grant
  // continues the causal chain the pre-crash grant started.
  std::uint64_t epoch_ = 0;
  std::uint64_t realloc_rounds_ = 0;
  std::uint64_t corr_counter_ = 0;
  std::uint64_t regrants_ = 0;
  std::vector<std::uint64_t> grant_corr_;  // last full-grant corr per cell
  std::vector<LogEntry> log_;
};

}  // namespace scalpel
