#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/decision.hpp"

namespace scalpel {

/// Everything the online controller learns in one observation window.
/// Optional sections may stay empty:
///   - offered_rate/queue_depth empty: no overload signal this window (the
///     degradation ladder and admission gate stay untouched);
///   - bw_fresh/bw_age/alive_fresh empty: perfect telemetry (every reading
///     fresh, age zero) — what a pass-through channel produces.
struct Observation {
  /// Simulation time of the observation; forwarded to the audit clock, so a
  /// caller that fills it need not call audit_log().advance_time() itself.
  double time = 0.0;
  std::vector<double> cell_bandwidth;  // bytes/s, indexed by cell id
  std::vector<bool> server_alive;      // indexed by server id
  /// Per-device offered load (tasks/s since the last window) and
  /// instantaneous queue depth; both empty = liveness-only observation.
  std::vector<double> offered_rate;
  std::vector<double> queue_depth;
  /// Telemetry freshness from the channel model (see TelemetryChannel):
  /// fresh=false marks a dropped report repeating the last delivered value;
  /// age is seconds since the delivered sample was actually taken.
  std::vector<bool> bw_fresh;
  std::vector<double> bw_age;
  std::vector<bool> alive_fresh;
};

/// What a controller tick asks of the engine: optionally swap the
/// deployment plan, optionally (re)set the per-device admission gate — the
/// probability in [0, 1] that a new arrival is admitted (an empty vector
/// clears the gate). Refused arrivals are shed and count as deadline misses.
struct ControlAction {
  std::optional<Decision> decision;
  std::optional<std::vector<double>> admit_fraction;
};

/// The one controller seam. The engine calls it at every control tick with
/// the (possibly impaired) per-cell bandwidths and server liveness, the
/// per-device offered rate (arrivals/s since the last tick) and queue depth
/// (device backlog + upload + server queues), plus the telemetry-freshness
/// fields; the returned action may swap the plan and drive the admission
/// gate. OnlineController::callback() and
/// DistributedControlPlane::callback() both produce one.
using ObservingController = std::function<ControlAction(const Observation&)>;

}  // namespace scalpel
