#pragma once

#include <vector>

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

}  // namespace scalpel
