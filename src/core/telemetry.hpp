#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "core/observation.hpp"

namespace scalpel {

/// Trust policy for imperfect telemetry. The defaults are deliberately
/// transparent — confirm_windows = 1 believes every liveness flip
/// immediately and outlier_band = flap_threshold = 0 disable the rejection
/// filters — so a controller fed perfect observations behaves bit-identically
/// to one with no sanitizer at all. Hardened deployments (bench_f18) opt in.
///
/// The whole policy is additionally gated on channel metadata: an
/// Observation without freshness/age vectors did not travel a measurement
/// path that can lie (no TelemetryChannel in the loop), so it is ground
/// truth and is believed as-is even under hardened options. Distrust is
/// reserved for readings that were actually measured.
struct SanitizerOptions {
  /// A bandwidth reading older than this (seconds since the sample was
  /// taken; delay and drops both age readings) is distrusted: the last
  /// accepted value is held instead. Only bites when the observation carries
  /// age metadata, i.e. when a telemetry channel is in the loop.
  double max_age = 10.0;
  /// Reject a fresh bandwidth reading deviating from the rolling reference
  /// by more than this relative band (|v - ref| > band * ref). 0 disables.
  double outlier_band = 0.0;
  /// Rolling-median window (samples) for the outlier reference; the
  /// detector stays off until the window is full.
  std::size_t median_window = 5;
  /// Consecutive fresh observations of the opposite liveness state required
  /// before a flip is believed. 1 = believe immediately (pre-hardening
  /// behavior); 2+ filters one-tick misreads at the cost of one extra
  /// window of failover latency.
  std::size_t confirm_windows = 1;
  /// A server whose believed state transitions >= flap_threshold times
  /// within its last 10 observations is "flapping": its believed state
  /// freezes until the raw readings are *self-consistent* for
  /// flap_hold consecutive windows, at which point that stable state is
  /// adopted — whichever it is. (Unfreezing only on agreement with the
  /// frozen belief would strand a server frozen "up" through a real
  /// outage.) 0 disables flap suppression.
  std::size_t flap_threshold = 0;
  std::size_t flap_hold = 5;  // self-consistent observations to unfreeze
};

/// What one sanitizer pass did to the raw observation, for audit records
/// (cause telemetry_rejected) and tests.
struct SanitizeReport {
  std::size_t stale_held = 0;         // bandwidth readings past max_age
  std::size_t outliers_rejected = 0;  // bandwidth readings outside the band
  std::size_t flips_deferred = 0;     // liveness flips awaiting confirmation
  std::size_t flaps_suppressed = 0;   // readings ignored on a frozen server
  bool any() const {
    return stale_held + outliers_rejected + flips_deferred + flaps_suppressed >
           0;
  }
  /// One-line audit detail, e.g. "stale=1 outlier=2 deferred=0 flap=3".
  std::string summary() const;
};

/// Stateful filter between raw telemetry and the controller's believed
/// cluster state: holds last-good values across stale windows, rejects
/// bandwidth outliers against a rolling median (with capitulation after
/// kDistrustLimit consecutive rejections), debounces liveness flips, and
/// freezes flapping servers so a blinking reading cannot thrash the plan.
/// apply() mutates the observation in place toward the believed state.
class TelemetrySanitizer {
 public:
  TelemetrySanitizer() = default;
  TelemetrySanitizer(SanitizerOptions opts, std::size_t num_cells,
                     std::size_t num_servers);

  /// Sanitizes one observation in place (cells sized num_cells, servers
  /// num_servers). Must be called in observation order — the filter state
  /// (reference windows, confirmation streaks, flap history) advances.
  SanitizeReport apply(Observation& o);

  const SanitizerOptions& options() const { return opts_; }
  /// Believed liveness after the last apply() (debounce + flap filtering).
  const std::vector<bool>& believed_alive() const { return believed_alive_; }

 private:
  struct CellState {
    std::deque<double> window;  // accepted samples, newest last
    std::size_t distrust = 0;  // consecutive rejections
    double last_good = 0.0;
    bool has_good = false;
  };
  struct ServerState {
    std::size_t flip_streak = 0;  // consecutive contradicting readings
    bool frozen = false;          // flap suppression engaged
    std::size_t stable = 0;   // consecutive identical readings while frozen
    bool last_raw = true;     // the reading that `stable` is counting
    std::deque<std::size_t> transitions;  // observation indices of flips
    std::size_t observations = 0;
  };

  double reference(const CellState& st) const;
  bool detector_ready(const CellState& st) const;

  SanitizerOptions opts_;
  std::vector<CellState> cells_;
  std::vector<ServerState> servers_;
  std::vector<bool> believed_alive_;
};

}  // namespace scalpel
