#pragma once

#include <string>

#include "util/json.hpp"

namespace scalpel::perf {

/// Outcome of comparing a candidate BENCH_simcore report to the committed
/// baseline.
struct GateResult {
  bool passed = false;   // candidate within tolerance (or gate skipped)
  bool skipped = false;  // candidate from an unoptimized/sanitized build
  double baseline_ns_per_event = 0.0;
  double candidate_ns_per_event = 0.0;
  double ratio = 0.0;    // candidate / baseline
  /// Sharded-engine comparison (0.0 when either report lacks the section).
  /// When present it gates with the same tolerance as the classic loop.
  double ratio_sharded = 0.0;
  /// Solver comparison on us_per_solve — always present (the report schema
  /// requires the solver section) and gated with the same tolerance, so a
  /// joint-optimizer slowdown trips CI just like a DES one.
  double ratio_solver = 0.0;
  /// Degradation-ladder comparison on ladder_us_per_build (0.0 when either
  /// report lacks it); gated with the same tolerance as the solve.
  double ratio_ladder = 0.0;
  /// The solver's exit-setting DP label counts (JointReport::dp_labels; 0.0
  /// when either report lacks them). Exact work, so any rise fails the gate,
  /// in every build.
  double baseline_dp_labels = 0.0;
  double candidate_dp_labels = 0.0;
  std::string message;   // one-line human verdict (includes warnings)
};

/// Throws ContractViolation unless `report` is a structurally valid
/// BENCH_simcore document: matching schema_version, every required key
/// present, units/values finite and positive where the metric demands it.
/// Shared by the schema golden test and the gate, so the committed baseline
/// can never drift from what the tooling parses.
void validate_simcore_report(const Json& report);

/// The `ci.sh perf` regression gate: fails when the candidate's DES
/// ns/event, sharded ns/event, solver us/solve, or ladder us/build (when
/// both reports carry it) exceeds the baseline's
/// by more than `tolerance` (0.15 = +15%), or when one of its exact work
/// counts exceeds the baseline's at all: solver dp_labels, DES events and
/// sharded events (each when both reports carry it). A candidate marked
/// "unoptimized": true skips the timing comparisons (passed unless a work
/// count rose, with a loud message) — Debug/sanitizer timings must never update or fail the
/// scoreboard. A CPU-fingerprint mismatch is surfaced in the message but
/// does not fail the gate by itself.
GateResult check_regression(const Json& baseline, const Json& candidate,
                            double tolerance);

}  // namespace scalpel::perf
