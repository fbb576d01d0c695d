#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "core/validate.hpp"
#include "obs/audit.hpp"

namespace scalpel {
namespace failover {

/// The watchdog/fallback machinery PR 8 built into OnlineController, hoisted
/// into free functions so every control loop — the centralized controller
/// and each distributed CellController — guards its solves the same way.
/// None of these touch controller state; callers keep their own counters,
/// audit records, and backoff windows.

/// Outcome of one guarded solve attempt. When !ok, `decision` is untouched
/// garbage — callers must not adopt it — and fail_cause/fail_detail carry
/// the audit attribution (solver_timeout or plan_rejected).
struct GuardedOutcome {
  bool ok = false;
  Decision decision;
  AuditCause fail_cause = AuditCause::kSolverTimeout;
  std::string fail_detail;
};

/// Runs `solve` under the watchdog: try/catch, a post-hoc wall-clock budget
/// (an overrun solve is discarded; inf = off), and validate_plan against
/// `alive` (empty = all up). Never throws.
GuardedOutcome guarded_attempt(const ProblemInstance& instance,
                               const std::vector<bool>& alive,
                               double budget_seconds,
                               const std::function<Decision()>& solve);

/// Everything-local survival plan: every device runs device-only. Always
/// routable, never oversubscribes anything.
Decision device_only_fallback(const ProblemInstance& instance);

/// Cheap plan repair: devices pointing at dead/invalid servers move to the
/// live server with the smallest path RTT (device-only when none is left),
/// then per-server shares and per-cell grants are renormalized to fit
/// current capacity so the repaired plan passes the same validation as a
/// fresh solve.
Decision remap_dead_servers(const ProblemInstance& instance,
                            const Decision& base,
                            const std::vector<bool>& alive);

/// Rebuilds the topology with only the live servers (ids compacted to
/// 0..k-1), solves via `run` on the reduced instance, then maps the chosen
/// server ids back and re-evaluates against the full instance. `run` is the
/// caller's solver entry point (real optimizer or test seam).
Decision solve_excluding_dead(
    const ProblemInstance& instance, const std::vector<bool>& alive,
    const std::function<Decision(const ProblemInstance&)>& run);

/// Result of walking the last-good -> remap -> device-only fallback chain.
struct FallbackOutcome {
  Decision decision;
  std::string detail;        // audit text, e.g. "kept last-good plan"
  bool kept_previous = false;  // last-good survived validation unchanged
  bool remap_rejected = false;  // the remap candidate failed validation too
};

/// Walks the fallback chain after a failed solve: keep `previous` if it
/// still validates under the believed conditions, else remap it onto live
/// servers, else degrade to device-only. `previous` may be nullptr (no
/// last-good plan yet) — the chain then jumps straight to device-only.
/// The returned decision always validates (device-only cannot fail).
FallbackOutcome fallback_chain(const ProblemInstance& instance,
                               const std::vector<bool>& alive,
                               const Decision* previous);

}  // namespace failover
}  // namespace scalpel
