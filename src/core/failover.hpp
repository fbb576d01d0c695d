#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "core/joint.hpp"
#include "core/validate.hpp"
#include "obs/audit.hpp"

namespace scalpel {
namespace failover {

/// The solve path both control loops share — the centralized
/// OnlineController and each distributed CellController: the solver seam,
/// the sub-problem reduction and its lift back to global server ids, the
/// capacity fit, the watchdog guard, and the last-good -> remap ->
/// device-only fallback chain. None of these touch controller state;
/// callers keep their own incumbent, counters, audit records and fallback
/// policy.

/// Both controllers re-solve when an observed uplink drifts from the value
/// used at their last solve by more than this relative factor.
inline constexpr double kBandwidthHysteresis = 0.25;

/// The controllers' solver seam: when set, replaces JointOptimizer for every
/// solve (tests inject throwing, slow or garbage solvers through it).
using Solver =
    std::function<Decision(const ProblemInstance&, const JointOptions&)>;

/// Runs `solver` when set, else JointOptimizer(joint).
Decision solve(const Solver& solver, const ProblemInstance& instance,
               const JointOptions& joint);

/// The sub-problem a controller solves: `cells` with their believed uplinks
/// (ids compacted to 0..k-1 in the given order), the devices of those cells
/// in global id order, and every server whose `scale` entry is positive,
/// its compute scaled by that entry (`scaled(1.0)` is exact). Server ids are
/// compacted in global order; lift() maps them back. The sub-problem
/// shares `instance`'s model bundles instead of rebuilding them.
ProblemInstance reduce(const ProblemInstance& instance,
                       const std::vector<Cell>& cells,
                       const std::vector<double>& scale);

/// Maps the server ids of a decision solved on reduce()'s sub-problem back
/// to global ids, given the same per-server `scale`.
void lift(Decision& d, const std::vector<double>& scale);

/// Squeezes an offloading plan into physical capacity: per-server share sums
/// above 1 are divided down and per-cell grant sums above the cell's uplink
/// are scaled down, proportionally. A plan within capacity is untouched.
void fit_to_capacity(const ClusterTopology& topology, Decision& d);

/// Appends "server N up/down" for every server whose liveness differs
/// between `before` and `after`, joined with ", " (also to a non-empty
/// `detail`): the audit text of a liveness flip.
void append_liveness_flips(std::string& detail, const std::vector<bool>& before,
                           const std::vector<bool>& after);

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
/// then the plan is fit to capacity so the repaired plan passes the same
/// validation as a fresh solve.
Decision remap_dead_servers(const ProblemInstance& instance,
                            const Decision& base,
                            const std::vector<bool>& alive);

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
