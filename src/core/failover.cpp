#include "core/failover.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>

#include "core/objective.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace failover {

GuardedOutcome guarded_attempt(const ProblemInstance& instance,
                               const std::vector<bool>& alive,
                               double budget_seconds,
                               const std::function<Decision()>& solve) {
  GuardedOutcome out;
  out.ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    out.decision = solve();
  } catch (const std::exception& e) {
    out.ok = false;
    out.fail_cause = AuditCause::kSolverTimeout;
    out.fail_detail = std::string("solver threw: ") + e.what();
  }
  if (out.ok && std::isfinite(budget_seconds)) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (elapsed > budget_seconds) {
      out.ok = false;
      out.fail_cause = AuditCause::kSolverTimeout;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "solve took %.3fs, budget %.3fs",
                    elapsed, budget_seconds);
      out.fail_detail = buf;
    }
  }
  if (out.ok) {
    const PlanValidation v = validate_plan(instance, out.decision, alive);
    if (!v.ok) {
      out.ok = false;
      out.fail_cause = AuditCause::kPlanRejected;
      out.fail_detail = v.reason;
    }
  }
  return out;
}

Decision device_only_fallback(const ProblemInstance& instance) {
  Decision d;
  d.scheme = "device_fallback";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  return d;
}

Decision remap_dead_servers(const ProblemInstance& instance,
                            const Decision& base,
                            const std::vector<bool>& alive) {
  const auto& topo = instance.topology();
  Decision d = base;
  d.scheme = "remap_fallback";
  std::vector<ServerId> live;
  for (const auto& s : topo.servers()) {
    if (alive[static_cast<std::size_t>(s.id)]) live.push_back(s.id);
  }
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    const bool valid =
        dd.server >= 0 &&
        static_cast<std::size_t>(dd.server) < topo.servers().size() &&
        alive[static_cast<std::size_t>(dd.server)];
    if (valid) continue;
    if (live.empty()) {
      dd.plan.device_only = true;
      dd.server = -1;
      dd.compute_share = 0.0;
      dd.bandwidth = 0.0;
      continue;
    }
    ServerId best = live.front();
    double best_rtt = std::numeric_limits<double>::infinity();
    for (const ServerId s : live) {
      const double rtt = topo.path_rtt(static_cast<DeviceId>(i), s);
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best = s;
      }
    }
    dd.server = best;
  }
  // Refugees may oversubscribe their new server, and the plan's grants were
  // sized for the bandwidth at its solve — renormalize both to current
  // capacity so the repaired plan passes the same validation as a solve.
  std::vector<double> share(topo.servers().size(), 0.0);
  std::vector<double> grant(topo.cells().size(), 0.0);
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    const auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    share[static_cast<std::size_t>(dd.server)] += dd.compute_share;
    grant[static_cast<std::size_t>(
        topo.device(static_cast<DeviceId>(i)).cell)] += dd.bandwidth;
  }
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    const double s = share[static_cast<std::size_t>(dd.server)];
    if (s > 1.0) dd.compute_share /= s;
    const auto cell = static_cast<std::size_t>(
        topo.device(static_cast<DeviceId>(i)).cell);
    const double cap = topo.cell(static_cast<CellId>(cell)).bandwidth;
    if (grant[cell] > cap) dd.bandwidth *= cap / grant[cell];
  }
  evaluate_decision(instance, d);
  return d;
}

Decision solve_excluding_dead(
    const ProblemInstance& instance, const std::vector<bool>& alive,
    const std::function<Decision(const ProblemInstance&)>& run) {
  const auto& topo = instance.topology();
  ClusterTopology reduced;
  for (const auto& c : topo.cells()) reduced.add_cell(c);
  for (const auto& d : topo.devices()) reduced.add_device(d);
  std::vector<ServerId> live_ids;
  for (const auto& s : topo.servers()) {
    if (!alive[static_cast<std::size_t>(s.id)]) continue;
    live_ids.push_back(s.id);
    reduced.add_server(s);
  }
  const ProblemInstance sub(reduced);
  Decision d = run(sub);
  for (auto& dd : d.per_device) {
    if (dd.plan.device_only) continue;
    SCALPEL_REQUIRE(dd.server >= 0 && static_cast<std::size_t>(dd.server) <
                                          live_ids.size(),
                    "solver returned an out-of-range server");
    dd.server = live_ids[static_cast<std::size_t>(dd.server)];
  }
  // Re-evaluate against the full instance so predictions and the grant
  // validation refer to the real server ids.
  evaluate_decision(instance, d);
  return d;
}

FallbackOutcome fallback_chain(const ProblemInstance& instance,
                               const std::vector<bool>& alive,
                               const Decision* previous) {
  FallbackOutcome out;
  if (previous != nullptr && validate_plan(instance, *previous, alive).ok) {
    // Last-good plan is still safe under the believed conditions.
    out.decision = *previous;
    out.detail = "kept last-good plan";
    out.kept_previous = true;
    return out;
  }
  if (previous != nullptr) {
    Decision repaired = remap_dead_servers(instance, *previous, alive);
    if (validate_plan(instance, repaired, alive).ok) {
      out.decision = std::move(repaired);
      out.detail = "remapped onto live servers";
      return out;
    }
    out.remap_rejected = true;
  }
  out.decision = device_only_fallback(instance);
  out.detail = "degraded to device-only";
  return out;
}

}  // namespace failover
}  // namespace scalpel
