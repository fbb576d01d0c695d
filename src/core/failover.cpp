#include "core/failover.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>

#include "core/objective.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace failover {

Decision solve(const Solver& solver, const ProblemInstance& instance,
               const JointOptions& joint) {
  if (solver) return solver(instance, joint);
  return JointOptimizer(joint).optimize(instance);
}

ProblemInstance reduce(const ProblemInstance& instance,
                       const std::vector<Cell>& cells,
                       const std::vector<double>& scale) {
  const auto& topo = instance.topology();
  ClusterTopology sub;
  for (const Cell& c : cells) sub.add_cell(c);
  for (Device d : topo.devices()) {
    const auto it = std::find_if(cells.begin(), cells.end(),
                                 [&](const Cell& c) { return c.id == d.cell; });
    if (it == cells.end()) continue;
    d.cell = static_cast<CellId>(it - cells.begin());
    sub.add_device(std::move(d));
  }
  for (EdgeServer s : topo.servers()) {
    const double phi = scale[static_cast<std::size_t>(s.id)];
    if (phi <= 0.0) continue;
    s.compute = s.compute.scaled(phi);
    sub.add_server(std::move(s));
  }
  return ProblemInstance(sub, instance);
}

void lift(Decision& d, const std::vector<double>& scale) {
  std::vector<ServerId> kept;
  for (std::size_t s = 0; s < scale.size(); ++s) {
    if (scale[s] > 0.0) kept.push_back(static_cast<ServerId>(s));
  }
  for (auto& dd : d.per_device) {
    if (dd.plan.device_only) continue;
    SCALPEL_REQUIRE(
        dd.server >= 0 && static_cast<std::size_t>(dd.server) < kept.size(),
        "solver returned an out-of-range server");
    dd.server = kept[static_cast<std::size_t>(dd.server)];
  }
}

void fit_to_capacity(const ClusterTopology& topology, Decision& d) {
  const ResourceUse use = resource_use(topology, d);
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    const double s = use.server_share[static_cast<std::size_t>(dd.server)];
    if (s > 1.0) dd.compute_share /= s;
    const CellId cell = topology.device(static_cast<DeviceId>(i)).cell;
    const double cap = topology.cell(cell).bandwidth;
    const double g = use.cell_grant[static_cast<std::size_t>(cell)];
    if (g > cap) dd.bandwidth *= cap / g;
  }
}

void append_liveness_flips(std::string& detail, const std::vector<bool>& before,
                           const std::vector<bool>& after) {
  for (std::size_t s = 0; s < after.size(); ++s) {
    if (after[s] == before[s]) continue;
    if (!detail.empty()) detail += ", ";
    detail += "server " + std::to_string(s) + (after[s] ? " up" : " down");
  }
}

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
  // sized for the bandwidth at its solve.
  fit_to_capacity(topo, d);
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
