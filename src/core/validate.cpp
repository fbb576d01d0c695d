#include "core/validate.hpp"

#include <cstdarg>
#include <cstdio>

#include "util/assert.hpp"

namespace scalpel {

namespace {

/// Relative slack on the per-server compute-share sum and the per-cell
/// bandwidth-grant sum (solvers and remaps accumulate FP error; a few
/// percent of oversubscription is noise, 2x is a garbage plan).
constexpr double kCapacitySlack = 0.02;

PlanValidation reject(const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  PlanValidation v;
  v.ok = false;
  v.reason = buf;
  return v;
}

}  // namespace

ResourceUse resource_use(const ClusterTopology& topology,
                         const Decision& decision) {
  ResourceUse use;
  use.server_share.assign(topology.servers().size(), 0.0);
  use.cell_grant.assign(topology.cells().size(), 0.0);
  for (std::size_t i = 0; i < decision.per_device.size(); ++i) {
    const DeviceDecision& dd = decision.per_device[i];
    if (dd.plan.device_only) continue;
    SCALPEL_REQUIRE(dd.server >= 0 && static_cast<std::size_t>(dd.server) <
                                          use.server_share.size(),
                    "decision references missing server");
    use.server_share[static_cast<std::size_t>(dd.server)] += dd.compute_share;
    use.cell_grant[static_cast<std::size_t>(
        topology.device(static_cast<DeviceId>(i)).cell)] += dd.bandwidth;
  }
  return use;
}

PlanValidation validate_plan(const ProblemInstance& instance,
                             const Decision& decision,
                             const std::vector<bool>& server_alive) {
  const auto& topo = instance.topology();
  const std::size_t num_devices = topo.devices().size();
  const std::size_t num_servers = topo.servers().size();
  if (decision.per_device.size() != num_devices) {
    return reject("plan covers %zu devices, topology has %zu",
                  decision.per_device.size(), num_devices);
  }
  for (std::size_t i = 0; i < num_devices; ++i) {
    const DeviceDecision& dd = decision.per_device[i];
    if (dd.plan.device_only) continue;
    if (dd.server < 0 || static_cast<std::size_t>(dd.server) >= num_servers) {
      return reject("device %zu targets unknown server %d", i,
                    static_cast<int>(dd.server));
    }
    const auto s = static_cast<std::size_t>(dd.server);
    if (!server_alive.empty() && !server_alive[s]) {
      return reject("device %zu targets dead server %zu", i, s);
    }
    if (!(dd.compute_share > 0.0) ||
        dd.compute_share > 1.0 + kCapacitySlack) {
      return reject("device %zu compute share %.3f outside (0, 1]", i,
                    dd.compute_share);
    }
    if (!(dd.bandwidth > 0.0)) {
      return reject("device %zu bandwidth grant %.0f must be positive", i,
                    dd.bandwidth);
    }
  }
  const ResourceUse use = resource_use(topo, decision);
  for (std::size_t s = 0; s < num_servers; ++s) {
    if (use.server_share[s] > 1.0 + kCapacitySlack) {
      return reject("server %zu compute shares sum to %.3f > 1", s,
                    use.server_share[s]);
    }
  }
  for (std::size_t c = 0; c < use.cell_grant.size(); ++c) {
    const double cap = topo.cell(static_cast<CellId>(c)).bandwidth;
    if (use.cell_grant[c] > cap * (1.0 + kCapacitySlack)) {
      return reject("cell %zu grants %.0f B/s exceed capacity %.0f B/s", c,
                    use.cell_grant[c], cap);
    }
  }
  return PlanValidation{};
}

}  // namespace scalpel
