#include "core/validate.hpp"

#include <cstdarg>
#include <cstdio>

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
  std::vector<double> server_share(num_servers, 0.0);
  std::vector<double> cell_grant(topo.cells().size(), 0.0);
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
    server_share[s] += dd.compute_share;
    const auto cell =
        static_cast<std::size_t>(topo.device(static_cast<DeviceId>(i)).cell);
    cell_grant[cell] += dd.bandwidth;
  }
  for (std::size_t s = 0; s < num_servers; ++s) {
    if (server_share[s] > 1.0 + kCapacitySlack) {
      return reject("server %zu compute shares sum to %.3f > 1", s,
                    server_share[s]);
    }
  }
  for (std::size_t c = 0; c < cell_grant.size(); ++c) {
    const double cap = topo.cell(static_cast<CellId>(c)).bandwidth;
    if (cell_grant[c] > cap * (1.0 + kCapacitySlack)) {
      return reject("cell %zu grants %.0f B/s exceed capacity %.0f B/s", c,
                    cell_grant[c], cap);
    }
  }
  return PlanValidation{};
}

}  // namespace scalpel
