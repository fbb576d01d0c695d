#include "core/admission.hpp"

#include <algorithm>
#include <limits>

#include "core/objective.hpp"
#include "util/assert.hpp"

namespace scalpel::admission {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double max_sustainable_rate(const ProblemInstance& instance, DeviceId id,
                            const DeviceDecision& decision,
                            double utilization_headroom) {
  SCALPEL_REQUIRE(utilization_headroom > 0.0 && utilization_headroom <= 1.0,
                  "headroom must be in (0, 1]");
  // Every stage's utilization is linear in the arrival rate, so the
  // sustainable maximum is a closed form: h / (per-task load of the most
  // loaded stage).
  const PlanModel pm = build_plan_model(instance, id, decision);
  const auto& b = pm.breakdown();

  double per_task_load = b.expected_device_time;  // device stage, all tasks
  if (!decision.plan.device_only && b.offload_prob > 0.0) {
    const double s_up =
        static_cast<double>(b.upload_bytes) / decision.bandwidth;
    per_task_load = std::max(per_task_load, b.offload_prob * s_up);
    per_task_load = std::max(
        per_task_load,
        b.offload_prob * b.server_time_cond_m1 / decision.compute_share);
  }
  if (per_task_load <= 0.0) return kInf;
  return utilization_headroom / per_task_load;
}

ThrottlePlan propose_throttle(const ProblemInstance& instance,
                              const Decision& decision,
                              double utilization_headroom) {
  const auto& topo = instance.topology();
  SCALPEL_REQUIRE(decision.per_device.size() == topo.devices().size(),
                  "decision must cover every device");
  ThrottlePlan plan;
  plan.admitted_rate.resize(decision.per_device.size());
  double offered_total = 0.0;
  double admitted_total = 0.0;
  for (std::size_t i = 0; i < decision.per_device.size(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    const double offered = topo.device(id).arrival_rate;
    const double sustainable = max_sustainable_rate(
        instance, id, decision.per_device[i], utilization_headroom);
    const double admitted = std::min(offered, sustainable);
    plan.admitted_rate[i] = admitted;
    plan.throttled = plan.throttled || admitted < offered - 1e-12;
    offered_total += offered;
    admitted_total += admitted;
  }
  plan.admitted_fraction = admitted_total / offered_total;
  return plan;
}

}  // namespace scalpel::admission
